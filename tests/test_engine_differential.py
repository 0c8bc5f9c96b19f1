"""The batched engine against the stepwise ``AgentState`` oracle.

Error columns must agree to 1e-9 relative; the communication flags and the
pre-invertible counts must match exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netrls as nr
from netrls import simnet
from netrls.consensus import run_comm_phase
from netrls.simnet import full_rank, inverse

from conftest import random_connected_weights, reference_model
from stepwise_oracle import AgentState, simulate_run

RTOL = 1e-9
ERROR_COLUMNS = ("local_err", "comm_err", "global_err")


def _assert_matches_oracle(config: nr.SimConfig) -> list[nr.ErrorTrace]:
    traces = [simnet._simulate_run(config, r) for r in range(config.runs)]
    averaged = nr.run(config)
    for run_index, trace in enumerate(traces):
        ref = simulate_run(config, run_index)
        assert np.array_equal(trace.t, ref.t)
        assert np.array_equal(trace.comm_fired, ref.comm_fired)
        assert np.array_equal(trace.pre_invertible_count, ref.pre_invertible_count)
        for column in ERROR_COLUMNS:
            got, want = getattr(trace, column), getattr(ref, column)
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
            assert rel.max() <= RTOL, f"run {run_index} {column}: max rel {rel.max():.2e}"
    for column in ERROR_COLUMNS + ("pre_invertible_count",):
        assert np.array_equal(getattr(averaged, column),
                              np.mean([getattr(tr, column) for tr in traces], axis=0))
    return traces


def _model(mean: str, m: int = 4, n: int = 2, l: int = 2) -> nr.ModelSpec:
    theta = np.linspace(-1.2, 1.5, l * n).reshape(l, n)
    rng = np.random.default_rng(3)
    if mean == "zero":
        schedule = nr.ZeroMean()
    elif mean == "constant":
        schedule = nr.ConstantMean(vectors=rng.normal(size=(m, n)))
    else:
        schedule = nr.SinusoidMean(amplitudes=rng.normal(size=(m, n)),
                                   periods=rng.uniform(5.0, 40.0, size=m))
    return nr.ModelSpec(theta=theta, sigma_x=1.5, sigma_eta=0.7, m=m, mean=schedule)


@pytest.mark.parametrize("mean", ["zero", "constant", "sinusoid"])
def test_mean_schedules(mean):
    config = nr.SimConfig(
        model=_model(mean),
        weights=nr.ring_weights(4),
        schedule=nr.Schedule(zeta=10, T=4, S=150),
        horizon=200,
        runs=2,
        seed=17,
    )
    _assert_matches_oracle(config)


def test_single_agent():
    model = nr.ModelSpec(theta=[[1.2, -0.5]], sigma_x=1.0, sigma_eta=0.5, m=1)
    config = nr.SimConfig(
        model=model,
        weights=nr.validate_weights([[1.0]]),
        schedule=nr.Schedule(zeta=5, T=3, S=60),
        horizon=80,
        runs=2,
        seed=2,
    )
    _assert_matches_oracle(config)


def test_four_features_start_on_pinv():
    # one rank-one term per step leaves beta singular for the first n - 1
    # steps; the phases mix copies of the sums, so the agents' own stay singular
    config = nr.SimConfig(
        model=_model("zero", m=3, n=4, l=3),
        weights=nr.complete_weights(3),
        schedule=nr.Schedule(zeta=2, T=2, S=40),
        horizon=60,
        runs=3,
        seed=8,
    )
    traces = _assert_matches_oracle(config)
    assert traces[0].pre_invertible_count[:4].tolist() == [3, 3, 3, 0]


def test_invertibility_is_sticky_like_agent_state(monkeypatch):
    # beta = I passes the rank test at step 2; the third term makes it
    # ill-conditioned enough to fail it, but the agent stays invertible
    x_rows = np.array([[1.0, 0.0], [0.0, 1.0], [1e6, 0.0], [0.5, 0.5]])
    state = AgentState(2, 1)
    expected = []
    for x in x_rows:
        state.ingest(x, np.zeros(1))
        expected.append(not state.pre_invertible)
    outer = x_rows[:, :, None] * x_rows[:, None, :]
    betas = np.cumsum(outer, axis=0)
    assert expected == [False, True, True, True]
    assert not full_rank(betas[2])

    # the engine draws the same rows at two agents, with zero labels and no
    # phase in the horizon; it fills the third lane with their pooled sums
    def rows(spec, seed, run, t_start, count):
        steps = slice(t_start - 1, t_start - 1 + count)
        return np.repeat(x_rows[steps, None], 2, axis=1), np.zeros((count, 2, 1))

    monkeypatch.setattr(simnet, "sample_block", rows)
    config = nr.SimConfig(
        model=nr.ModelSpec(theta=[[1.0, 2.0]], sigma_x=1.0, sigma_eta=0.0, m=2),
        weights=nr.complete_weights(2),
        schedule=nr.Schedule(zeta=10, T=1, S=0),
        horizon=4,
        runs=1,
        seed=0,
    )
    # in one piece, and with 3 matrices per lane one piece per step, so that
    # steps 3 and 4 come after every lane has passed the rank test, which the
    # engine then skips
    for lane_steps in (simnet.LANE_STEPS, 3):
        monkeypatch.setattr(simnet, "LANE_STEPS", lane_steps)
        trace = simnet._simulate_run(config, 0)
        assert trace.pre_invertible_count.tolist() == [2, 0, 0, 0]


def test_horizon_longer_than_one_block():
    # a block of 6 agents holds LANE_STEPS // 7 = 585 steps, one piece;
    # phases at every multiple of 585 / 5, so one falls on the block
    # boundary, and the last one at the horizon itself
    block = simnet.LANE_STEPS // 7
    assert block > simnet.BLOCK and block % 5 == 0
    zeta = block // 5
    horizon = block + 2 * zeta
    config = nr.SimConfig(
        model=reference_model(),
        weights=nr.ring_weights(6),
        schedule=nr.Schedule(zeta=zeta, T=38, S=horizon),
        horizon=horizon,
        runs=1,
        seed=1008,
    )
    traces = _assert_matches_oracle(config)
    assert traces[0].comm_fired[block - 1]
    assert traces[0].comm_fired[-1]


def test_results_do_not_depend_on_block_length(monkeypatch):
    config = nr.SimConfig(
        model=_model("sinusoid", m=3),
        weights=nr.complete_weights(3),
        schedule=nr.Schedule(zeta=6, T=1, S=48),
        horizon=50,
        runs=2,
        seed=5,
    )
    reference = [simnet._simulate_run(config, r) for r in range(config.runs)]
    # blocks of 1, 6 and 7 steps, each one piece (LANE_STEPS = (m + 1) * BLOCK),
    # and blocks of 7 steps cut into pieces of 3, 3 and 1
    for block, lane_steps in ((1, 4), (6, 24), (7, 28), (7, 12)):
        monkeypatch.setattr(simnet, "BLOCK", block)
        monkeypatch.setattr(simnet, "LANE_STEPS", lane_steps)
        traces = _assert_matches_oracle(config)
        for got, want in zip(traces, reference):
            for column in ERROR_COLUMNS + ("pre_invertible_count",):
                assert np.array_equal(getattr(got, column), getattr(want, column))


# (BLOCK, LANE_STEPS): the engine's defaults; one step per block; blocks of 7
# steps cut into pieces of 5 and 2 steps (8 or 9 agents) or 2, 2, 2 and 1
# (17 agents); and blocks of 64 steps cut into pieces of one step
PIECES = ((512, 4096), (1, 8), (7, 50), (64, 8))


@pytest.mark.parametrize("m, n, l, zeta", [(8, 1, 1, 3), (17, 1, 1, 2), (9, 2, 2, 5),
                                           (17, 2, 2, 1), (8, 3, 1, 4), (17, 1, 3, 2)])
def test_traces_do_not_depend_on_piece_sizes(monkeypatch, m, n, l, zeta):
    # a piece holds one to dozens of phases, so the mixing's operand is one
    # column wide or many; from 8 agents on, numpy sums a strided agent mean
    # in another order than a contiguous one
    horizon = 150
    config = nr.SimConfig(
        model=_model("sinusoid", m=m, n=n, l=l),
        weights=random_connected_weights(np.random.default_rng(m * zeta), m),
        schedule=nr.Schedule(zeta=zeta, T=3, S=horizon - horizon % zeta),
        horizon=horizon,
        runs=1,
        seed=41,
    )
    traces = []
    for block, lane_steps in PIECES:
        monkeypatch.setattr(simnet, "BLOCK", block)
        monkeypatch.setattr(simnet, "LANE_STEPS", lane_steps)
        traces.append(vars(simnet._simulate_run(config, 0)))
    for pieces, trace in zip(PIECES[1:], traces[1:]):
        for column, values in traces[0].items():
            assert np.array_equal(trace[column], values), (pieces, column)


def test_long_cumulative_sums_round_within_the_tolerance():
    # 2 * 10**5 steps of one agent: the running sums are np.cumsum, whose
    # rounding grows with t. Against the error from exactly rounded sums of
    # the same products, seeds 1 to 10 gave relative gaps of at most 9e-13 at
    # t = 10**3, 1.3e-11 at 10**4 and 1.8e-10 at 10**5 and 2 * 10**5
    model = nr.ModelSpec(theta=[[1.25]], sigma_x=1.0, sigma_eta=0.5, m=1)
    config = nr.SimConfig(model=model, weights=nr.validate_weights([[1.0]]),
                          schedule=nr.Schedule(zeta=1, T=1, S=0),
                          horizon=2 * 10**5, runs=1, seed=7)
    trace = simnet._simulate_run(config, 0)
    x, y = nr.sample_block(model, config.seed, 0, 1, config.horizon)
    xy, xx = (y * x).ravel().tolist(), (x * x).ravel().tolist()
    for t in (10**3, 10**4, 3 * 10**4, 10**5, 2 * 10**5):
        exact = abs(math.fsum(xy[:t]) / math.fsum(xx[:t]) - 1.25)
        for column in (trace.local_err, trace.global_err):
            assert abs(column[t - 1] - exact) <= RTOL * exact, t


def _counting_comm_phase(monkeypatch) -> list[tuple[int, ...]]:
    """Record the operand shape of every ``run_comm_phase`` call the engine makes."""
    shapes = []

    def counted(weights, alphas, betas, steps):
        shapes.append(alphas.shape)
        return run_comm_phase(weights, alphas, betas, steps)

    monkeypatch.setattr(simnet, "run_comm_phase", counted)
    return shapes


def test_one_comm_product_per_block(monkeypatch, paper_model, ring6, paper_schedule):
    # one run of configs/paper.json: 81 phases (t = 20, ..., 1620) in the
    # first three blocks; a block of 6 agents is one piece of
    # LANE_STEPS // 7 = 585 steps
    shapes = _counting_comm_phase(monkeypatch)
    config = nr.SimConfig(model=paper_model, weights=ring6, schedule=paper_schedule,
                          horizon=3000, runs=1, seed=1008)
    trace = simnet._simulate_run(config, 0)
    phases = int(trace.comm_fired.sum())
    assert phases == 81
    # the operand stays (m, k * l, n), which the benchmark's tracer unpacks
    assert all(len(shape) == 3 and shape[0] == 6 for shape in shapes)
    assert sum(shape[1] for shape in shapes) == phases * paper_model.l
    assert len(shapes) == -(-paper_schedule.S // (simnet.LANE_STEPS // 7)) == 3


@pytest.mark.parametrize("lane_steps", [None, 7 * 5])
def test_many_phases_per_block_without_writeback(monkeypatch, lane_steps):
    # 35 phases, 32 of them in the first block of BLOCK steps, one on that
    # block's last row and one at the horizon. With None, 5 * BLOCK matrices
    # per lane, a block of 4 agents is one piece; with 7 steps per piece, some
    # pieces hold no phase and the phases fall on every row position
    monkeypatch.setattr(simnet, "LANE_STEPS", lane_steps or 5 * simnet.BLOCK)
    shapes = _counting_comm_phase(monkeypatch)
    zeta = 16
    horizon = simnet.BLOCK + 3 * zeta
    config = nr.SimConfig(
        model=_model("sinusoid"),
        weights=nr.ring_weights(4),
        schedule=nr.Schedule(zeta=zeta, T=5, S=horizon),
        horizon=horizon,
        runs=2,
        seed=23,
    )
    traces = _assert_matches_oracle(config)
    assert traces[0].comm_fired[simnet.BLOCK - 1]
    assert traces[0].comm_fired[-1]
    if lane_steps is None:
        # one call per block for one run
        shapes.clear()
        simnet._simulate_run(config, 0)
        assert len(shapes) == 2


def _masked_errors(alpha, beta, flags, theta):
    """``_errors`` by its definition: ``inverse`` over the masked copies of
    the invertible lanes, ``pinv`` over the masked copies of the rest. A 2x2
    product is the sum ``a[i, 0] b[0, k] + a[i, 1] b[1, k]`` per entry, whose
    bits, unlike ``@``'s, do not follow the BLAS kernel."""
    est = np.empty_like(alpha)
    for mask, invert in ((flags, inverse), (~flags, np.linalg.pinv)):
        if mask.any():
            a, b = alpha[mask], invert(beta[mask])
            if a.shape[-2:] == b.shape[-2:] == (2, 2):
                est[mask] = (a[..., :, 0, None] * b[..., None, 0, :]
                             + a[..., :, 1, None] * b[..., None, 1, :])
            else:
                est[mask] = a @ b
    return simnet.spectral_norms(est - theta)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("sticky", [True, False])
def test_errors_match_the_masked_reference(n, sticky):
    # one rank-one term per step: lanes turn invertible at different rows,
    # and for n > 1 the first n - 1 rows need pinv in every lane
    rng = np.random.default_rng(11)
    rows, lanes, l = 9, 3, 2
    x = rng.normal(size=(rows, lanes, n))
    x[: n + 1, 0] = x[0, 0]  # lane 0 stays rank one until row n + 1
    if n == 1:
        x[:2, 0] = 0.0  # a 1x1 beta lags only while it is zero
    beta = np.cumsum(x[..., :, None] * x[..., None, :], axis=0)
    alpha = np.cumsum(rng.normal(size=(rows, lanes, l, 1)) * x[..., None, :], axis=0)
    theta = rng.normal(size=(l, n))
    if not sticky:
        # a singular lane after rows that are invertible in every lane, as
        # the mixed sums of the phases in one piece may have
        beta[rows - 3, 1] = np.outer(x[0, 1], x[0, 1]) if n > 1 else 0.0
    flags = full_rank(beta)
    if sticky:
        flags = np.logical_or.accumulate(flags, axis=0)
    assert not flags[0, 0] and flags[-1].all()
    assert flags[rows - 4].all() and flags[rows - 3].all() == sticky

    # the rows of the phase call: the same sums through np.moveaxis, so the
    # operands are not contiguous
    def phase_view(a):
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, 1)), 1, 0)

    assert not phase_view(alpha).flags.c_contiguous
    cases = [
        (alpha, beta, flags),
        (alpha[-2:], beta[-2:], flags[-2:]),  # every lane invertible
        (alpha, beta, np.zeros_like(flags)),  # every lane lagging
        (phase_view(alpha), phase_view(beta), flags),
    ]
    for case in cases:
        assert np.array_equal(simnet._errors(*case, theta), _masked_errors(*case, theta))


# piece sizes the engine is cut by: BLOCK steps per block of draws and
# LANE_STEPS matrices per estimate pass
PIECE_SIZES = st.tuples(st.sampled_from([1, 7, 64, 512]), st.sampled_from([8, 50, 4096]))


@st.composite
def _drawn_configs(draw, agents=st.integers(1, 9)) -> nr.SimConfig:
    """A config of any engine shape (1x1, the 2x2 closed forms and the LAPACK
    shapes) and any mean, with phases anywhere up to the horizon."""
    m, n, l = draw(agents), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mean = draw(st.sampled_from(["zero", "constant", "sinusoid"]))
    horizon = draw(st.integers(1, 600))
    zeta = draw(st.integers(1, min(horizon, 64)))
    S = zeta * draw(st.integers(0, horizon // zeta))
    weights_seed = draw(st.integers(0, 2**32 - 1))
    return nr.SimConfig(
        model=_model(mean, m=m, n=n, l=l),
        weights=random_connected_weights(np.random.default_rng(weights_seed), m),
        schedule=nr.Schedule(zeta=zeta, T=draw(st.integers(1, 40)), S=S),
        horizon=horizon,
        runs=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def _with_pieces(pieces: tuple[int, int], compute):
    """``compute()`` with the engine cut into ``(BLOCK, LANE_STEPS)`` pieces."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet, "BLOCK", pieces[0])
        patch.setattr(simnet, "LANE_STEPS", pieces[1])
        return compute()


@settings(max_examples=15, deadline=None, derandomize=True)
@given(config=_drawn_configs(), pieces=PIECE_SIZES, other_pieces=PIECE_SIZES)
def test_drawn_configs_match_the_oracle(config, pieces, other_pieces):
    traces = _with_pieces(pieces, lambda: _assert_matches_oracle(config))
    others = _with_pieces(other_pieces,
                          lambda: [simnet._simulate_run(config, r) for r in range(config.runs)])
    # the piece sizes do not change a bit of the trace
    for want, got in zip(traces, others):
        for column, values in vars(want).items():
            assert np.array_equal(getattr(got, column), values), column


@settings(max_examples=20, deadline=None, derandomize=True)
@given(config=_drawn_configs(), single=_drawn_configs(agents=st.just(1)))
def test_drawn_configs_keep_the_engine_invariants(config, single):
    # W is doubly stochastic, so a phase leaves the agent-mean of the sums
    # unchanged to rounding
    def conserving(weights, alphas, betas, steps):
        mixed = run_comm_phase(weights, alphas, betas, steps)
        for before, after in zip((alphas, betas), mixed):
            drift = np.abs(after.mean(axis=0) - before.mean(axis=0)).max()
            assert drift <= 1e-12 * np.abs(before).max()
        return mixed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet, "run_comm_phase", conserving)
        for run_index in range(config.runs):
            simnet._simulate_run(config, run_index)
    # one agent communicates with itself: at every phase time its
    # communicated estimate is its local one
    for run_index in range(single.runs):
        trace = simnet._simulate_run(single, run_index)
        fired = trace.comm_fired
        np.testing.assert_allclose(trace.comm_err[fired], trace.local_err[fired],
                                   rtol=RTOL, atol=0)
