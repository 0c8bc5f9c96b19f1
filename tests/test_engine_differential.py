"""The batched engine against the stepwise ``AgentState`` oracle.

Error columns must agree to 1e-9 relative; the communication flags and the
pre-invertible counts must match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

import netrls as nr
from netrls import simnet
from netrls.consensus import run_comm_phase
from netrls.local_estimator import full_rank, inverse

from conftest import reference_model
from stepwise_oracle import simulate_run

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


@pytest.mark.parametrize("writeback", [False, True])
@pytest.mark.parametrize("mean", ["zero", "constant", "sinusoid"])
def test_mean_schedules_and_writeback(mean, writeback):
    config = nr.SimConfig(
        model=_model(mean),
        weights=nr.ring_weights(4),
        schedule=nr.Schedule(zeta=10, T=4, S=150),
        horizon=200,
        runs=2,
        seed=17,
        writeback_mixed=writeback,
    )
    _assert_matches_oracle(config)


@pytest.mark.parametrize("writeback", [False, True])
def test_single_agent(writeback):
    model = nr.ModelSpec(theta=[[1.2, -0.5]], sigma_x=1.0, sigma_eta=0.5, m=1)
    config = nr.SimConfig(
        model=model,
        weights=nr.validate_weights([[1.0]]),
        schedule=nr.Schedule(zeta=5, T=3, S=60),
        horizon=80,
        runs=2,
        seed=2,
        writeback_mixed=writeback,
    )
    _assert_matches_oracle(config)


@pytest.mark.parametrize("writeback", [False, True])
def test_four_features_start_on_pinv(writeback):
    # one rank-one term per step leaves beta singular for the first n - 1
    # steps; with write-back, the phase at t = 2 averages three rank-two sums
    # into full-rank ones, so every agent turns invertible at the phase
    config = nr.SimConfig(
        model=_model("zero", m=3, n=4, l=3),
        weights=nr.complete_weights(3),
        schedule=nr.Schedule(zeta=2, T=2, S=40),
        horizon=60,
        runs=3,
        seed=8,
        writeback_mixed=writeback,
    )
    traces = _assert_matches_oracle(config)
    expected = [3, 0, 0, 0] if writeback else [3, 3, 3, 0]
    assert traces[0].pre_invertible_count[:4].tolist() == expected


def test_invertibility_is_sticky_like_agent_state(monkeypatch):
    # beta = I passes the rank test at step 2; the third term makes it
    # ill-conditioned enough to fail it, but the agent stays invertible
    x_rows = np.array([[1.0, 0.0], [0.0, 1.0], [1e6, 0.0], [0.5, 0.5]])
    state = nr.AgentState(2, 1)
    expected = []
    for x in x_rows:
        state.ingest(x, np.zeros(1))
        expected.append(not state.pre_invertible)
    outer = x_rows[:, :, None] * x_rows[:, None, :]
    betas = np.cumsum(outer, axis=0)
    assert expected == [False, True, True, True]
    assert not full_rank(betas[2])

    # the engine sees the same rows at two agents, with no phase in the horizon
    def rows(config, stream, run_index, t_start, count):
        steps = slice(t_start - 1, t_start - 1 + count)
        return (np.zeros((count, 2, 1, 2)),
                np.repeat(outer[steps, None], 2, axis=1))

    monkeypatch.setattr(simnet, "_block_increments", rows)
    config = nr.SimConfig(
        model=nr.ModelSpec(theta=[[1.0, 2.0]], sigma_x=1.0, sigma_eta=0.0, m=2),
        weights=nr.complete_weights(2),
        schedule=nr.Schedule(zeta=10, T=1, S=0),
        horizon=4,
        runs=1,
        seed=0,
    )
    trace = simnet._simulate_run(config, 0)
    assert trace.pre_invertible_count.tolist() == [2, 0, 0, 0]


@pytest.mark.parametrize("writeback", [False, True])
def test_horizon_longer_than_one_block(writeback):
    # phases at every multiple of BLOCK / 4, so one falls on the block
    # boundary, and the last one at the horizon itself
    zeta = simnet.BLOCK // 4
    horizon = simnet.BLOCK + 2 * zeta
    config = nr.SimConfig(
        model=reference_model(),
        weights=nr.ring_weights(6),
        schedule=nr.Schedule(zeta=zeta, T=38, S=horizon),
        horizon=horizon,
        runs=1,
        seed=1008,
        writeback_mixed=writeback,
    )
    traces = _assert_matches_oracle(config)
    assert traces[0].comm_fired[simnet.BLOCK - 1]
    assert traces[0].comm_fired[-1]


def test_results_do_not_depend_on_block_length(monkeypatch):
    config = nr.SimConfig(
        model=_model("sinusoid", m=3),
        weights=nr.complete_weights(3),
        schedule=nr.Schedule(zeta=6, T=1, S=48),
        horizon=50,
        runs=2,
        seed=5,
        writeback_mixed=True,
    )
    reference = [simnet._simulate_run(config, r) for r in range(config.runs)]
    for block in (1, 6, 7):
        monkeypatch.setattr(simnet, "BLOCK", block)
        traces = _assert_matches_oracle(config)
        for got, want in zip(traces, reference):
            for column in ERROR_COLUMNS + ("pre_invertible_count",):
                assert np.array_equal(getattr(got, column), getattr(want, column))


def _counting_comm_phase(monkeypatch) -> list[tuple[int, ...]]:
    """Record the operand shape of every ``run_comm_phase`` call the engine makes."""
    shapes = []

    def counted(weights, alphas, betas, steps):
        shapes.append(alphas.shape)
        return run_comm_phase(weights, alphas, betas, steps)

    monkeypatch.setattr(simnet, "run_comm_phase", counted)
    return shapes


@pytest.mark.parametrize("writeback", [False, True])
def test_one_comm_product_per_block_or_per_writeback_phase(monkeypatch, paper_model, ring6,
                                                            paper_schedule, writeback):
    # one run of configs/paper.json: 81 phases (t = 20, ..., 1620) in the
    # first four blocks of 512 steps
    shapes = _counting_comm_phase(monkeypatch)
    config = nr.SimConfig(model=paper_model, weights=ring6, schedule=paper_schedule,
                          horizon=3000, runs=1, seed=1008, writeback_mixed=writeback)
    trace = simnet._simulate_run(config, 0)
    phases = int(trace.comm_fired.sum())
    assert phases == 81
    # the operand stays (m, k * l, n), which the benchmark's tracer unpacks
    assert all(len(shape) == 3 and shape[0] == 6 for shape in shapes)
    assert sum(shape[1] for shape in shapes) == phases * paper_model.l
    if writeback:
        assert len(shapes) == phases
    else:
        assert len(shapes) == -(-paper_schedule.S // simnet.BLOCK) == 4


@pytest.mark.parametrize("lane_steps", [None, 7 * 5])
def test_many_phases_per_block_without_writeback(monkeypatch, lane_steps):
    # 35 phases, 32 of them in the first block, one on that block's last row
    # and one at the horizon; with 7 steps per piece, some pieces hold no phase and the
    # phases fall on every row position
    if lane_steps is not None:
        monkeypatch.setattr(simnet, "LANE_STEPS", lane_steps)
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
    the invertible lanes, ``pinv`` over the masked copies of the rest."""
    est = np.empty_like(alpha)
    for mask, invert in ((flags, inverse), (~flags, np.linalg.pinv)):
        if mask.any():
            est[mask] = alpha[mask] @ invert(beta[mask])
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
