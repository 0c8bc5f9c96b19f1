"""The batched engine against the stepwise ``AgentState`` oracle.

Error columns must agree to 1e-9 relative; the communication flags and the
pre-invertible counts must match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

import netrls as nr
from netrls import simnet
from netrls.local_estimator import full_rank

from conftest import reference_model
from stepwise_oracle import simulate_run

RTOL = 1e-9
ERROR_COLUMNS = ("local_err", "comm_err", "global_err")


def _assert_matches_oracle(config: nr.SimConfig) -> list[nr.ErrorTrace]:
    traces, averaged = nr.run(config)
    assert len(traces) == config.runs
    for run_index, trace in enumerate(traces):
        ref = simulate_run(config, run_index)
        assert np.array_equal(trace.t, ref.t)
        assert np.array_equal(trace.comm_fired, ref.comm_fired)
        assert np.array_equal(trace.pre_invertible_count, ref.pre_invertible_count)
        for column in ERROR_COLUMNS:
            got, want = getattr(trace, column), getattr(ref, column)
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
            assert rel.max() <= RTOL, f"run {run_index} {column}: max rel {rel.max():.2e}"
    for column in ERROR_COLUMNS:
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
    reference, _ = nr.run(config)
    for block in (1, 6, 7):
        monkeypatch.setattr(simnet, "BLOCK", block)
        traces = _assert_matches_oracle(config)
        for got, want in zip(traces, reference):
            for column in ERROR_COLUMNS + ("pre_invertible_count",):
                assert np.array_equal(getattr(got, column), getattr(want, column))
