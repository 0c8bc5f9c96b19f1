"""Simulation loop: schedule semantics, oracle agreement, statistical shape."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netrls as nr
from netrls import simnet

from conftest import reference_model
from stepwise_oracle import SimWorld


def _small_config(**kw) -> nr.SimConfig:
    defaults = dict(
        model=reference_model(),
        weights=nr.ring_weights(6),
        schedule=nr.Schedule(zeta=20, T=38, S=100),
        horizon=120,
        runs=2,
        seed=31,
    )
    defaults.update(kw)
    return nr.SimConfig(**defaults)


def test_single_agent_comm_equals_local():
    model = nr.ModelSpec(theta=[[1.2, -0.5]], sigma_x=1.0, sigma_eta=0.5, m=1)
    config = nr.SimConfig(
        model=model,
        weights=nr.validate_weights([[1.0]]),
        schedule=nr.Schedule(zeta=5, T=3, S=30),
        horizon=30,
        runs=1,
        seed=2,
    )
    world = SimWorld(config)
    for t in range(1, 31):
        fired = world.step()
        assert fired == (t % 5 == 0)
        if fired:
            agent = world.agents[0]
            scale = max(np.linalg.norm(agent.theta_local, 2), 1e-12)
            assert np.linalg.norm(world.theta_comm[0] - agent.theta_local, 2) <= 1e-8 * scale
            assert np.allclose(world.global_estimate(), agent.theta_local, rtol=1e-10)


def test_complete_averaging_matches_pooled_estimator():
    config = _small_config(
        weights=nr.complete_weights(6),
        schedule=nr.Schedule(zeta=10, T=1, S=100),
    )
    world = SimWorld(config)
    for t in range(1, 101):
        if world.step():
            pooled = world.global_estimate()
            scale = max(np.linalg.norm(pooled, 2), 1e-12)
            for comm in world.theta_comm:
                assert np.linalg.norm(comm - pooled, 2) <= 1e-10 * scale


def test_comm_estimate_carries_over_bit_identical():
    config = _small_config(schedule=nr.Schedule(zeta=20, T=38, S=100))
    world = SimWorld(config)
    for _ in range(19):
        world.step()
    assert np.all(world.theta_comm == 0.0)  # no phase has run yet
    world.step()
    frozen = world.theta_comm.copy()
    for t in range(21, 40):
        world.step()
        assert np.array_equal(world.theta_comm, frozen)
    world.step()  # t = 40 fires again
    assert not np.array_equal(world.theta_comm, frozen)


def test_ring_phase_brings_agents_into_agreement():
    config = _small_config(horizon=200, schedule=nr.Schedule(zeta=200, T=38, S=200), runs=1)
    world = SimWorld(config)
    for _ in range(200):
        world.step()
    comms = world.theta_comm
    for i in range(6):
        for j in range(i + 1, 6):
            assert np.linalg.norm(comms[i] - comms[j], 2) <= 1e-4


def test_noiseless_global_estimate_recovers_truth():
    model = nr.ModelSpec(theta=[[1.6, 0.3], [0.8, 0.3]], sigma_x=3.0, sigma_eta=0.0, m=3)
    config = nr.SimConfig(
        model=model,
        weights=nr.complete_weights(3),
        schedule=nr.Schedule(zeta=10, T=1, S=10),
        horizon=10,
        runs=1,
        seed=5,
    )
    world = SimWorld(config)
    for _ in range(10):
        world.step()
    assert np.linalg.norm(world.global_estimate() - model.theta, 2) <= 1e-10
    assert world.pooled_invertible


def test_global_estimate_matches_batch_over_union():
    config = _small_config(runs=1, horizon=500, schedule=nr.Schedule(zeta=20, T=5, S=0))
    world = SimWorld(config, run_index=0)
    for _ in range(500):
        world.step()

    x, y = nr.sample_block(config.model, nr.SeededStream(config.seed), 0, 1, 500)
    x_all = x.reshape(-1, config.model.n)
    y_all = y.reshape(-1, config.model.l)
    batch = np.linalg.lstsq(x_all, y_all, rcond=None)[0].T
    scale = max(np.linalg.norm(batch, 2), 1e-12)
    assert np.linalg.norm(world.global_estimate() - batch, 2) <= 1e-8 * scale


def test_error_decomposition_triangle():
    config = _small_config(runs=1, horizon=40, schedule=nr.Schedule(zeta=20, T=38, S=40))
    world = SimWorld(config)
    for _ in range(40):
        world.step()
    pooled = world.global_estimate()
    theta = config.model.theta
    global_err = np.linalg.norm(pooled - theta, 2)
    for comm in world.theta_comm:
        comm_err = np.linalg.norm(comm - theta, 2)
        mixing = np.linalg.norm(comm - pooled, 2)
        assert comm_err <= mixing + global_err + 1e-12


def test_longer_phase_tightens_agreement():
    def max_mixing_gap(steps: int) -> float:
        config = _small_config(runs=1, horizon=20,
                               schedule=nr.Schedule(zeta=20, T=steps, S=20))
        world = SimWorld(config)
        for _ in range(20):
            world.step()
        pooled = world.global_estimate()
        return max(
            np.linalg.norm(comm - pooled, 2) for comm in world.theta_comm
        )

    # identical data by seed replay; only the phase length changes
    assert max_mixing_gap(8) < max_mixing_gap(2)


def test_run_single_replication_average_is_identity():
    config = _small_config(runs=1)
    trace, averaged = simnet._simulate_run(config, 0), nr.run(config)
    for field in ("local_err", "comm_err", "global_err", "pre_invertible_count"):
        assert np.array_equal(getattr(trace, field), getattr(averaged, field))


def test_run_is_deterministic():
    config = _small_config()
    first = nr.run(config)
    second = nr.run(config)
    for field in ("local_err", "comm_err", "global_err", "pre_invertible_count"):
        assert np.array_equal(getattr(first, field), getattr(second, field))


def test_run_adds_runs_in_index_order():
    # on a horizon of 1 numpy's mean sums 8 or more runs pairwise, and at
    # this seed its local_err differs from the running sum in the last bit
    model = nr.ModelSpec(theta=[[1.6, 0.3], [0.8, 0.3]], sigma_x=3.0, sigma_eta=1.0, m=3)
    config = nr.SimConfig(model=model, weights=nr.ring_weights(3),
                          schedule=nr.Schedule(zeta=10, T=1, S=0),
                          horizon=1, runs=12, seed=5)
    traces = [simnet._simulate_run(config, i) for i in range(config.runs)]
    averaged = nr.run(config)
    for field in ("local_err", "comm_err", "global_err", "pre_invertible_count"):
        total = getattr(traces[0], field).astype(np.float64)
        for trace in traces[1:]:
            total = total + getattr(trace, field)
        assert np.array_equal(getattr(averaged, field), total / config.runs)
    pairwise = np.mean([trace.local_err for trace in traces], axis=0)
    assert not np.array_equal(averaged.local_err, pairwise)


def test_run_memory_does_not_grow_with_runs():
    # 200 runs of 100 steps: holding every run's trace (41 B per step) peaked
    # at about 1.2 MB; one running sum per column peaks at about 86 kB
    model = nr.ModelSpec(theta=[[1.6, 0.3], [0.8, 0.3]], sigma_x=3.0, sigma_eta=1.0, m=1)
    config = nr.SimConfig(model=model, weights=nr.validate_weights([[1.0]]),
                          schedule=nr.Schedule(zeta=10, T=1, S=0),
                          horizon=100, runs=200, seed=3)
    nr.run(dataclasses.replace(config, runs=1))  # the first draw imports scipy
    tracemalloc.start()
    try:
        nr.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400_000


def test_no_command_imports_the_process_pool(tmp_path):
    # a fresh interpreter, so the imports of this test session do not mask it
    configs = Path(__file__).parent.parent / "configs"
    paper, smoke = str(configs / "paper.json"), str(configs / "smoke.json")
    script = f"""
import sys
import netrls, netrls.cli
from netrls.cli import main
assert main(["plan", {paper!r}, "-o", {str(tmp_path / "plan.json")!r}]) == 0
assert main(["bounds", {paper!r}, "--at", "200,400"]) == 0
assert main(["simulate", {smoke!r}, "-o", {str(tmp_path / "trace.csv")!r}]) == 0
print("concurrent.futures.process" in sys.modules, "multiprocessing" in sys.modules)
"""
    src = str(Path(nr.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out[-2:] == ["False", "False"]


def test_trace_flags_and_shapes():
    config = _small_config()
    tr, averaged = simnet._simulate_run(config, 0), nr.run(config)
    assert tr.t[0] == 1 and tr.t[-1] == config.horizon
    expected_fired = [(t % 20 == 0) and t <= 100 for t in tr.t]
    assert np.array_equal(tr.comm_fired, expected_fired)
    # both agents' beta become invertible almost surely after two draws
    assert tr.pre_invertible_count[0] == 6
    assert np.all(tr.pre_invertible_count[2:] == 0)
    assert np.all(averaged.local_err > 0)


@settings(max_examples=60, deadline=None)
@given(zeta=st.integers(1, 30), phases=st.integers(0, 4), tail=st.integers(0, 30),
       writeback=st.booleans())
@example(zeta=20, phases=0, tail=5, writeback=False)
@example(zeta=7, phases=3, tail=0, writeback=True)
def test_phases_fire_by_the_papers_rule(zeta, phases, tail, writeback):
    # S = 0 with no phases, S = horizon with no tail, zeta > horizon when
    # there are no phases and a short tail, as in the first example
    S = phases * zeta
    horizon = max(1, S + tail)
    config = nr.SimConfig(
        model=nr.ModelSpec(theta=[[1.0]], sigma_x=1.0, sigma_eta=0.5, m=2),
        weights=nr.complete_weights(2),
        schedule=nr.Schedule(zeta=zeta, T=1, S=S),
        horizon=horizon,
        runs=1,
        seed=3,
        writeback_mixed=writeback,
    )
    fired = simnet._simulate_run(config, 0).comm_fired
    assert fired.tolist() == [t % zeta == 0 and t <= S for t in range(1, horizon + 1)]


def test_writeback_mixed_replaces_accumulators():
    schedule = nr.Schedule(zeta=10, T=1, S=100)
    weights = nr.complete_weights(6)
    plain = SimWorld(_small_config(runs=1, weights=weights, schedule=schedule))
    mixed = SimWorld(_small_config(runs=1, weights=weights, schedule=schedule,
                                      writeback_mixed=True))
    for _ in range(10):
        plain.step()
        mixed.step()  # t = 10 fires and writes the mixed statistics back

    plain_alphas = np.stack([a.alpha for a in plain.agents])
    mixed_alphas = np.stack([a.alpha for a in mixed.agents])
    # write-back keeps the network total and hands every agent the average
    assert np.allclose(mixed_alphas.sum(axis=0), plain_alphas.sum(axis=0), rtol=1e-10)
    avg = plain_alphas.mean(axis=0)
    for a in mixed_alphas:
        assert np.linalg.norm(a - avg, 2) <= 1e-10 * np.linalg.norm(avg, 2)
    # local recursion continues from the replaced statistics
    assert not np.allclose(mixed_alphas, plain_alphas)


def test_long_horizon_cumulative_sums_stay_accurate():
    # one agent, no phases: the engine's final local error against the error
    # of the estimate built from correctly rounded (math.fsum) running sums
    horizon = 10**5
    model = nr.ModelSpec(theta=[[1.6, 0.3], [0.8, 0.3]], sigma_x=3.0, sigma_eta=1.0, m=1)
    config = nr.SimConfig(model=model, weights=nr.validate_weights([[1.0]]),
                          schedule=nr.Schedule(zeta=10, T=1, S=0),
                          horizon=horizon, runs=1, seed=23)
    averaged = nr.run(config)
    x, y = (a[:, 0] for a in nr.sample_block(model, nr.SeededStream(config.seed), 0, 1, horizon))
    alpha = np.array([[math.fsum(y[:, i] * x[:, j]) for j in range(model.n)]
                      for i in range(model.l)])
    beta = np.array([[math.fsum(x[:, i] * x[:, j]) for j in range(model.n)]
                     for i in range(model.n)])
    exact = np.linalg.norm(alpha @ np.linalg.inv(beta) - model.theta, 2)
    assert averaged.local_err[-1] == pytest.approx(exact, rel=1e-10, abs=0)


def test_config_validation():
    with pytest.raises(ValueError, match="stopping time"):
        _small_config(horizon=80)  # S = 100 > horizon
    with pytest.raises(ValueError):
        _small_config(runs=0)
    with pytest.raises(ValueError):
        _small_config(weights=nr.ring_weights(5))


def test_reference_trace_statistics(paper_sim):
    _, averaged, _ = paper_sim
    t = averaged.t

    # communicated estimate tracks the pooled oracle at communication times
    fired = averaged.comm_fired & (t >= 200)
    rel = np.abs(averaged.comm_err[fired] - averaged.global_err[fired])
    assert np.all(rel <= 0.05 * averaged.global_err[fired])

    # pooled error decays like 1/sqrt(t)
    window = (t >= 200)
    slope = np.polyfit(np.log(t[window]), np.log(averaged.global_err[window]), 1)[0]
    assert -0.6 <= slope <= -0.4

    # pooling all six agents buys roughly sqrt(6)
    at_1000 = int(np.flatnonzero(t == 1000)[0])
    ratio = averaged.local_err[at_1000] / averaged.global_err[at_1000]
    assert 0.7 * np.sqrt(6.0) <= ratio <= 1.3 * np.sqrt(6.0)

    # at the stopping time the communicated estimate is still the better one
    at_stop = int(np.flatnonzero(t == 1620)[0])
    assert averaged.comm_err[at_stop] <= averaged.local_err[at_stop]
