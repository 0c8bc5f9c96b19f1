"""Simulation loop: schedule semantics, oracle agreement, statistical shape."""

from __future__ import annotations

import numpy as np
import pytest

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
            assert np.linalg.norm(agent.theta_comm - agent.theta_local, 2) <= 1e-8 * scale
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
            for agent in world.agents:
                assert np.linalg.norm(agent.theta_comm - pooled, 2) <= 1e-10 * scale


def test_comm_estimate_carries_over_bit_identical():
    config = _small_config(schedule=nr.Schedule(zeta=20, T=38, S=100))
    world = SimWorld(config)
    for _ in range(20):
        world.step()
    frozen = [a.theta_comm.copy() for a in world.agents]
    for t in range(21, 40):
        world.step()
        for agent, ref in zip(world.agents, frozen):
            assert np.array_equal(agent.theta_comm, ref)
    world.step()  # t = 40 fires again
    assert any(
        not np.array_equal(agent.theta_comm, ref)
        for agent, ref in zip(world.agents, frozen)
    )


def test_ring_phase_brings_agents_into_agreement():
    config = _small_config(horizon=200, schedule=nr.Schedule(zeta=200, T=38, S=200), runs=1)
    world = SimWorld(config)
    for _ in range(200):
        world.step()
    comms = np.stack([a.theta_comm for a in world.agents])
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

    stream = nr.SeededStream(config.seed)
    xs, ys = [], []
    for i in range(6):
        x, y = nr.sample_block(config.model, stream, 0, i, 1, 500)
        xs.append(x)
        ys.append(y)
    x_all = np.concatenate(xs)
    y_all = np.concatenate(ys)
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
    for agent in world.agents:
        comm_err = np.linalg.norm(agent.theta_comm - theta, 2)
        mixing = np.linalg.norm(agent.theta_comm - pooled, 2)
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
            np.linalg.norm(a.theta_comm - pooled, 2) for a in world.agents
        )

    # identical data by seed replay; only the phase length changes
    assert max_mixing_gap(8) < max_mixing_gap(2)


def test_run_single_replication_average_is_identity():
    config = _small_config(runs=1)
    traces, averaged = nr.run(config)
    assert len(traces) == 1
    assert np.array_equal(traces[0].local_err, averaged.local_err)
    assert np.array_equal(traces[0].comm_err, averaged.comm_err)
    assert np.array_equal(traces[0].global_err, averaged.global_err)


def test_run_is_deterministic():
    config = _small_config()
    _, first = nr.run(config)
    _, second = nr.run(config)
    for field in ("local_err", "comm_err", "global_err", "pre_invertible_count"):
        assert np.array_equal(getattr(first, field), getattr(second, field))


def test_parallel_runs_match_serial():
    config = _small_config(runs=3, horizon=60, schedule=nr.Schedule(zeta=20, T=5, S=60))
    _, serial = nr.run(config, parallel=1)
    _, parallel = nr.run(config, parallel=3)
    assert np.array_equal(serial.local_err, parallel.local_err)
    assert np.array_equal(serial.global_err, parallel.global_err)


def test_process_pool_capped_at_runs(monkeypatch):
    asked = []

    class SerialPool:
        """Records the worker count and maps in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simnet, "ProcessPoolExecutor", SerialPool)
    config = _small_config(runs=2, horizon=60, schedule=nr.Schedule(zeta=20, T=5, S=60))
    traces, averaged = nr.run(config, parallel=8)
    assert asked == [2]
    serial, serial_averaged = nr.run(config, parallel=1)
    assert asked == [2]
    for got, want in zip(traces + [averaged], serial + [serial_averaged]):
        for field in ("local_err", "comm_err", "global_err", "pre_invertible_count"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def test_trace_flags_and_shapes():
    config = _small_config()
    traces, averaged = nr.run(config)
    tr = traces[0]
    assert tr.t[0] == 1 and tr.t[-1] == config.horizon
    expected_fired = [(t % 20 == 0) and t <= 100 for t in tr.t]
    assert np.array_equal(tr.comm_fired, expected_fired)
    # both agents' beta become invertible almost surely after two draws
    assert tr.pre_invertible_count[0] == 6
    assert np.all(tr.pre_invertible_count[2:] == 0)
    assert np.all(averaged.local_err > 0)


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


def test_config_validation():
    with pytest.raises(ValueError, match="stopping time"):
        _small_config(horizon=80)  # S = 100 > horizon
    with pytest.raises(ValueError):
        _small_config(runs=0)
    with pytest.raises(ValueError):
        _small_config(weights=nr.ring_weights(5))


def test_reference_trace_statistics(paper_sim):
    _, _, averaged, _ = paper_sim
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
