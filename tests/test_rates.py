"""The shape of the paper's rates on the reference ring, measured by simulation.

Past the local bound's burn-in the run-averaged local error falls like
``t**-1/2``, and pooling the ``m * t`` samples of all agents divides it by
``sqrt(m)``. The tolerances are about four standard deviations of each
statistic over seeds 1 to 10 of this setup (slope: mean -0.509, sd 0.014;
ratio: mean 2.462, sd 0.046), measured before the tests were written.

Just after a phase of ``T`` rounds, the run-averaged gap between the
communicated and the pooled error falls like ``rho**(2T)``, not like the
bound's ``rho**T``: averaging over agents cancels the first-order
disagreement. Over seeds 1 to 12 the slope of log(gap) against ``T`` in
{1, 2, 4, 8} had mean -0.805 and sd 0.025 (``2 log rho = -0.811``), so the
tolerance is 0.1; at ``T = 38`` the gap is about 1e-15, the rounding floor.

At the stopping time the planner picks for ``configs/paper.json``, the
communicated error is within ``epsilon`` in at least ``1 - delta`` of the
runs.

The pooled error exceeds the global bound in at most ``delta`` of the runs,
and the bound's slack over the error's empirical ``1 - delta`` quantile is
flat in ``t``. Over seeds 1 to 20 (100 runs, ``t`` in {20, ..., 400}) no run
exceeded the bound, the slack was 44 to 56, and its max/min over ``t`` had
mean 1.12, sd 0.04 and largest 1.22, so the tolerance is 1.3. A bound or
an error off by a factor of ``sqrt(t)`` moves it by 4.5 over those times.

The communicated bound, with the planned ``T = 38`` and phases every 20
steps up to ``t = 800``, holds for the agent-mean communicated error at
``delta_hat`` at each phase time past its burn-in, and its slack over the
error's ``1 - delta`` quantile is flat in ``t``. Over seeds 1 to 30 (100
runs, ``t`` in {140, 160, ..., 800}) no run exceeded the bound, the slack
was 44 to 59, and its max/min over ``t`` had mean 1.18, sd 0.04 and largest
1.29, so the tolerance is 1.35. A bound or an error off by a factor of
``sqrt(t)`` moves it to 2.0 to 2.9.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import netrls as nr
from netrls import simnet
from netrls.config import load_config

HORIZON, RUNS = 500, 100


@pytest.fixture(scope="module")
def past_burn_in():
    model = nr.ModelSpec(theta=[[1.6, 0.3], [0.8, 0.3]], sigma_x=3.0, sigma_eta=1.0, m=6)
    weights = nr.ring_weights(6)
    inputs = nr.BoundInputs.from_model(model, weights, delta=0.05, delta_hat=0.001)
    # no phase: the local and pooled estimates do not depend on the schedule
    config = nr.SimConfig(model=model, weights=weights, schedule=nr.Schedule(zeta=20, T=1, S=0),
                          horizon=HORIZON, runs=RUNS, seed=1008)
    trace = nr.run(config)
    past = trace.t >= nr.local_bound(inputs, HORIZON).valid_from
    return model.m, trace.t[past], trace.local_err[past], trace.global_err[past]


def test_local_error_falls_like_one_over_sqrt_t(past_burn_in):
    _, t, local, _ = past_burn_in
    slope = np.polyfit(np.log(t), np.log(local), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.07)


def test_pooling_divides_the_local_error_by_sqrt_m(past_burn_in):
    m, _, local, pooled = past_burn_in
    assert local.mean() / pooled.mean() == pytest.approx(math.sqrt(m), rel=0.08)


def test_network_gap_falls_like_rho_to_the_2T():
    model = nr.ModelSpec(theta=[[1.6, 0.3], [0.8, 0.3]], sigma_x=3.0, sigma_eta=1.0, m=6)
    weights = nr.ring_weights(6)
    steps = (1, 2, 4, 8, 16, 38)
    gaps = []
    for T in steps:
        # the same draws for every T; the first phase fires at t = 100
        config = nr.SimConfig(model=model, weights=weights,
                              schedule=nr.Schedule(zeta=100, T=T, S=200),
                              horizon=200, runs=40, seed=1008)
        trace = nr.run(config)
        gaps.append(trace.comm_err[99] - trace.global_err[99])
    slope = np.polyfit(steps[:4], np.log(gaps[:4]), 1)[0]
    assert slope == pytest.approx(2 * math.log(weights.rho), abs=0.1)
    assert abs(gaps[-1]) < 1e-12


def test_planned_stopping_time_meets_epsilon_with_confidence_1_minus_delta():
    cfg = load_config(str(Path(__file__).parent.parent / "configs" / "paper.json"))
    planned = nr.plan(cfg.bound_inputs, **cfg.plan)
    assert (planned.T, planned.S) == (38, 1620)
    config = replace(cfg.run, schedule=planned.schedule(), horizon=planned.S, runs=40)
    # the engine keeps no per-agent errors: comm_err is the mean over the
    # agents of each one's communicated error, so this checks the agent mean
    errs = np.array([simnet._simulate_run(config, r).comm_err[planned.S - 1]
                     for r in range(config.runs)])
    assert np.mean(errs <= cfg.plan["epsilon"]) >= 1 - cfg.bound_inputs.delta


def test_global_bound_holds_with_confidence_1_minus_delta_and_a_flat_slack():
    model = nr.ModelSpec(theta=[[1.6, 0.3], [0.8, 0.3]], sigma_x=3.0, sigma_eta=1.0, m=6)
    weights = nr.ring_weights(6)
    inputs = nr.BoundInputs.from_model(model, weights, delta=0.05, delta_hat=0.001)
    config = nr.SimConfig(model=model, weights=weights, schedule=nr.Schedule(zeta=20, T=1, S=0),
                          horizon=400, runs=100, seed=1008)
    # past the global burn-in of 12.5 steps; global_err is per run (the
    # pooled lane), so each run is one draw of the bound's event
    times = np.array([20, 50, 100, 200, 400])
    errs = np.array([simnet._simulate_run(config, r).global_err[times - 1]
                     for r in range(config.runs)])
    bound = nr.global_bound(inputs, times).value
    assert ((errs > bound).sum(axis=0) <= inputs.delta * config.runs).all()
    slack = bound / np.quantile(errs, 1 - inputs.delta, axis=0)
    assert slack.max() / slack.min() < 1.3


def test_comm_bound_holds_with_confidence_1_minus_delta_hat_and_a_flat_slack():
    model = nr.ModelSpec(theta=[[1.6, 0.3], [0.8, 0.3]], sigma_x=3.0, sigma_eta=1.0, m=6)
    weights = nr.ring_weights(6)
    inputs = nr.BoundInputs.from_model(model, weights, delta=0.05, delta_hat=0.001)
    T, t_first = nr.plan_T(inputs, 20, 0.01)
    assert (T, t_first) == (38, 140)
    config = nr.SimConfig(model=model, weights=weights, schedule=nr.Schedule(zeta=20, T=T, S=800),
                          horizon=800, runs=100, seed=1008)
    # the phase times past the delta_hat burn-in; comm_err is the mean over
    # the agents, so each run is one draw of the agent-mean error
    times = np.arange(t_first, config.horizon + 1, 20)
    errs = np.array([simnet._simulate_run(config, r).comm_err[times - 1]
                     for r in range(config.runs)])
    bound = nr.comm_bound(inputs, times, T).value
    assert ((errs > bound).sum(axis=0) <= inputs.delta_hat * config.runs).all()
    slack = bound / np.quantile(errs, 1 - inputs.delta, axis=0)
    assert slack.max() / slack.min() < 1.35
