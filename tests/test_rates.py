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
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace
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
    planned = nr.plan(cfg.bound_inputs, **asdict(cfg.plan))
    assert (planned.T, planned.S) == (38, 1620)
    config = replace(cfg.run, schedule=planned.schedule(), horizon=planned.S, runs=40)
    # the engine keeps no per-agent errors: comm_err is the mean over the
    # agents of each one's communicated error, so this checks the agent mean
    errs = np.array([simnet._simulate_run(config, r).comm_err[planned.S - 1]
                     for r in range(config.runs)])
    assert np.mean(errs <= cfg.plan.epsilon) >= 1 - cfg.bound_inputs.delta
