"""Planner: reference reproduction, minimality, monotone response, edge cases."""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netrls as nr
from netrls import planner
from netrls.config import load_config

ROOT = Path(__file__).parent.parent


def test_reference_plan(paper_inputs):
    T, t_first = nr.plan_T(paper_inputs, zeta=20, epsilon_N=0.01)
    assert T == 38
    assert t_first == 140
    S = nr.plan_S(paper_inputs, zeta=20, T=T, epsilon=0.5)
    assert S == 1620

    result = nr.plan(paper_inputs, zeta=20, epsilon=0.5, epsilon_N=0.01)
    assert (result.T, result.S, result.t_first) == (38, 1620, 140)
    assert result.rho == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_plan_minimality(paper_inputs):
    # one fewer consensus step breaks the network tolerance
    assert nr.comm_bound(paper_inputs, 140, 38).network_term <= 0.01
    assert nr.comm_bound(paper_inputs, 140, 37).network_term > 0.01
    # one period earlier breaks the accuracy target
    assert min(
        nr.local_bound(paper_inputs, 1620).value,
        nr.comm_bound(paper_inputs, 1620, 38).value,
    ) < 0.5
    assert min(
        nr.local_bound(paper_inputs, 1600).value,
        nr.comm_bound(paper_inputs, 1600, 38).value,
    ) >= 0.5


def test_planned_schedule_meets_network_tolerance(paper_inputs):
    result = nr.plan(paper_inputs, zeta=20, epsilon=0.5, epsilon_N=0.01)
    for t in range(result.t_first, result.S + 1, 20):
        assert nr.comm_bound(paper_inputs, t, result.T).network_term <= 0.01


def test_zero_rho_needs_single_step(paper_inputs):
    inputs = replace(paper_inputs, rho=0.0)
    T, _ = nr.plan_T(inputs, zeta=20, epsilon_N=0.01)
    assert T == 1


def test_loose_tolerances_take_first_candidates(paper_inputs):
    T, t_first = nr.plan_T(paper_inputs, zeta=20, epsilon_N=1e9)
    assert T == 1 and t_first == 140
    # huge accuracy target stops at the first admissible communication time
    assert nr.plan_S(paper_inputs, zeta=20, T=38, epsilon=1e9) == 140


def test_noiseless_model_stops_immediately(paper_inputs):
    silent = replace(paper_inputs, sigma_eta_upper=0.0, theta_norm_upper=0.0)
    # all bounds are exactly zero, so the first admissible time wins
    assert nr.plan_S(silent, zeta=20, T=1, epsilon=0.5) == 140


def test_monotone_response(paper_inputs):
    previous_T = 0
    # at 1e-300, rho**T is still a normal float (T = 1730)
    for eps_n in (0.1, 0.05, 0.01, 0.001, 1e-300):
        T, t_first = nr.plan_T(paper_inputs, zeta=20, epsilon_N=eps_n)
        assert (T, t_first) == _scan_T(paper_inputs, 20, eps_n)
        assert T >= previous_T
        previous_T = T

    previous_S = 0
    for eps in (2.0, 1.0, 0.5, 0.4):
        S = nr.plan_S(paper_inputs, zeta=20, T=38, epsilon=eps)
        assert S >= previous_S
        previous_S = S


def test_epsilon_N_set_by_float_underflow_is_rejected(paper_inputs):
    # a scan stops where rho**T underflows to 0.0 (5e-324) or is subnormal
    # (1e-310): underflow, not the bound, sets those T
    for eps_n, T in ((5e-324, 1838), (1e-310, 1787)):
        assert _scan_T(paper_inputs, 20, eps_n)[0] == T
        assert 0.0 <= paper_inputs.rho**T < sys.float_info.min
        with pytest.raises(ValueError, match=f"^epsilon_N needs T = {T} consensus steps"):
            nr.plan_T(paper_inputs, zeta=20, epsilon_N=eps_n)
    # a complete graph mixes in one step at any tolerance
    assert nr.plan_T(replace(paper_inputs, rho=0.0), zeta=20, epsilon_N=5e-324) == (1, 140)


def test_invalid_tolerances_rejected(paper_inputs):
    with pytest.raises(ValueError):
        nr.plan_T(paper_inputs, zeta=20, epsilon_N=0.0)
    with pytest.raises(ValueError):
        nr.plan_S(paper_inputs, zeta=20, T=38, epsilon=-1.0)
    with pytest.raises(ValueError):
        nr.plan_T(paper_inputs, zeta=0, epsilon_N=0.01)
    # a horizon below 1 is a bad input, not a target the bounds miss
    with pytest.raises(ValueError, match="^max_t must be >= 1$"):
        nr.plan_S(paper_inputs, zeta=20, T=38, epsilon=0.5, max_t=0)


def test_unreachable_target_is_reported(paper_inputs):
    # a target below the bounds' reach, and a horizon before the first candidate
    for epsilon, max_t in [(1e-9, 5000), (1e9, 139)]:
        assert _scan_S(paper_inputs, 20, 38, epsilon, max_t) is None
        with pytest.raises(nr.StoppingTimeNotReachable) as e:
            nr.plan_S(paper_inputs, zeta=20, T=38, epsilon=epsilon, max_t=max_t)
        assert e.value.max_t == max_t
        assert e.value.epsilon == epsilon


def test_local_bound_decides_a_target_below_the_communicated_asymptote(paper_inputs):
    # after one consensus step the communicated bound stays above 3e5
    assert nr.comm_bound(paper_inputs, 1e300, 1).value > 1e5
    S = nr.plan_S(paper_inputs, zeta=20, T=1, epsilon=0.5)
    assert S == _scan_S(paper_inputs, 20, 1, 0.5, 10**6) == 9460


def test_times_beyond_64_bits_reach_the_bounds_as_floats(paper_inputs):
    # m * t_first and the burn-in of a huge mean bound exceed 2**64, past
    # which numpy has no integer sqrt
    for inputs, zeta in [(paper_inputs, 2**64 - 1),
                         (replace(paper_inputs, sigma_eta_upper=0.0, theta_norm_upper=0.0,
                                  mu_hat_upper=1e150), 20)]:
        T, t_first = nr.plan_T(inputs, zeta=zeta, epsilon_N=0.01)
        assert inputs.m * t_first > 2**64
        with pytest.raises(nr.StoppingTimeNotReachable):
            nr.plan_S(inputs, zeta=zeta, T=T, epsilon=0.5)


def test_schedule_validation():
    with pytest.raises(ValueError):
        nr.Schedule(zeta=20, T=38, S=1630)  # not a multiple of the period
    with pytest.raises(ValueError):
        nr.Schedule(zeta=0, T=1, S=0)
    with pytest.raises(ValueError):
        nr.Schedule(zeta=5, T=0, S=5)
    with pytest.raises(ValueError, match="^S must be >= 0$"):
        nr.Schedule(zeta=5, T=1, S=-1)


def test_slow_mixing_plans_past_one_hundred_thousand_steps(paper_inputs, monkeypatch):
    counts = _count_bound_calls(monkeypatch)
    for rho, expected in [(0.9999, 151070), (0.99999999, 1510773817)]:
        slow = replace(paper_inputs, rho=rho)
        counts.clear()
        T, t_first = nr.plan_T(slow, zeta=20, epsilon_N=0.01)
        assert T == expected
        assert counts["comm_bound"] <= 2
        assert nr.comm_bound(slow, t_first, T).network_term <= 0.01
        assert nr.comm_bound(slow, t_first, T - 1).network_term > 0.01


# the linear scans the bisecting searches replaced, kept as their oracle
def _scan_T(inputs, zeta, epsilon_N):
    t_first = max(1, math.ceil(nr.burn_in(inputs, inputs.delta_hat) / zeta)) * zeta
    steps = 1
    while nr.comm_bound(inputs, t_first, steps).network_term > epsilon_N:
        steps += 1
    return steps, t_first


def _scan_S(inputs, zeta, T, epsilon, max_t):
    start = max(1, math.ceil(max(nr.burn_in(inputs, inputs.delta),
                                 nr.burn_in(inputs, inputs.delta_hat)) / zeta)) * zeta
    for t in range(start, max_t + 1, zeta):
        if min(nr.local_bound(inputs, t).value, nr.comm_bound(inputs, t, T).value) < epsilon:
            return t
    return None


def _random_case(rng):
    """Random bound inputs, period, tolerances relative to the bounds at the
    first candidates (so both searches end anywhere from that candidate to
    hundreds of steps on) and a horizon ``max_t`` around the stopping time."""
    sx = float(rng.uniform(0.5, 4.0))
    inputs = nr.BoundInputs(
        n=int(rng.integers(1, 5)),
        l=int(rng.integers(1, 4)),
        m=int(rng.integers(1, 65)),
        sigma_x_lower=sx,
        sigma_x_upper=sx * float(rng.uniform(1.0, 1.5)),
        sigma_eta_upper=0.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 3.0)),
        mu_hat_upper=0.0 if rng.random() < 0.4 else float(rng.uniform(0.01, 2.0)),
        theta_norm_upper=float(rng.uniform(0.1, 5.0)),
        delta=float(rng.uniform(0.01, 0.3)),
        delta_hat=float(rng.uniform(0.0005, 0.05)),
        rho=0.0 if rng.random() < 0.2 else float(rng.uniform(0.01, 0.995)),
    )
    zeta = int(rng.integers(1, 61))
    t_first = _scan_T(inputs, zeta, math.inf)[1]
    epsilon_N = 10.0 ** rng.uniform(-6.0, 0.3) * nr.comm_bound(inputs, t_first, 1).network_term
    T = _scan_T(inputs, zeta, epsilon_N)[0]
    start = _scan_S(inputs, zeta, T, math.inf, 10**9)
    epsilon = 10.0 ** rng.uniform(-1.3, 0.2) * min(nr.local_bound(inputs, start).value,
                                                   nr.comm_bound(inputs, start, T).value)
    max_t = start + int(rng.integers(-1, 301)) * zeta
    return inputs, zeta, epsilon_N or 1.0, epsilon or 1.0, max_t


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_bisection_matches_linear_scan(seed):
    inputs, zeta, epsilon_N, epsilon, max_t = _random_case(np.random.default_rng(seed))
    T, t_first = nr.plan_T(inputs, zeta, epsilon_N)
    assert (T, t_first) == _scan_T(inputs, zeta, epsilon_N)

    S = _scan_S(inputs, zeta, T, epsilon, max_t)
    if S is None:
        with pytest.raises(nr.StoppingTimeNotReachable) as e:
            nr.plan_S(inputs, zeta, T, epsilon, max_t=max_t)
        assert e.value.max_t == max_t
    else:
        assert nr.plan_S(inputs, zeta, T, epsilon, max_t=max_t) == S
        # a horizon ending at S still reaches it; one step shorter does not
        assert nr.plan_S(inputs, zeta, T, epsilon, max_t=S) == S
        with pytest.raises(nr.StoppingTimeNotReachable):
            nr.plan_S(inputs, zeta, T, epsilon, max_t=S - 1)


def _count_bound_calls(monkeypatch) -> Counter:
    """Counts the planner's calls of ``comm_bound`` and ``local_bound``."""
    counts = Counter()
    for name in ("comm_bound", "local_bound"):
        def counted(*args, _bound=getattr(planner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _bound(*args, **kwargs)
        monkeypatch.setattr(planner, name, counted)
    return counts


def _plan_cases():
    for path in [ROOT / "configs" / "paper.json",
                 *sorted((ROOT / "tests" / "data").glob("golden_plan_*.json"))]:
        if not path.stem.endswith("_result"):
            cfg = load_config(path)
            yield path.name, cfg.bound_inputs, cfg.plan
    for seed in range(40):
        inputs, zeta, epsilon_N, epsilon, max_t = _random_case(np.random.default_rng(seed))
        yield seed, inputs, dict(zeta=zeta, epsilon=epsilon, epsilon_N=epsilon_N, max_t=max_t)


def test_searches_start_at_the_closed_form_answers(monkeypatch):
    # the bounds' inverses put each search on its answer, which it confirms
    # with at most two evaluations: a bound changed without its inverse
    # fails here on the count while T and S stay right
    cases = list(_plan_cases())
    counts = _count_bound_calls(monkeypatch)
    for name, inputs, plan in cases:
        counts.clear()
        T, _ = nr.plan_T(inputs, plan["zeta"], plan["epsilon_N"])
        assert counts["local_bound"] == 0 and counts["comm_bound"] <= 2, name
        counts.clear()
        try:
            nr.plan_S(inputs, plan["zeta"], T, plan["epsilon"], max_t=plan["max_t"])
        except nr.StoppingTimeNotReachable:
            pass
        # each predicate call evaluates both bounds once
        assert counts["local_bound"] == counts["comm_bound"] <= 2, name


@settings(max_examples=300, deadline=None)
@given(a=st.integers(0, 300),
       last=st.one_of(st.integers(-1, 300), st.just(math.inf)),
       guess=st.one_of(st.none(), st.integers(-400, 400),
                       st.integers(10**6 - 300, 10**6 + 300)))
def test_seeded_search_returns_the_scan_answer(a, last, guess):
    """``_first_true`` from any guess (None: the exact one) returns the
    first ``k >= a`` in ``0..last`` and asks only about that range."""
    calls = []

    def at_least_a(k):
        assert 0 <= k <= last
        calls.append(k)
        return k >= a

    exact = guess is None
    found = planner._first_true(at_least_a, a if exact else guess, last)
    assert found == (a if a <= last else None)
    if exact and a <= last:
        assert len(calls) <= 2
