"""Closed-form bound evaluators against high-precision frozen values
and their structural properties (monotonicity, ordering, scaling)."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netrls as nr

# frozen from a 40-digit arbitrary-precision evaluation of the closed forms
T1_AT_005 = 75.02207126582298
T1_AT_0001 = 137.61443935267332
T2_MEAN_AT_005 = 1967.5471084381827  # n = 2, sigma_x = 2, mu_hat = 1
T3_WIDE_AT_005 = 185.73540096034744  # n = 1, l = 30
T3_WIDE_AT_0001 = 428.28082729689250
C1_REF = 437.5307547489853
LOCAL_AT_1620 = 1.207837666500642
GLOBAL_AT_1620 = 0.4930976625067486
LOCAL_AT_400 = 2.4307264152721405
C1_SMALL_REF = 39.19776256889905  # c1
C2_REF = 72.41870198532540
C3_REF = 784.9246248313698
NET_140_38 = 0.007408647202629223
NET_140_37 = 0.011112993763771776
NET_1620_38 = 0.0067022091171698566
TOTAL_1620_38 = 0.49979987162391847
TOTAL_1600_38 = 0.5028739936133553


def _random_inputs(rng: np.random.Generator) -> nr.BoundInputs:
    sx = float(rng.uniform(0.5, 4.0))
    return nr.BoundInputs(
        n=int(rng.integers(1, 5)),
        l=int(rng.integers(1, 4)),
        m=int(rng.integers(1, 9)),
        sigma_x_lower=sx,
        sigma_x_upper=sx * float(rng.uniform(1.0, 1.5)),
        sigma_eta_upper=float(rng.uniform(0.1, 3.0)),
        mu_hat_upper=float(rng.uniform(0.0, 2.0)),
        theta_norm_upper=float(rng.uniform(0.1, 5.0)),
        delta=float(rng.uniform(0.01, 0.3)),
        delta_hat=float(rng.uniform(0.0005, 0.05)),
        rho=float(rng.uniform(0.05, 0.95)),
    )


def test_burn_in_frozen_values(paper_inputs):
    # the paper inputs: t1 = 8n + 16 ln(2/delta) dominates
    assert nr.burn_in(paper_inputs, 0.05) == pytest.approx(T1_AT_005, rel=1e-12)
    assert nr.burn_in(paper_inputs, 0.001) == pytest.approx(T1_AT_0001, rel=1e-12)
    # many outputs per feature: t3 = 2(n+l) ln(1/delta) dominates
    wide = replace(paper_inputs, n=1, l=30)
    assert nr.burn_in(wide, 0.05) == pytest.approx(T3_WIDE_AT_005, rel=1e-12)
    assert nr.burn_in(wide, 0.001) == pytest.approx(T3_WIDE_AT_0001, rel=1e-12)


def test_burn_in_with_nonzero_mean():
    # a feature mean as large as half the feature scale: t2 dominates
    inputs = nr.BoundInputs(
        n=2, l=2, m=3, sigma_x_lower=2.0, sigma_x_upper=2.0, sigma_eta_upper=1.0,
        mu_hat_upper=1.0, theta_norm_upper=1.0, delta=0.05, delta_hat=0.001, rho=0.5,
    )
    assert nr.burn_in(inputs, 0.05) == pytest.approx(T2_MEAN_AT_005, rel=1e-12)


def test_local_bound_frozen_values(paper_inputs):
    assert paper_inputs.C1 == pytest.approx(C1_REF, rel=1e-12)
    rep = nr.local_bound(paper_inputs, 1620)
    assert rep.value == pytest.approx(LOCAL_AT_1620, rel=1e-12)
    assert rep.network_term == 0.0
    assert rep.noise_term == rep.value
    assert rep.valid_from == 76

    assert nr.local_bound(paper_inputs, 400).value == pytest.approx(LOCAL_AT_400, rel=1e-12)


def test_local_bound_below_burn_in_rejected(paper_inputs):
    with pytest.raises(nr.BurnInError) as e:
        nr.local_bound(paper_inputs, 75)
    assert e.value.valid_from == 76


def test_noiseless_bounds_vanish(paper_inputs):
    silent = replace(paper_inputs, sigma_eta_upper=0.0)
    assert nr.local_bound(silent, 200).value == 0.0
    assert nr.global_bound(silent, 200).value == 0.0
    assert nr.comm_bound(silent, 200, 10).noise_term == 0.0


def test_global_bound_frozen_values(paper_inputs):
    rep = nr.global_bound(paper_inputs, 1620)
    assert rep.value == pytest.approx(GLOBAL_AT_1620, rel=1e-12)
    # burn-in divided by the agent count
    assert rep.valid_from == math.ceil(T1_AT_005 / 6.0)

    local = nr.local_bound(paper_inputs, 1620)
    assert rep.value == pytest.approx(local.value / math.sqrt(6.0), rel=1e-12)


def test_global_equals_local_for_single_agent():
    inputs = nr.BoundInputs(
        n=2, l=2, m=1, sigma_x_lower=3.0, sigma_x_upper=3.0, sigma_eta_upper=1.0,
        mu_hat_upper=0.0, theta_norm_upper=1.8, delta=0.05, delta_hat=0.001, rho=0.0,
    )
    assert nr.global_bound(inputs, 300).value == nr.local_bound(inputs, 300).value


def test_comm_bound_frozen_values(paper_inputs):
    assert paper_inputs.c1 == pytest.approx(C1_SMALL_REF, rel=1e-12)
    assert paper_inputs.c2 == pytest.approx(C2_REF, rel=1e-12)
    assert paper_inputs.c3 == pytest.approx(C3_REF, rel=1e-12)
    rep = nr.comm_bound(paper_inputs, 1620, 38)
    assert rep.network_term == pytest.approx(NET_1620_38, rel=1e-12)
    assert rep.noise_term == pytest.approx(GLOBAL_AT_1620, rel=1e-12)
    assert rep.value == pytest.approx(TOTAL_1620_38, rel=1e-12)
    assert rep.valid_from == 138

    assert nr.comm_bound(paper_inputs, 1600, 38).value == pytest.approx(
        TOTAL_1600_38, rel=1e-12
    )
    assert nr.comm_bound(paper_inputs, 140, 38).network_term == pytest.approx(
        NET_140_38, rel=1e-12
    )
    assert nr.comm_bound(paper_inputs, 140, 37).network_term == pytest.approx(
        NET_140_37, rel=1e-12
    )


def test_comm_bound_gates_and_argument_checks(paper_inputs):
    with pytest.raises(nr.BurnInError) as e:
        nr.comm_bound(paper_inputs, 120, 38)
    assert e.value.valid_from == 138
    with pytest.raises(ValueError):
        nr.comm_bound(paper_inputs, 1620, 0)
    with pytest.raises(ValueError):
        nr.local_bound(paper_inputs, 1620, mu_bar_lambda_min=0.5)


def test_every_bound_rejects_mu_bar_lambda_min_below_one(paper_inputs):
    for bound in (nr.local_bound, nr.global_bound,
                  lambda inputs, t, **kw: nr.comm_bound(inputs, t, 38, **kw)):
        with pytest.raises(ValueError, match="lambda_min"):
            bound(paper_inputs, 1620, mu_bar_lambda_min=0.5)


@pytest.mark.parametrize("lam", [1.5, 4.0])
def test_mu_bar_lambda_min_divides_only_the_noise_term(paper_inputs, lam):
    for bound in (nr.local_bound, nr.global_bound,
                  lambda inputs, t, **kw: nr.comm_bound(inputs, t, 38, **kw)):
        base = bound(paper_inputs, 1620)
        scaled = bound(paper_inputs, 1620, mu_bar_lambda_min=lam)
        assert scaled.noise_term == pytest.approx(base.noise_term / lam, rel=1e-14)
        assert scaled.network_term == base.network_term
        assert scaled.valid_from == base.valid_from


def test_comm_noise_term_is_the_global_bound(paper_inputs):
    t = np.arange(138, 3001)
    assert np.array_equal(nr.comm_bound(paper_inputs, t, 38).noise_term,
                          nr.global_bound(paper_inputs, t).value)


@pytest.mark.parametrize("overrides", [
    dict(sigma_x_upper=1e200),  # c1 squares it beyond the float range
    dict(sigma_x_lower=1e-200, sigma_x_upper=1e-200),  # c3 divides by 0.0
    dict(delta=1e-320),  # an infinite burn-in
    dict(theta_norm_upper=1e306),  # an infinite network term
])
def test_inputs_whose_bound_constants_are_not_finite_are_rejected(paper_model, ring6,
                                                                  overrides):
    with pytest.raises(ValueError, match="bound constants are not finite"):
        nr.BoundInputs.from_model(paper_model, ring6, **overrides)


def test_zero_rho_comm_equals_global(paper_model):
    wm = nr.complete_weights(6)
    inputs = nr.BoundInputs.from_model(paper_model, wm, delta=0.05, delta_hat=0.001)
    assert inputs.rho == pytest.approx(0.0, abs=1e-12)
    for t in (200, 1000):
        comm = nr.comm_bound(inputs, t, 1)
        glob = nr.global_bound(inputs, t)
        assert comm.value == pytest.approx(glob.value, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_bounds_decrease_in_time_and_steps(seed):
    inputs = _random_inputs(np.random.default_rng(seed))
    start = max(
        nr.burn_in(inputs, inputs.delta), nr.burn_in(inputs, inputs.delta_hat)
    )
    ts = [math.ceil(start) + 1 + k * 37 for k in range(5)]
    locals_ = [nr.local_bound(inputs, t).value for t in ts]
    globals_ = [nr.global_bound(inputs, t).value for t in ts]
    comms = [nr.comm_bound(inputs, t, 7).value for t in ts]
    for seq in (locals_, globals_, comms):
        assert all(a > b for a, b in zip(seq, seq[1:]))

    in_steps = [nr.comm_bound(inputs, ts[0], T).value for T in (1, 2, 5, 11, 23)]
    assert all(a > b for a, b in zip(in_steps, in_steps[1:]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_comm_dominates_global_and_converges(seed):
    inputs = _random_inputs(np.random.default_rng(seed))
    t = math.ceil(max(
        nr.burn_in(inputs, inputs.delta), nr.burn_in(inputs, inputs.delta_hat)
    )) + 3
    glob = nr.global_bound(inputs, t).value
    assert nr.comm_bound(inputs, t, 3).value >= glob
    # the network term vanishes as the phase length grows
    assert nr.comm_bound(inputs, t, 4000).value == pytest.approx(glob, rel=1e-9)


def test_scaling_structure(paper_inputs):
    # linear in the noise scale (local/global bounds and the comm noise term)
    doubled = replace(paper_inputs, sigma_eta_upper=2.0 * paper_inputs.sigma_eta_upper)
    assert nr.local_bound(doubled, 1620).value == pytest.approx(
        2.0 * nr.local_bound(paper_inputs, 1620).value, rel=1e-12
    )
    assert nr.global_bound(doubled, 1620).value == pytest.approx(
        2.0 * nr.global_bound(paper_inputs, 1620).value, rel=1e-12
    )
    assert nr.comm_bound(doubled, 1620, 38).noise_term == pytest.approx(
        2.0 * nr.comm_bound(paper_inputs, 1620, 38).noise_term, rel=1e-12
    )

    # joint rescaling (sigma_x, sigma_eta, mu_hat) -> kappa * (...) with the
    # parameter norm fixed leaves every bound invariant
    base = nr.BoundInputs(
        n=3, l=2, m=4, sigma_x_lower=1.5, sigma_x_upper=2.0, sigma_eta_upper=0.7,
        mu_hat_upper=0.4, theta_norm_upper=2.2, delta=0.05, delta_hat=0.001, rho=0.6,
    )
    kappa = 3.7
    scaled = replace(
        base,
        sigma_x_lower=kappa * base.sigma_x_lower,
        sigma_x_upper=kappa * base.sigma_x_upper,
        sigma_eta_upper=kappa * base.sigma_eta_upper,
        mu_hat_upper=kappa * base.mu_hat_upper,
    )
    t = math.ceil(max(nr.burn_in(base, base.delta),
                      nr.burn_in(base, base.delta_hat),
                      nr.burn_in(scaled, scaled.delta),
                      nr.burn_in(scaled, scaled.delta_hat))) + 2
    assert nr.local_bound(scaled, t).value == pytest.approx(
        nr.local_bound(base, t).value, rel=1e-10
    )
    assert nr.global_bound(scaled, t).value == pytest.approx(
        nr.global_bound(base, t).value, rel=1e-10
    )
    assert nr.comm_bound(scaled, t, 9).value == pytest.approx(
        nr.comm_bound(base, t, 9).value, rel=1e-10
    )


def test_inputs_validation_and_from_model(paper_model, ring6, paper_inputs):
    with pytest.raises(ValueError, match="^dimensions must be >= 1$"):
        replace(paper_inputs, n=0)
    for delta_hat in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"^delta_hat must be in \(0, 1\)$"):
            replace(paper_inputs, delta_hat=delta_hat)
    with pytest.raises(ValueError):
        nr.BoundInputs(n=2, l=2, m=2, sigma_x_lower=0.0, sigma_x_upper=1.0,
                       sigma_eta_upper=1.0, mu_hat_upper=0.0, theta_norm_upper=1.0,
                       delta=0.05, delta_hat=0.001, rho=0.5)
    with pytest.raises(ValueError):
        nr.BoundInputs(n=2, l=2, m=2, sigma_x_lower=1.0, sigma_x_upper=1.0,
                       sigma_eta_upper=1.0, mu_hat_upper=0.0, theta_norm_upper=1.0,
                       delta=1.5, delta_hat=0.001, rho=0.5)
    with pytest.raises(ValueError):
        nr.BoundInputs(n=2, l=2, m=2, sigma_x_lower=1.0, sigma_x_upper=1.0,
                       sigma_eta_upper=1.0, mu_hat_upper=0.0, theta_norm_upper=1.0,
                       delta=0.05, delta_hat=0.001, rho=1.0)

    inputs = nr.BoundInputs.from_model(paper_model, ring6)
    assert inputs.sigma_x_lower == inputs.sigma_x_upper == 3.0
    assert inputs.theta_norm_upper == pytest.approx(1.833813453515745, rel=1e-12)
    assert inputs.rho == pytest.approx(2.0 / 3.0, abs=1e-12)

    widened = nr.BoundInputs.from_model(paper_model, ring6, sigma_x_upper=4.0, delta=0.1)
    assert widened.sigma_x_upper == 4.0
    assert widened.delta == 0.1


def _sinusoid_inputs() -> nr.BoundInputs:
    """Reference model with oscillating means, so the burn-in's mean term t2 is nonzero."""
    model = nr.ModelSpec(
        theta=[[1.6, 0.3], [0.8, 0.3]], sigma_x=3.0, sigma_eta=1.0, m=6,
        mean=nr.SinusoidMean(amplitudes=[[0.5, 0.0], [0.0, 0.4]] * 3, periods=[50.0] * 6),
    )
    return nr.BoundInputs.from_model(model, nr.ring_weights(6), delta=0.05, delta_hat=0.001)


@pytest.mark.parametrize("which", ["paper", "sinusoid"])
def test_array_times_equal_scalar_calls_exactly(paper_inputs, which):
    inputs = paper_inputs if which == "paper" else _sinusoid_inputs()
    if which == "sinusoid":
        # the mean term t2 sets the burn-in
        assert nr.burn_in(inputs, inputs.delta) > nr.burn_in(paper_inputs, inputs.delta)
    cases = [
        (lambda t: nr.local_bound(inputs, t), inputs.delta, 1),
        (lambda t: nr.global_bound(inputs, t), inputs.delta, inputs.m),
        (lambda t: nr.comm_bound(inputs, t, 1), inputs.delta_hat, 1),
        (lambda t: nr.comm_bound(inputs, t, 38), inputs.delta_hat, 1),
    ]
    for bound, delta, divisor in cases:
        first = max(1, math.ceil(nr.burn_in(inputs, delta) / divisor))
        ts = np.arange(first, first + 3000)
        curve = bound(ts)
        assert curve.valid_from == first
        columns = [np.broadcast_to(getattr(curve, name), ts.shape)
                   for name in ("value", "network_term", "noise_term")]
        for i, t in enumerate(ts):
            point = bound(int(t))
            assert (columns[0][i], columns[1][i], columns[2][i]) == (
                point.value, point.network_term, point.noise_term), t


def test_array_with_one_time_below_burn_in_is_rejected(paper_inputs):
    cases = [
        (lambda t: nr.local_bound(paper_inputs, t), [400, 75, 1620], 76),
        (lambda t: nr.global_bound(paper_inputs, t), [400, 12, 1620], 13),
        (lambda t: nr.comm_bound(paper_inputs, t, 38), [1620, 137, 400], 138),
    ]
    for bound, ts, valid_from in cases:
        with pytest.raises(nr.BurnInError) as e:
            bound(np.array(ts))
        assert e.value.valid_from == valid_from
        assert f"t = {min(ts)} below" in str(e.value)
        assert bound(np.array([t for t in ts if t >= valid_from])).valid_from == valid_from


@pytest.mark.parametrize("bound", ["local", "global", "comm"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, np.array([1620.0, math.nan, 3000.0]),
                               np.array([1620.0, math.inf])],
                         ids=["nan", "inf", "-inf", "array-nan", "array-inf"])
def test_non_finite_times_are_rejected(paper_inputs, bound, t):
    # NaN compares false with the burn-in, and inf would give a 0 bound
    call = {"local": lambda: nr.local_bound(paper_inputs, t),
            "global": lambda: nr.global_bound(paper_inputs, t),
            "comm": lambda: nr.comm_bound(paper_inputs, t, 38)}[bound]
    with pytest.raises(ValueError, match="^t must be finite$"):
        call()


@pytest.mark.parametrize("bound", ["local", "global", "comm"])
@pytest.mark.parametrize("t", [2**70, np.array([1620, 2**70], dtype=object)],
                         ids=["int", "object-array"])
def test_integer_times_beyond_64_bits_are_rejected_naming_t(paper_inputs, bound, t):
    # numpy holds such an int as an object, which it cannot compare or take the sqrt of
    call = {"local": lambda t: nr.local_bound(paper_inputs, t),
            "global": lambda t: nr.global_bound(paper_inputs, t),
            "comm": lambda t: nr.comm_bound(paper_inputs, t, 38)}[bound]
    with pytest.raises(ValueError, match="^t must be a float, an integer that fits in 64 bits"):
        call(t)
    # the same times as floats are valid
    assert np.all(call(np.asarray(t, dtype=float)).value > 0)


def test_empty_array_of_times_gives_empty_bounds(paper_inputs):
    empty = np.array([], dtype=np.int64)
    assert nr.local_bound(paper_inputs, empty).value.shape == (0,)
    assert nr.comm_bound(paper_inputs, empty, 38).network_term.shape == (0,)


def test_global_and_comm_bound_coverage(paper_model, ring6, paper_inputs):
    # the analogue of acceptance criterion 6 for the other two bounds: over
    # 200 runs of the reference setup, the pooled errors exceed the global
    # bound in at most a fraction delta of runs, and the errors after a phase
    # of 38 rounds exceed the communicated bound in at most a fraction
    # delta_hat of (run, agent) pairs
    times, steps, runs, m = (140, 400, 1620), 38, 200, paper_model.m
    theta = paper_model.theta
    # running sums indexed by (run, agent, time)
    alphas = np.empty((runs, m, len(times), paper_model.l, paper_model.n))
    betas = np.empty((runs, m, len(times), paper_model.n, paper_model.n))
    for run in range(runs):
        x_all, y_all = nr.sample_block(paper_model, 777, run, 1, times[-1])
        for agent in range(m):
            x, y = x_all[:, agent], y_all[:, agent]
            for k, t in enumerate(times):
                alphas[run, agent, k] = y[:t].T @ x[:t]
                betas[run, agent, k] = x[:t].T @ x[:t]
    for k, t in enumerate(times):
        a, b = alphas[:, :, k], betas[:, :, k]
        pooled = a.sum(axis=1) @ np.linalg.inv(b.sum(axis=1))
        global_violations = int(np.sum(
            nr.spectral_norms(pooled - theta) > nr.global_bound(paper_inputs, t).value))
        assert global_violations <= paper_inputs.delta * runs, (t, global_violations)

        comm_limit = nr.comm_bound(paper_inputs, t, steps).value
        comm_violations = 0
        for run in range(runs):
            mixed_a, mixed_b = nr.run_comm_phase(ring6, a[run], b[run], steps)
            errors = nr.spectral_norms(mixed_a @ np.linalg.pinv(mixed_b) - theta)
            comm_violations += int(np.sum(errors > comm_limit))
        assert comm_violations <= paper_inputs.delta_hat * runs * m, (t, comm_violations)


def _unit_mean(kind: str, m: int) -> nr.ConstantMean | nr.SinusoidMean:
    angles = 2.0 * np.pi * np.arange(m) / m
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if kind == "constant":
        return nr.ConstantMean(vectors=directions)
    return nr.SinusoidMean(amplitudes=directions, periods=25.0 * 2.0 ** np.arange(m))


@pytest.mark.parametrize("kind", ["constant", "sinusoid"])
def test_bound_coverage_with_nonzero_means(ring6, kind):
    # the reference setup with unit-norm feature means (mu_hat = 1), which
    # lengthen every burn-in: over 200 runs, each bound is checked at the
    # first time past each bound's burn-in and at the planned S. The local
    # and global bounds may fail in a fraction delta of (run, agent) pairs
    # and of runs, the communicated bound in a fraction delta_hat of pairs
    model = nr.ModelSpec(theta=[[1.6, 0.3], [0.8, 0.3]], sigma_x=3.0, sigma_eta=1.0,
                         m=6, mean=_unit_mean(kind, 6))
    inputs = nr.BoundInputs.from_model(model, ring6)
    assert inputs.mu_hat_upper == pytest.approx(1.0)
    planned = nr.plan(inputs, zeta=20, epsilon=0.5, epsilon_N=0.01)
    # S is past every burn-in, so each bound reports its first valid time there
    first = {
        "local": nr.local_bound(inputs, planned.S).valid_from,
        "global": nr.global_bound(inputs, planned.S).valid_from,
        "comm": nr.comm_bound(inputs, planned.S, planned.T).valid_from,
    }
    times = sorted({*first.values(), planned.S})
    runs, m, theta = 200, model.m, model.theta
    # running sums indexed by (run, agent, time)
    alphas = np.empty((runs, m, len(times), model.l, model.n))
    betas = np.empty((runs, m, len(times), model.n, model.n))
    for run in range(runs):
        x_all, y_all = nr.sample_block(model, 777, run, 1, times[-1])
        for agent in range(m):
            x, y = x_all[:, agent], y_all[:, agent]
            for k, t in enumerate(times):
                alphas[run, agent, k] = y[:t].T @ x[:t]
                betas[run, agent, k] = x[:t].T @ x[:t]
    for k, t in enumerate(times):
        a, b = alphas[:, :, k], betas[:, :, k]
        if t >= first["local"]:
            errors = nr.spectral_norms(a @ np.linalg.inv(b) - theta)
            violations = int(np.sum(errors > nr.local_bound(inputs, t).value))
            assert violations <= inputs.delta * runs * m, ("local", t, violations)
        if t >= first["global"]:
            errors = nr.spectral_norms(a.sum(axis=1) @ np.linalg.inv(b.sum(axis=1)) - theta)
            violations = int(np.sum(errors > nr.global_bound(inputs, t).value))
            assert violations <= inputs.delta * runs, ("global", t, violations)
        if t >= first["comm"]:
            # the phase mixes along the agent axis, so agents go first
            mixed_a, mixed_b = nr.run_comm_phase(ring6, a.swapaxes(0, 1), b.swapaxes(0, 1),
                                                 planned.T)
            errors = nr.spectral_norms(mixed_a @ np.linalg.inv(mixed_b) - theta)
            violations = int(np.sum(errors > nr.comm_bound(inputs, t, planned.T).value))
            assert violations <= inputs.delta_hat * runs * m, ("comm", t, violations)
