"""Weight-matrix validation, mixing phases, and the geometric mixing bound."""

from __future__ import annotations

import numpy as np
import pytest

import netrls as nr

from conftest import random_connected_weights


def ring6_matrix() -> np.ndarray:
    w = np.zeros((6, 6))
    for i in range(6):
        w[i, i] = w[i, (i - 1) % 6] = w[i, (i + 1) % 6] = 1.0 / 3.0
    return w


def test_trivial_single_agent_matrix():
    wm = nr.validate_weights([[1.0]])
    assert wm.rho == 0.0
    assert wm.m == 1


def test_ring_mixing_rate_is_two_thirds():
    # circulant eigenvalues (1 + 2 cos(2 pi k / 6)) / 3; dense eigensolver oracle
    wm = nr.validate_weights(ring6_matrix())
    assert abs(wm.rho - 2.0 / 3.0) <= 1e-10
    ev = np.sort(np.linalg.eigvalsh(ring6_matrix()))
    expected = np.sort([(1.0 + 2.0 * np.cos(2.0 * np.pi * k / 6.0)) / 3.0 for k in range(6)])
    assert np.allclose(ev, expected, atol=1e-12)


def test_ring_generator_matches_reference_matrix():
    assert np.allclose(nr.ring_weights(6).w, ring6_matrix(), atol=1e-15)
    assert np.array_equal(nr.ring_weights(1).w, [[1.0]])
    two = nr.ring_weights(2, self_weight=0.4)
    assert np.allclose(two.w, [[0.4, 0.6], [0.6, 0.4]])


def test_complete_weights_mix_in_one_step():
    wm = nr.complete_weights(4)
    assert wm.rho == pytest.approx(0.0, abs=1e-12)
    assert nr.mixing_deficit(wm, 1) <= 1e-12


def test_validation_clauses_are_distinct():
    with pytest.raises(nr.WeightMatrixError) as e:
        nr.validate_weights(np.eye(3))
    assert e.value.clause == "spectral_gap"

    with pytest.raises(nr.WeightMatrixError) as e:
        nr.validate_weights([[0.5, 0.5], [0.7, 0.3]])
    assert e.value.clause == "symmetric"

    with pytest.raises(nr.WeightMatrixError) as e:
        nr.validate_weights([[1.5, -0.5], [-0.5, 1.5]])
    assert e.value.clause == "nonnegative"
    assert str(e.value) == "negative weight -0.5 at (0, 1)"  # a float, not a numpy repr

    for bad in (float("nan"), float("inf")):
        with pytest.raises(nr.WeightMatrixError) as e:
            nr.validate_weights([[0.5, 0.5], [0.5, bad]])
        assert e.value.clause == "finite"
        assert str(e.value) == f"non-finite weight {bad} at (1, 1)"

    with pytest.raises(nr.WeightMatrixError) as e:
        nr.validate_weights([[0.5, 0.4], [0.4, 0.5]])
    assert e.value.clause == "row_stochastic"
    assert str(e.value) == "row 0 sums to 0.9, expected 1"

    with pytest.raises(nr.WeightMatrixError) as e:
        nr.validate_weights(np.ones((2, 3)))
    assert e.value.clause == "shape"


def test_single_agent_phase_is_identity():
    wm = nr.validate_weights([[1.0]])
    alphas = np.array([[[3.0, 1.0]]])
    betas = np.array([[[2.0, 0.0], [0.0, 2.0]]])
    mixed_a, mixed_b = nr.run_comm_phase(wm, alphas, betas, steps=9)
    assert np.array_equal(mixed_a, alphas)
    assert np.array_equal(mixed_b, betas)


def test_two_agent_complete_mixing_in_one_step():
    wm = nr.complete_weights(2)
    alphas = np.array([[[2.0]], [[6.0]]])
    betas = np.array([[[1.0]], [[3.0]]])
    mixed_a, mixed_b = nr.run_comm_phase(wm, alphas, betas, steps=1)
    assert np.allclose(mixed_a, 4.0)
    assert np.allclose(mixed_b, 2.0)


def test_phase_equals_explicit_matrix_power():
    rng = np.random.default_rng(44)
    wm = random_connected_weights(rng, 7)
    alphas = rng.normal(size=(7, 2, 3))
    betas = rng.normal(size=(7, 3, 3))
    for steps in (1, 5, 17, 64):
        # the definition: synchronous rounds, each reading the previous one
        exp_a, exp_b = alphas, betas
        for _ in range(steps):
            exp_a = np.tensordot(wm.w, exp_a, axes=(1, 0))
            exp_b = np.tensordot(wm.w, exp_b, axes=(1, 0))
        mixed_a, mixed_b = nr.run_comm_phase(wm, alphas, betas, steps)
        assert np.linalg.norm(mixed_a - exp_a) <= 1e-10 * np.linalg.norm(exp_a)
        assert np.linalg.norm(mixed_b - exp_b) <= 1e-10 * np.linalg.norm(exp_b)


def test_phase_preserves_network_average():
    rng = np.random.default_rng(9)
    wm = random_connected_weights(rng, 5)
    alphas = rng.normal(size=(5, 2, 2))
    betas = rng.normal(size=(5, 2, 2))
    ref = alphas.sum(axis=0)
    for steps in range(1, 13):
        mixed_a, _ = nr.run_comm_phase(wm, alphas, betas, steps)
        assert np.linalg.norm(mixed_a.sum(axis=0) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_phase_contracts_toward_average():
    rng = np.random.default_rng(13)
    wm = random_connected_weights(rng, 8)
    alphas = rng.normal(size=(8, 2, 2))
    betas = rng.normal(size=(8, 2, 2))
    avg = alphas.mean(axis=0)
    devs = [np.max(np.linalg.norm(alphas - avg, axis=(1, 2)))]
    for steps in range(1, 26):
        mixed_a, _ = nr.run_comm_phase(wm, alphas, betas, steps)
        devs.append(np.max(np.linalg.norm(mixed_a - avg, axis=(1, 2))))
    for before, after in zip(devs, devs[1:]):
        assert after <= before + 1e-12


def test_phase_deviation_within_geometric_envelope():
    rng = np.random.default_rng(71)
    wm = nr.validate_weights(ring6_matrix())
    alphas = rng.normal(size=(6, 2, 2))
    betas = rng.normal(size=(6, 2, 2))
    steps = 38
    mixed_a, _ = nr.run_comm_phase(wm, alphas, betas, steps)
    avg = alphas.mean(axis=0)
    worst_in = np.max(nr.spectral_norms(alphas))
    envelope = np.sqrt(6.0) * wm.rho**steps * worst_in
    for i in range(6):
        assert np.linalg.norm(mixed_a[i] - avg, 2) <= envelope + 1e-12


def test_phase_rejects_bad_arguments():
    wm = nr.complete_weights(2)
    with pytest.raises(ValueError):
        nr.run_comm_phase(wm, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)), steps=0)
    with pytest.raises(ValueError):
        nr.run_comm_phase(wm, np.zeros((3, 1, 1)), np.zeros((3, 1, 1)), steps=1)


def test_mixing_deficit_values():
    # frozen from the direct matrix-power oracle
    wm2 = nr.complete_weights(2)
    assert nr.mixing_deficit(wm2, 0) == pytest.approx(1.0, rel=1e-12)

    ring = nr.validate_weights(ring6_matrix())
    assert nr.mixing_deficit(ring, 1) == pytest.approx(1.0, rel=1e-12)
    assert nr.mixing_deficit(ring, 1) <= np.sqrt(6.0) * (2.0 / 3.0)


def test_mixing_deficit_shrinks_within_bound():
    rng = np.random.default_rng(2)
    for m in (2, 4, 7, 10):
        wm = random_connected_weights(rng, m)
        previous = None
        for steps in (5, 10, 20):
            d = nr.mixing_deficit(wm, steps)
            assert d <= np.sqrt(m) * wm.rho**steps + 1e-12
            if previous is not None:
                assert d <= previous + 1e-12
            previous = d


def test_comm_estimate_single_agent_equals_local_ratio():
    wm = nr.validate_weights([[1.0]])
    alphas = np.array([[[3.0, 0.0]]])
    betas = np.array([np.diag([2.0, 4.0])])
    mixed_a, mixed_b = nr.run_comm_phase(wm, alphas, betas, 1)
    assert np.allclose(mixed_a[0] @ np.linalg.pinv(mixed_b[0]),
                       alphas[0] @ np.linalg.inv(betas[0]))


def test_comm_estimate_complete_averaging_equals_pooled():
    rng = np.random.default_rng(30)
    m = 5
    wm = nr.complete_weights(m)
    x = rng.normal(size=(m, 40, 3))
    y = rng.normal(size=(m, 40, 2))
    alphas = np.stack([y[i].T @ x[i] for i in range(m)])
    betas = np.stack([x[i].T @ x[i] for i in range(m)])
    mixed_a, mixed_b = nr.run_comm_phase(wm, alphas, betas, steps=1)
    pooled = alphas.sum(axis=0) @ np.linalg.pinv(betas.sum(axis=0))
    for i in range(m):
        est = mixed_a[i] @ np.linalg.pinv(mixed_b[i])
        assert np.linalg.norm(est - pooled, 2) <= 1e-10 * np.linalg.norm(pooled, 2)


def test_random_matrices_are_valid(paper_model):
    rng = np.random.default_rng(100)
    for _ in range(25):
        m = int(rng.integers(1, 11))
        wm = random_connected_weights(rng, m)
        assert 0.0 <= wm.rho < 1.0
        assert np.allclose(wm.w.sum(axis=1), 1.0, atol=1e-12)
