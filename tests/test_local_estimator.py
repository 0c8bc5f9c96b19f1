"""Streaming estimator: the estimate from the sums, batch equivalence, PSD growth;
the 2x2 kernels against LAPACK."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netrls as nr
from netrls.local_estimator import RANK_TOL, full_rank, inverse

EPS = np.finfo(float).eps


def _rotated(singular_values, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    rotation = np.array([[c, -s], [s, c]])
    return rotation @ np.diag(singular_values) @ rotation.T


def _svd(a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(a, compute_uv=False)


def _stream_state(x_rows: np.ndarray, y_rows: np.ndarray) -> nr.AgentState:
    state = nr.AgentState(x_rows.shape[1], y_rows.shape[1])
    for x, y in zip(x_rows, y_rows):
        state.ingest(x, y)
    return state


def test_init_agent_zero_state():
    for n, l in [(2, 2), (1, 1), (3, 1)]:
        state = nr.AgentState(n, l)
        assert state.alpha.shape == (l, n) and np.all(state.alpha == 0.0)
        assert state.beta.shape == (n, n) and np.all(state.beta == 0.0)
        # pinv(0) = 0, so the estimate is the zero matrix
        assert np.all(state.theta_local == 0.0)
        assert np.all(state.theta_comm == 0.0)
        assert state.pre_invertible


def test_single_pair_closed_form():
    state = nr.AgentState(1, 1)
    state.ingest(np.array([2.0]), np.array([3.0]))
    assert state.theta_local[0, 0] == pytest.approx(1.5, rel=1e-14)


def test_noiseless_stream_interpolates():
    rng = np.random.default_rng(8)
    theta = rng.normal(size=(2, 3))
    x_rows = rng.normal(size=(3, 3))
    state = nr.AgentState(3, 2)
    for x in x_rows:
        state.ingest(x, theta @ x)
    assert not state.pre_invertible
    assert np.linalg.norm(state.theta_local - theta, 2) <= 1e-10


def test_pre_invertibility_uses_pseudoinverse():
    state = nr.AgentState(2, 1)
    state.ingest(np.array([1.0, 0.0]), np.array([2.0]))
    assert state.pre_invertible
    assert np.allclose(state.theta_local, state.alpha @ np.linalg.pinv(state.beta))
    state.ingest(np.array([0.0, 1.0]), np.array([5.0]))
    assert not state.pre_invertible


def test_local_estimate_matches_direct_solve():
    rng = np.random.default_rng(21)
    x_rows = rng.normal(size=(40, 3))
    y_rows = rng.normal(size=(40, 2))
    state = _stream_state(x_rows, y_rows)
    direct = np.linalg.solve(state.beta, state.alpha.T).T
    assert np.linalg.norm(state.theta_local - direct, 2) <= 1e-10 * np.linalg.norm(direct, 2)


def test_estimate_is_computed_from_the_sums():
    # pinv while beta is rank deficient, inv from the step it passes the rank
    # test on, bit for bit, and the rank test again after a replacement
    rng = np.random.default_rng(22)
    state = nr.AgentState(3, 2)
    flags = []
    for _ in range(30):
        state.ingest(rng.normal(size=3), rng.normal(size=2))
        invert = np.linalg.pinv if state.pre_invertible else np.linalg.inv
        assert np.array_equal(state.theta_local, state.alpha @ invert(state.beta))
        flags.append(state.invertible)
    assert flags == [False, False] + [True] * 28
    singular = np.diag([1.0, 1.0, 0.0])
    state.replace_statistics(state.alpha, singular)
    assert state.pre_invertible
    assert np.array_equal(state.theta_local, state.alpha @ np.linalg.pinv(singular))
    state.replace_statistics(2 * state.alpha, np.eye(3))
    assert state.invertible
    assert np.array_equal(state.theta_local, state.alpha)
    with pytest.raises(ValueError, match="mismatched"):
        state.replace_statistics(state.alpha, np.eye(2))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    l=st.integers(min_value=1, max_value=3),
    steps=st.integers(min_value=5, max_value=120),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_stream_equals_batch(n, l, steps, seed):
    rng = np.random.default_rng(seed)
    x_rows = rng.normal(size=(steps, n))
    y_rows = rng.normal(size=(steps, l))
    state = _stream_state(x_rows, y_rows)

    assert np.allclose(state.alpha, y_rows.T @ x_rows, rtol=1e-8 * steps, atol=1e-12)
    assert np.allclose(state.beta, x_rows.T @ x_rows, rtol=1e-8 * steps, atol=1e-12)
    if steps >= n:
        batch = np.linalg.lstsq(x_rows, y_rows, rcond=None)[0].T
        scale = max(np.linalg.norm(batch, 2), 1e-12)
        assert np.linalg.norm(state.theta_local - batch, 2) <= 1e-8 * steps * scale


def test_smallest_eigenvalue_never_decreases():
    rng = np.random.default_rng(17)
    state = nr.AgentState(4, 2)
    previous = 0.0
    for _ in range(150):
        state.ingest(rng.normal(size=4), rng.normal(size=2))
        smallest = float(np.linalg.eigvalsh(state.beta)[0])
        assert smallest >= previous - 1e-10 * max(1.0, abs(previous))
        previous = smallest


def test_dimension_mismatch_rejected():
    state = nr.AgentState(2, 1)
    with pytest.raises(ValueError, match="feature"):
        state.ingest(np.zeros(3), np.zeros(1))
    with pytest.raises(ValueError, match="label"):
        state.ingest(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        nr.AgentState(0, 1)


def test_spectral_norms_match_svd_on_2x2():
    rng = np.random.default_rng(11)
    scales = 10.0 ** rng.uniform(-300, 300, size=(4000, 1, 1))
    special = np.array([
        np.zeros((2, 2)),
        np.outer([1.0, -2.0], [3.0, 0.5]),        # rank one
        7.5 * _rotated([1.0, 1.0], 0.3),          # equal singular values
        np.diag([1e-300, 1e300]),
    ])
    a = np.concatenate([rng.normal(size=(4000, 2, 2)) * scales, special])
    want = _svd(a)[:, 0]
    got = nr.spectral_norms(a)
    assert np.all(np.abs(got - want) <= 8 * EPS * want)
    assert got[-4] == 0.0 and got[-1] == 1e300
    # stacked like the engine's (steps, agents, l, n) errors
    assert np.array_equal(nr.spectral_norms(a[:4000].reshape(100, 40, 2, 2)),
                          got[:4000].reshape(100, 40))
    # other shapes keep the SVD
    for shape in ((50, 1, 1), (50, 1, 2), (50, 3, 2), (50, 3, 3)):
        b = rng.normal(size=shape)
        assert np.array_equal(nr.spectral_norms(b), _svd(b)[:, 0])


def test_full_rank_matches_svd_definition_on_2x2():
    rng = np.random.default_rng(12)
    betas = [np.zeros((2, 2)), np.outer([1.0, 2.0], [1.0, 2.0]), np.eye(2)]
    for angle in (0.0, 0.4, 2.0):
        for factor in (1 - 1e-3, 1 + 1e-3):
            betas.append(_rotated([1.0, 1e-8 * factor], angle))
    x = rng.normal(size=(500, 3, 2))
    # general matrices too, half of them with a negative determinant
    beta = np.concatenate([np.array(betas), np.swapaxes(x, 1, 2) @ x,
                           rng.normal(size=(500, 2, 2))])
    sv = _svd(beta)
    want = (sv[:, 0] > 0) & (sv[:, -1] > RANK_TOL * sv[:, 0])
    assert np.array_equal(full_rank(beta), want)
    assert full_rank(beta[:3]).tolist() == [False, False, True]
    # rotated diag(1, 1e-8 (1 -+ 1e-3)): below, then above the tolerance
    assert full_rank(beta[3:9]).tolist() == [False, True] * 3


def test_inverse_matches_lapack():
    rng = np.random.default_rng(13)
    for n in (2, 1, 3):
        x = rng.normal(size=(300, 4 * n, n))
        beta = np.swapaxes(x, 1, 2) @ x
        if n == 2:
            # and non-symmetric ones, where adj(beta) is not its own transpose
            beta = np.concatenate([beta, 4 * np.eye(2) + rng.uniform(-1, 1, size=(300, 2, 2))])
        want = np.linalg.inv(beta)
        if n == 2:
            assert np.max(np.linalg.cond(beta)) < 1e3
            err = np.abs(inverse(beta) - want).max(axis=(1, 2))
            assert np.all(err <= 1e-12 * np.abs(want).max(axis=(1, 2)))
        else:
            assert np.array_equal(inverse(beta), want)


def test_2x2_kernels_call_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on 2x2 input")

    a = np.random.default_rng(14).normal(size=(50, 2, 2))
    beta = np.swapaxes(a, 1, 2) @ a
    expected = (_svd(a)[:, 0], np.linalg.inv(beta))
    for name in ("svd", "inv", "pinv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert np.allclose(nr.spectral_norms(a), expected[0], rtol=1e-14)
    assert full_rank(beta).all()
    assert np.allclose(inverse(beta), expected[1], rtol=1e-10)
