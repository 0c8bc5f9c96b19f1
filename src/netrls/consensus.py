"""Consensus averaging of sufficient statistics over a weight matrix.

The weight matrix must be entrywise nonnegative, row stochastic and
symmetric (hence doubly stochastic), with second-largest eigenvalue
magnitude ``rho < 1``; ``rho`` governs the geometric mixing speed. A
communication phase of ``steps`` synchronous rounds of neighbor averaging is
one multiplication of every agent's ``alpha`` and ``beta`` by ``W**steps``,
and returns the mixed arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightMatrix",
    "WeightMatrixError",
    "validate_weights",
    "run_comm_phase",
    "mixing_deficit",
    "ring_weights",
    "complete_weights",
]

ROW_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-12


class WeightMatrixError(ValueError):
    """Raised when a candidate weight matrix fails validation.

    ``clause`` identifies the failed requirement: one of ``"shape"``,
    ``"finite"``, ``"nonnegative"``, ``"row_stochastic"``, ``"symmetric"``,
    ``"spectral_gap"``.
    """

    def __init__(self, clause: str, message: str):
        super().__init__(message)
        self.clause = clause


@dataclass(frozen=True)
class WeightMatrix:
    """Validated mixing matrix with cached mixing rate ``rho``."""

    w: np.ndarray
    rho: float

    @property
    def m(self) -> int:
        return self.w.shape[0]


def validate_weights(w) -> WeightMatrix:
    """Check every required clause and cache the mixing rate.

    ``rho`` is ``max(lambda_2, -lambda_m)`` with eigenvalues of the
    symmetrized matrix sorted in decreasing value; a 1x1 matrix has no
    second eigenvalue and gets ``rho = 0`` by convention.
    """
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise WeightMatrixError("shape", f"weight matrix must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise WeightMatrixError("finite", f"non-finite weight {float(arr[i, j])!r} at ({i}, {j})")
    if np.any(arr < 0):
        i, j = np.argwhere(arr < 0)[0]
        raise WeightMatrixError(
            "nonnegative", f"negative weight {float(arr[i, j])!r} at ({i}, {j})"
        )
    row_sums = arr.sum(axis=1)
    worst = int(np.argmax(np.abs(row_sums - 1.0)))
    if abs(row_sums[worst] - 1.0) > ROW_SUM_TOL:
        raise WeightMatrixError(
            "row_stochastic", f"row {worst} sums to {float(row_sums[worst])!r}, expected 1"
        )
    if np.max(np.abs(arr - arr.T)) > SYMMETRY_TOL:
        raise WeightMatrixError("symmetric", "weight matrix is not symmetric")

    m = arr.shape[0]
    if m == 1:
        rho = 0.0
    else:
        # symmetrize before the eigensolve so tolerated asymmetry noise
        # cannot perturb rho
        ev = np.linalg.eigvalsh(0.5 * (arr + arr.T))  # ascending
        rho = max(float(ev[-2]), float(-ev[0]), 0.0)
        if rho < 1e-12:  # eigensolver noise floor; uniform averaging mixes exactly
            rho = 0.0
    if rho >= 1.0:
        raise WeightMatrixError(
            "spectral_gap", f"mixing rate rho = {rho!r} must be strictly below 1"
        )

    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return WeightMatrix(w=out, rho=rho)


def run_comm_phase(weights: WeightMatrix, alphas: np.ndarray, betas: np.ndarray,
                   steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Mixed ``(alphas, betas)`` after ``steps`` synchronous rounds of
    weighted neighbor averaging.

    A round replaces agent ``i``'s matrices by ``sum_j w[i, j] *`` (agent
    ``j``'s matrices), all read from the previous round, so ``steps`` rounds
    are one multiplication by ``W**steps`` along the agent axis. The axes
    after the first are carried along, so the sums of several phases stacked
    as ``(m, k * l, n)`` are mixed by one product.
    """
    if steps < 1:
        raise ValueError("a communication phase needs at least one step")
    m = weights.m
    if alphas.shape[0] != m or betas.shape[0] != m:
        raise ValueError(f"expected statistics for {m} agents, "
                         f"got {alphas.shape[0]}/{betas.shape[0]}")
    wp = np.linalg.matrix_power(weights.w, steps)
    return np.tensordot(wp, alphas, axes=(1, 0)), np.tensordot(wp, betas, axes=(1, 0))


def mixing_deficit(weights: WeightMatrix, steps: int) -> float:
    """Worst-row total deviation of ``W**steps`` from uniform averaging.

    Computed from the explicit matrix power:
    ``max_i sum_j |W**steps (i, j) - 1/m|``. Decays like ``sqrt(m) * rho**steps``.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    m = weights.m
    wp = np.linalg.matrix_power(weights.w, steps)
    return float(np.max(np.abs(wp - 1.0 / m).sum(axis=1)))


def ring_weights(m: int, self_weight: float = 1.0 / 3.0) -> WeightMatrix:
    """Symmetric ring: ``self_weight`` on the diagonal, the rest split
    between the two ring neighbors."""
    if m < 1:
        raise ValueError("need at least one agent")
    if not 0 <= self_weight <= 1:
        raise ValueError("self_weight must be in [0, 1]")
    w = np.zeros((m, m))
    if m == 1:
        w[0, 0] = 1.0
    else:
        share = 0.5 * (1.0 - self_weight)
        for i in range(m):
            w[i, i] = self_weight
            w[i, (i - 1) % m] += share
            w[i, (i + 1) % m] += share
    return validate_weights(w)


def complete_weights(m: int) -> WeightMatrix:
    """Uniform all-to-all averaging; mixes exactly in one step (rho = 0)."""
    if m < 1:
        raise ValueError("need at least one agent")
    return validate_weights(np.full((m, m), 1.0 / m))
