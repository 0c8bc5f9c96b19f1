"""Per-agent recursive least squares on a streamed (x, y) sequence.

State is the pair of sufficient statistics ``alpha = sum y x^T`` and
``beta = sum x x^T``; the running estimate is ``alpha @ inv(beta)`` once
``beta`` has passed the rank test and ``alpha @ pinv(beta)`` before.

The rank test and the batched inverses and singular values the simulator
uses have closed forms for 2x2 matrices, the shape of the paper's example;
other shapes call LAPACK.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AgentState", "full_rank", "RANK_TOL"]

# beta counts as invertible once its smallest singular value exceeds
# RANK_TOL times the largest
RANK_TOL = 1e-8


def is_2x2(a: np.ndarray) -> bool:
    """True for a stack of 2x2 matrices, which the closed forms below handle."""
    return a.shape[-2:] == (2, 2)


def singular_values_2x2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest and smallest singular values of ``(..., 2, 2)`` matrices.

    For ``[[p, q], [r, s]]`` with ``h1 = hypot(p + s, r - q)`` and
    ``h2 = hypot(p - s, q + r)`` they are ``(h1 + h2) / 2`` and
    ``|h1 - h2| / 2``; the largest has no cancellation.
    """
    p, q, r, s = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    h1, h2 = np.hypot(p + s, r - q), np.hypot(p - s, q + r)
    return (h1 + h2) / 2, np.abs(h1 - h2) / 2


def inverse(beta: np.ndarray) -> np.ndarray:
    """``inv`` over ``(..., n, n)`` matrices; 2x2 ones as ``adj(beta) / det(beta)``."""
    if not is_2x2(beta):
        return np.linalg.inv(beta)
    p, q, r, s = beta[..., 0, 0], beta[..., 0, 1], beta[..., 1, 0], beta[..., 1, 1]
    adj = np.stack([s, -q, -r, p], axis=-1).reshape(beta.shape)
    return adj / (p * s - q * r)[..., None, None]


def full_rank(beta: np.ndarray) -> np.ndarray:
    """The invertibility test on ``(..., n, n)`` matrices, one flag per matrix."""
    if is_2x2(beta):
        largest, smallest = singular_values_2x2(beta)
    else:
        sv = np.linalg.svd(beta, compute_uv=False)
        largest, smallest = sv[..., 0], sv[..., -1]
    return (largest > 0) & (smallest > RANK_TOL * largest)


class AgentState:
    """Streaming least-squares state owned by a single agent."""

    __slots__ = ("alpha", "beta", "invertible", "theta_local", "theta_comm")

    def __init__(self, n: int, l: int):
        if n < 1 or l < 1:
            raise ValueError("dimensions must be >= 1")
        self.alpha = np.zeros((l, n))
        self.beta = np.zeros((n, n))
        self.invertible = False
        self.theta_local = np.zeros((l, n))
        self.theta_comm = np.zeros((l, n))

    @property
    def n(self) -> int:
        return self.beta.shape[0]

    @property
    def l(self) -> int:
        return self.alpha.shape[0]

    @property
    def pre_invertible(self) -> bool:
        """True while beta is still rank deficient and estimates use pinv."""
        return not self.invertible

    def ingest(self, x: np.ndarray, y: np.ndarray) -> None:
        """Absorb one observation and refresh the local estimate."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"feature has shape {x.shape}, expected {(self.n,)}")
        if y.shape != (self.l,):
            raise ValueError(f"label has shape {y.shape}, expected {(self.l,)}")
        self.alpha += np.outer(y, x)
        self.beta += np.outer(x, x)
        # sticky: once invertible, an ill-conditioned later sum stays on inv
        self._refresh(self.invertible)

    def replace_statistics(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        """Overwrite the accumulators (used by the optional mixed write-back)."""
        if alpha.shape != self.alpha.shape or beta.shape != self.beta.shape:
            raise ValueError("replacement statistics have mismatched shapes")
        self.alpha = np.array(alpha, dtype=float)
        self.beta = np.array(beta, dtype=float)
        self._refresh(False)

    def _refresh(self, invertible: bool) -> None:
        """Set the flag (``invertible`` or the rank test) and the estimate."""
        self.invertible = invertible or bool(full_rank(self.beta))
        invert = np.linalg.inv if self.invertible else np.linalg.pinv
        self.theta_local = self.alpha @ invert(self.beta)
