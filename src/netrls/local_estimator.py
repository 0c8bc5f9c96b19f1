"""Per-agent recursive least squares on a streamed (x, y) sequence.

State is the pair of sufficient statistics ``alpha = sum y x^T`` and
``beta = sum x x^T``; the running estimate is ``alpha @ pinv(beta)``. Once
``beta`` becomes numerically invertible its inverse is maintained with the
Sherman-Morrison rank-one update and refreshed by direct inversion at a
fixed cadence to bound drift.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AgentState", "init_agent", "full_rank", "RANK_TOL", "REFACTOR_EVERY"]

# beta counts as invertible once its smallest singular value exceeds
# RANK_TOL times the largest
RANK_TOL = 1e-8
REFACTOR_EVERY = 10_000


def full_rank(beta: np.ndarray) -> np.ndarray:
    """The invertibility test on ``(..., n, n)`` matrices, one flag per matrix."""
    sv = np.linalg.svd(beta, compute_uv=False)
    return (sv[..., 0] > 0) & (sv[..., -1] > RANK_TOL * sv[..., 0])


class AgentState:
    """Streaming least-squares state owned by a single agent."""

    __slots__ = ("alpha", "beta", "beta_inv", "theta_local", "theta_comm", "sample_count")

    def __init__(self, n: int, l: int):
        if n < 1 or l < 1:
            raise ValueError("dimensions must be >= 1")
        self.alpha = np.zeros((l, n))
        self.beta = np.zeros((n, n))
        self.beta_inv: np.ndarray | None = None
        self.theta_local = np.zeros((l, n))
        self.theta_comm = np.zeros((l, n))
        self.sample_count = 0

    @property
    def n(self) -> int:
        return self.beta.shape[0]

    @property
    def l(self) -> int:
        return self.alpha.shape[0]

    @property
    def pre_invertible(self) -> bool:
        """True while beta is still rank deficient and estimates use pinv."""
        return self.beta_inv is None

    def ingest(self, x: np.ndarray, y: np.ndarray) -> None:
        """Absorb one observation and refresh the local estimate."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"feature has shape {x.shape}, expected {(self.n,)}")
        if y.shape != (self.l,):
            raise ValueError(f"label has shape {y.shape}, expected {(self.l,)}")

        self.alpha += np.outer(y, x)
        if self.beta_inv is not None:
            # rank-one inverse update uses the pre-update inverse
            bx = self.beta_inv @ x
            self.beta_inv -= np.outer(bx, bx) / (1.0 + x @ bx)
            self.beta_inv = 0.5 * (self.beta_inv + self.beta_inv.T)
            self.beta += np.outer(x, x)
            self.sample_count += 1
            if self.sample_count % REFACTOR_EVERY == 0:
                self.beta_inv = np.linalg.inv(self.beta)
            self.theta_local = self.alpha @ self.beta_inv
            return

        self.beta += np.outer(x, x)
        self.sample_count += 1
        if full_rank(self.beta):
            self.beta_inv = np.linalg.inv(self.beta)
            self.theta_local = self.alpha @ self.beta_inv
        else:
            self.theta_local = self.alpha @ np.linalg.pinv(self.beta)

    def local_estimate(self) -> np.ndarray:
        """Estimate recomputed from the raw statistics: ``alpha @ pinv(beta)``."""
        return self.alpha @ np.linalg.pinv(self.beta)

    def replace_statistics(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        """Overwrite the accumulators (used by the optional mixed write-back)."""
        if alpha.shape != self.alpha.shape or beta.shape != self.beta.shape:
            raise ValueError("replacement statistics have mismatched shapes")
        self.alpha = np.array(alpha, dtype=float)
        self.beta = np.array(beta, dtype=float)
        if full_rank(self.beta):
            self.beta_inv = np.linalg.inv(self.beta)
            self.theta_local = self.alpha @ self.beta_inv
        else:
            self.beta_inv = None
            self.theta_local = self.alpha @ np.linalg.pinv(self.beta)


def init_agent(n: int, l: int) -> AgentState:
    """Fresh all-zero agent state for an ``l x n`` parameter matrix."""
    return AgentState(n, l)
