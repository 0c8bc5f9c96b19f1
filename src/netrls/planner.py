"""Choice of consensus depth T and communication stopping time S.

Given a communication period ``zeta``, a tolerance ``epsilon_N`` on the
network-convergence error and an overall accuracy target ``epsilon``, picks
the smallest ``T`` whose network term stays below ``epsilon_N`` at every
communication time, then the earliest communication time ``S`` at which the
smaller of the local and post-communication bounds drops below ``epsilon``.
Both searches run in the conservative mode that replaces the mean
second-moment matrices by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import BoundInputs, burn_in, comm_bound, local_bound

__all__ = [
    "Schedule",
    "PlanResult",
    "StoppingTimeNotReachable",
    "plan_T",
    "plan_S",
    "plan",
]

# the last time plan_S searches when its caller sets no ``max_t``
DEFAULT_MAX_T = 10**6


@dataclass(frozen=True)
class Schedule:
    """Communication schedule: a phase of ``T`` consensus steps fires at
    every ``t`` with ``t % zeta == 0`` and ``t <= S``."""

    zeta: int
    T: int
    S: int

    def __post_init__(self):
        if self.zeta < 1:
            raise ValueError("zeta must be >= 1")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.S < 0:
            raise ValueError("S must be >= 0")
        if self.S % self.zeta != 0:
            raise ValueError("S must be an integer multiple of zeta")

    def comm_times(self, horizon: int) -> list[int]:
        return list(range(self.zeta, min(self.S, horizon) + 1, self.zeta))


@dataclass(frozen=True)
class PlanResult:
    """Planner outputs together with the constants they were derived from."""

    zeta: int
    T: int
    S: int
    t_first: int
    epsilon: float
    epsilon_N: float
    rho: float
    C1: float
    c1: float
    c2: float
    c3: float

    def schedule(self) -> Schedule:
        return Schedule(zeta=self.zeta, T=self.T, S=self.S)


class StoppingTimeNotReachable(RuntimeError):
    """The accuracy target is below what any t up to the horizon achieves."""

    def __init__(self, message: str, epsilon: float, max_t: int):
        super().__init__(message)
        self.epsilon = epsilon
        self.max_t = max_t


def _first_multiple_at_or_after(value: float, step: int) -> int:
    return max(1, math.ceil(value / step)) * step


def _first_true(pred, last: float = math.inf) -> int | None:
    """Smallest ``k`` in ``0..last`` with ``pred(k)``, for a ``pred`` that is
    false up to some ``k`` and true from there on; None when there is none.
    Brackets by doubling, then bisects, so it returns what a scan from 0
    would return."""
    if last < 0:
        return None
    lo, hi = -1, 0  # pred is false at lo, or lo is below the range
    while not pred(hi):
        if hi == last:
            return None
        lo, hi = hi, min(2 * hi + 1, last)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def plan_T(inputs: BoundInputs, zeta: int, epsilon_N: float) -> tuple[int, int]:
    """Smallest consensus depth keeping the network error below ``epsilon_N``.

    Evaluated at ``t_first``, the earliest communication time past the
    ``delta_hat`` burn-in; the network term decreases in ``t``, so meeting
    the tolerance there meets it at every later communication time.
    The network term also decreases in ``T`` and reaches 0.0 once
    ``rho**T`` underflows, so the search always ends. Returns
    ``(T, t_first)``.
    """
    if zeta < 1:
        raise ValueError("zeta must be >= 1")
    if epsilon_N <= 0:
        raise ValueError("epsilon_N must be positive")
    t_first = _first_multiple_at_or_after(burn_in(inputs, "delta_hat").threshold, zeta)
    # the bounds get float times: numpy has no sqrt of an integer beyond 64 bits
    k = _first_true(lambda k: comm_bound(inputs, float(t_first), 1 + k).network_term
                    <= epsilon_N)
    return 1 + k, t_first


def plan_S(inputs: BoundInputs, zeta: int, T: int, epsilon: float,
           max_t: int = DEFAULT_MAX_T) -> int:
    """Earliest communication time at which the running error guarantee
    drops strictly below ``epsilon``.

    The guarantee at time ``t`` is ``min(local, communicated)`` evaluated
    past both burn-ins; both bounds decrease in ``t``, so the search over
    communication times bisects to the first hit. Raises
    :class:`StoppingTimeNotReachable` when no ``t <= max_t`` qualifies
    (``epsilon`` below the bounds' asymptote for any practical horizon).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    start = _first_multiple_at_or_after(
        max(burn_in(inputs, "delta").threshold, burn_in(inputs, "delta_hat").threshold),
        zeta,
    )

    def reached(k: int) -> bool:
        t = float(start + k * zeta)
        return min(local_bound(inputs, t).value, comm_bound(inputs, t, T).value) < epsilon

    k = _first_true(reached, last=(max_t - start) // zeta)
    if k is None:
        raise StoppingTimeNotReachable(
            f"error guarantee never drops below {epsilon} for t <= {max_t}",
            epsilon=epsilon, max_t=max_t,
        )
    return start + k * zeta


def plan(inputs: BoundInputs, zeta: int, epsilon: float, epsilon_N: float,
         max_t: int = DEFAULT_MAX_T) -> PlanResult:
    """Run both searches and package the outcome."""
    T, t_first = plan_T(inputs, zeta, epsilon_N)
    S = plan_S(inputs, zeta, T, epsilon, max_t=max_t)
    return PlanResult(zeta=zeta, T=T, S=S, t_first=t_first,
                      epsilon=epsilon, epsilon_N=epsilon_N, rho=inputs.rho,
                      C1=inputs.C1, c1=inputs.c1, c2=inputs.c2, c3=inputs.c3)
