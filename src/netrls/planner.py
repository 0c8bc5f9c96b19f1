"""Choice of consensus depth T and communication stopping time S.

Given a communication period ``zeta``, a tolerance ``epsilon_N`` on the
network-convergence error and an overall accuracy target ``epsilon``, picks
the smallest ``T`` whose network term stays below ``epsilon_N`` at every
communication time, then the earliest communication time ``S`` at which the
smaller of the local and post-communication bounds drops below ``epsilon``.
Both searches run in the conservative mode that replaces the mean
second-moment matrices by zero. Each starts at the closed-form solution of
the bound inequality it searches, then brackets and bisects, so it returns
what a scan from the first candidate would; where the closed form is exact,
a search evaluates its bounds at most twice.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

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
        for name in ("zeta", "T", "S"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.zeta < 1:
            raise ValueError("zeta must be >= 1")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.S < 0:
            raise ValueError("S must be >= 0")
        if self.S % self.zeta != 0:
            raise ValueError("S must be an integer multiple of zeta")


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


def _network_steps(inputs: BoundInputs, t: float, epsilon_N: float) -> float:
    """The real ``steps`` at which ``comm_bound``'s network term at time
    ``t`` equals ``epsilon_N``; at most 0 when one step meets it.

    The term is ``r (A + r B) g`` with ``(A, B) = inputs.network``. Its
    positive root in ``r`` is taken without cancellation and as a logarithm,
    so that a tiny ``epsilon_N`` does not underflow it.
    """
    g = inputs.c1 + inputs.c2 / math.sqrt(t)
    A, B = inputs.network
    a, b = A * g, B * g
    log_r = math.log(2.0 * epsilon_N) - math.log(a + math.hypot(a, 2.0 * math.sqrt(b * epsilon_N)))
    return log_r / math.log(inputs.rho)


def _stopping_time(inputs: BoundInputs, steps: int, epsilon: float) -> float:
    """The time past which the smaller of ``local_bound`` and ``comm_bound``
    after ``steps`` rounds is below ``epsilon``.

    The local bound is ``noise / sqrt(t)``. The communicated one,
    ``r (A + r B)(c1 + c2/sqrt(t)) + noise / sqrt(m t)`` in the attributes
    of ``inputs``, is ``a + b/sqrt(t)``, never below an ``epsilon <= a``.
    """
    r = inputs.rho**steps
    A, B = inputs.network
    k = r * (A + r * B)
    a = k * inputs.c1
    b = k * inputs.c2 + inputs.noise / math.sqrt(inputs.m)
    local = inputs.noise / epsilon
    comm = b / (epsilon - a) if epsilon > a else math.inf
    return min(local * local, comm * comm)


def _guess(inverse) -> int:
    """``ceil(inverse())`` floored at 0, or 0 where the closed form fails:
    raises ArithmeticError or ValueError, or gives inf or NaN."""
    try:
        x = inverse()
    except (ArithmeticError, ValueError):
        return 0
    return max(0, math.ceil(x)) if math.isfinite(x) else 0


def _first_true(pred, guess: int, last: float = math.inf) -> int | None:
    """Smallest ``k`` in ``0..last`` with ``pred(k)``, for a ``pred`` that is
    false up to some ``k`` and true from there on; None when there is none.

    Brackets the answer by galloping from ``guess`` (clamped into the range)
    by 1, 3, 7, ... steps, down while ``pred`` holds or up while it fails,
    then bisects. It returns what a scan from 0 would return, whatever the
    guess; an exact guess costs 2 calls of ``pred``, or 1 when it is 0.
    """
    if last < 0:
        return None
    k = min(max(guess, 0), last)
    gap = 1
    if pred(k):
        hi = k
        while k - gap >= 0 and pred(k - gap):
            hi, gap = k - gap, 2 * gap + 1
        lo = max(k - gap, -1)  # pred is false at lo, or lo is below the range
    else:
        lo = k
        while lo != last:
            hi = min(k + gap, last)
            if pred(hi):
                break
            lo, gap = hi, 2 * gap + 1
        else:
            return None
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
    ``(T, t_first)``. Raises ValueError when ``rho > 0`` and ``rho**T`` at
    the planned ``T`` is below the smallest normal float: there float
    underflow, not the bound, decides ``T``.
    """
    if zeta < 1:
        raise ValueError("zeta must be >= 1")
    if epsilon_N <= 0:
        raise ValueError("epsilon_N must be positive")
    t_first = _first_multiple_at_or_after(burn_in(inputs, inputs.delta_hat), zeta)
    # the bounds get float times: numpy has no sqrt of an integer beyond 64 bits
    t = float(t_first)
    k = _first_true(lambda k: comm_bound(inputs, t, 1 + k).network_term <= epsilon_N,
                    _guess(lambda: _network_steps(inputs, t, epsilon_N) - 1))
    decay = inputs.rho**(1 + k)
    if inputs.rho > 0 and decay < sys.float_info.min:
        raise ValueError(f"epsilon_N needs T = {1 + k} consensus steps, where rho**T = "
                         f"{decay!r} is below the smallest normal float "
                         f"{sys.float_info.min!r}: float underflow, not the bound, sets T")
    return 1 + k, t_first


def plan_S(inputs: BoundInputs, zeta: int, T: int, epsilon: float,
           max_t: int = DEFAULT_MAX_T) -> int:
    """Earliest communication time at which the running error guarantee
    drops strictly below ``epsilon``.

    The guarantee at time ``t`` is ``min(local, communicated)`` evaluated
    past both burn-ins; both bounds decrease in ``t``, so the search over
    communication times starts where their closed forms cross ``epsilon``
    and brackets and bisects from there to the first hit. Raises
    :class:`StoppingTimeNotReachable` when no ``t <= max_t`` qualifies
    (``epsilon`` below the bounds' asymptote for any practical horizon).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_t < 1:
        raise ValueError("max_t must be >= 1")
    start = _first_multiple_at_or_after(
        max(burn_in(inputs, inputs.delta), burn_in(inputs, inputs.delta_hat)), zeta)

    def reached(k: int) -> bool:
        t = float(start + k * zeta)
        return min(local_bound(inputs, t).value, comm_bound(inputs, t, T).value) < epsilon

    k = _first_true(reached, _guess(lambda: (_stopping_time(inputs, T, epsilon) - start) / zeta),
                    (max_t - start) // zeta)
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
