"""Closed-form finite-time error bounds for the three estimates.

Evaluates, for confidence levels ``delta`` (single-agent events) and
``delta_hat`` (network-wide events), the high-probability spectral-norm
error bounds of the purely local estimate, the pooled global estimate, and
the post-communication estimate. All logarithms are natural. Inputs are the
*assumed* parameter bounds: lower bound on ``sigma_x`` in denominators, upper
bounds everywhere else, so the reports stay valid when only bounds on the
true scalars are known.

A bound holds once ``t`` reaches its burn-in, the sample count
``burn_in(inputs, delta)`` at the bound's confidence level: ``delta`` for the
local and global bounds, ``delta_hat`` for the communicated one. The global
bound's burn-in is divided by ``m``.

The three bounds share one noise term, ``C1 / (sqrt(k t) sigma_x^2)`` for
``k`` pooled agents: the local bound is it with ``k = 1``, the global bound
with ``k = m``, and the communicated bound adds the network term
``rho**T C0`` to the global one.

The time ``t`` of ``local_bound``, ``global_bound`` and ``comm_bound`` may be
a scalar or a numpy array of finite times; each element of an array result
equals the scalar evaluation at that time, bit for bit. A report carries
what depends on ``t``, ``value``, ``network_term`` and ``noise_term``, and the
burn-in ``valid_from``, which depends only on the inputs. The constants
``C1``, ``c1``, ``c2`` and ``c3`` do not depend on ``t``; they are computed
once per inputs, as ``inputs.C1`` and so on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BoundInputs",
    "BoundReport",
    "BurnInError",
    "burn_in",
    "local_bound",
    "global_bound",
    "comm_bound",
]


@dataclass(frozen=True)
class BoundInputs:
    """Known or assumed scalars feeding every bound formula."""

    n: int
    l: int
    m: int
    sigma_x_lower: float
    sigma_x_upper: float
    sigma_eta_upper: float
    mu_hat_upper: float
    theta_norm_upper: float
    delta: float
    delta_hat: float
    rho: float

    def __post_init__(self):
        if self.n < 1 or self.l < 1 or self.m < 1:
            raise ValueError("dimensions must be >= 1")
        if not self.sigma_x_lower > 0:
            raise ValueError("sigma_x_lower must be positive")
        if self.sigma_x_upper < self.sigma_x_lower:
            raise ValueError(f"sigma_x_upper must be >= sigma_x_lower, got "
                             f"{self.sigma_x_upper!r} < {self.sigma_x_lower!r}")
        for name in ("sigma_eta_upper", "mu_hat_upper", "theta_norm_upper"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if not 0 < self.delta_hat < 1:
            raise ValueError("delta_hat must be in (0, 1)")
        if not 0 <= self.rho < 1:
            raise ValueError("rho must be in [0, 1)")
        # extreme but finite scalars can overflow the burn-ins or the largest
        # noise and network terms (at t = 1 and no consensus step), or
        # underflow a power of sigma_x_lower that a bound divides by
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                finite = all(map(math.isfinite, (
                    burn_in(self, self.delta), burn_in(self, self.delta_hat),
                    self.C1 / self.sigma_x_lower**2, _C0(self, 1, 0))))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise ValueError(f"bound constants are not finite for {self!r}")

    @cached_property
    def C1(self) -> float:
        """Noise-accumulation constant of the local/global bounds."""
        n, l, d = self.n, self.l, self.delta
        return 8.0 * self.sigma_eta_upper * (
            4.0 * self.sigma_x_upper * math.sqrt((n + l) * math.log(9.0 / d))
            + self.mu_hat_upper * (math.sqrt(2.0 * (l + n)) + 2.0 * math.sqrt(math.log(2.0 / d)))
        )

    @cached_property
    def c1(self) -> float:
        """Per-sample magnitude of the label-feature statistic."""
        return self.theta_norm_upper * (
            19.0 / 8.0 * self.sigma_x_upper**2 + self.mu_hat_upper**2
        )

    @cached_property
    def c2(self) -> float:
        """Square-root-rate noise contribution to the statistic magnitude."""
        n, l, d = self.n, self.l, self.delta_hat
        return self.sigma_eta_upper * (
            4.0 * self.sigma_x_upper * math.sqrt((n + l) * math.log(9.0 / d))
            + self.mu_hat_upper * (math.sqrt(2.0 * (l + n)) + math.sqrt(2.0 * math.log(2.0 / d)))
        )

    @cached_property
    def c3(self) -> float:
        """Sensitivity of the inverted statistic to mixing error."""
        m32 = self.m**1.5
        root = math.sqrt(5.0 * self.n)
        return (152.0 * m32 * root / self.sigma_x_lower**2
                + 64.0 * m32 * root * self.mu_hat_upper**2 / self.sigma_x_lower**4)

    @classmethod
    def from_model(cls, model, weights, delta: float = 0.05, delta_hat: float = 0.001,
                   **overrides) -> "BoundInputs":
        """Exact model parameters used as both lower and upper bounds;
        keyword overrides substitute assumed bounds for any scalar. An
        assumed ``*_lower`` or ``*_upper`` bound must bound the model's own
        value, checked after the inputs' own checks."""
        exact = dict(
            n=model.n,
            l=model.l,
            m=model.m,
            sigma_x_lower=model.sigma_x,
            sigma_x_upper=model.sigma_x,
            sigma_eta_upper=model.sigma_eta,
            mu_hat_upper=model.mu_hat,
            theta_norm_upper=model.theta_norm,
            delta=delta,
            delta_hat=delta_hat,
            rho=weights.rho,
        )
        inputs = cls(**{**exact, **overrides})
        for name, value in overrides.items():
            if name.endswith("_lower") and value > exact[name]:
                raise ValueError(f"{name} must be <= the model's {name[:-6]}, "
                                 f"got {value!r} > {exact[name]!r}")
            if name.endswith("_upper") and value < exact[name]:
                raise ValueError(f"{name} must be >= the model's {name[:-6]}, "
                                 f"got {value!r} < {exact[name]!r}")
        return inputs


class BurnInError(ValueError):
    """Bound requested below its burn-in; ``valid_from`` is the first valid t."""

    def __init__(self, message: str, valid_from: int):
        super().__init__(message)
        self.valid_from = valid_from


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluated at ``t``.

    ``value = network_term + noise_term``; the network term is zero for the
    local and global bounds. The three terms are arrays when the bound was
    evaluated on an array of times.
    """

    value: float | np.ndarray
    network_term: float | np.ndarray
    noise_term: float | np.ndarray
    valid_from: int


def burn_in(inputs: BoundInputs, delta: float) -> float:
    """First sample count at which a bound at confidence level ``delta`` holds.

    The max of three terms: ``8n + 16 ln(2/delta)`` controls the
    feature-covariance concentration, a second term the mean/fluctuation
    cross terms (zero for zero-mean features), and ``2(n+l) ln(1/delta)`` the
    noise-feature product. The global regime divides it by ``m``.
    """
    n, l = inputs.n, inputs.l
    t1 = 8.0 * n + 16.0 * math.log(2.0 / delta)
    mu = inputs.mu_hat_upper
    t2 = (16.0 * mu * (math.sqrt(4.0 * n) + math.sqrt(2.0 * math.log(2.0 / delta)))
          / inputs.sigma_x_lower) ** 2
    t3 = 2.0 * (n + l) * math.log(1.0 / delta)
    return max(t1, t2, t3)


def _C0(inputs: BoundInputs, t, steps: int):
    """Amplitude of the network-convergence error before the rho**T decay."""
    g = inputs.c1 + inputs.c2 / np.sqrt(t)
    m32_rl = inputs.m**1.5 * math.sqrt(inputs.l)
    return (inputs.c3 * g
            + 8.0 * m32_rl * g / inputs.sigma_x_lower**2
            + inputs.rho**steps * m32_rl * inputs.c3 * g)


def _check_burn_in(t, threshold: float, regime: str) -> int:
    """First valid time of a bound; raises if any of ``t`` is not finite or below ``threshold``."""
    valid_from = max(1, math.ceil(threshold))
    # one numpy reduction for both tests: the planner makes many scalar calls
    try:
        ok = (np.isfinite(t) & (t >= threshold)).all()
    except TypeError:  # numpy holds an int beyond 64 bits as an object
        raise ValueError(f"t must be a float, an integer that fits in 64 bits or "
                         f"an array of them, got {t!r}") from None
    if not ok:
        if not np.isfinite(t).all():
            raise ValueError("t must be finite")
        raise BurnInError(f"t = {np.min(t)} below {regime} burn-in {threshold:.6g}", valid_from)
    return valid_from


def _report(inputs: BoundInputs, t, samples: int, mu_bar_lambda_min: float,
            valid_from: int, network=0.0) -> BoundReport:
    """The report of a bound whose noise term pools ``samples`` agents' ``t``
    samples each, plus the bound's ``network`` term."""
    if mu_bar_lambda_min < 1.0:
        raise ValueError("lambda_min(I + mu_bar) is always >= 1")
    noise = inputs.C1 / (np.sqrt(samples * t) * inputs.sigma_x_lower**2 * mu_bar_lambda_min)
    return BoundReport(value=network + noise, network_term=network, noise_term=noise,
                       valid_from=valid_from)


def local_bound(inputs: BoundInputs, t, mu_bar_lambda_min: float = 1.0) -> BoundReport:
    """Error bound for one agent's purely local estimate after ``t`` samples.

    Decays like ``1/sqrt(t)``; ``mu_bar_lambda_min`` is the smallest
    eigenvalue of ``I + mu_bar`` and defaults to the conservative value 1.
    """
    valid_from = _check_burn_in(t, burn_in(inputs, inputs.delta), "local")
    return _report(inputs, t, 1, mu_bar_lambda_min, valid_from)


def global_bound(inputs: BoundInputs, t, mu_bar_lambda_min: float = 1.0) -> BoundReport:
    """Error bound for the pooled all-agent estimate; local bound with
    ``t`` replaced by ``m * t`` and burn-in divided by ``m``."""
    valid_from = _check_burn_in(t, burn_in(inputs, inputs.delta) / inputs.m, "global")
    return _report(inputs, t, inputs.m, mu_bar_lambda_min, valid_from)


def comm_bound(inputs: BoundInputs, t, steps: int,
               mu_bar_lambda_min: float = 1.0) -> BoundReport:
    """Error bound for the post-communication estimate after ``steps``
    consensus rounds.

    Sum of a network term ``rho**steps * C0`` (incomplete mixing, decays
    geometrically in ``steps``) and the global noise term. Burn-in is gated
    at ``delta_hat`` because the mixing analysis must hold across all
    agents simultaneously.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    valid_from = _check_burn_in(t, burn_in(inputs, inputs.delta_hat), "communicated")
    network = inputs.rho**steps * _C0(inputs, t, steps)
    return _report(inputs, t, inputs.m, mu_bar_lambda_min, valid_from, network)
