"""Synthetic data streams for networked linear regression.

Each of ``m`` agents observes pairs ``(x, y)`` with ``y = theta @ x + eta``,
where ``x`` is Gaussian with a deterministic per-agent mean profile and
isotropic covariance ``sigma_x**2 * I`` and ``eta`` is zero-mean Gaussian
noise with covariance ``sigma_eta**2 * I``. Draws are addressed by
``(seed, run, agent, t)`` through a counter-based Philox stream, so any
single sample can be regenerated in isolation, in any order, on any process,
and Monte Carlo runs never share generator state. One call to
``sample_block(spec, seed, run, t_start, count)`` draws a block of steps for
every agent at once; only ``_normal_rows`` knows the Philox key layout,
``[seed, (run << 32) | agent]``.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ZeroMean",
    "ConstantMean",
    "SinusoidMean",
    "ModelSpec",
    "sample_block",
    "mu_bar",
    "mu_bar_pooled",
    "mu_bar_lambda_min",
    "difference_transform",
    "differenced_model",
]


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _max_row_norm(rows: np.ndarray) -> float:
    """Largest Euclidean norm of a row: ``np.linalg.norm``'s value, or, where
    its squares overflow, the norm of the rows rescaled to at most 1."""
    with np.errstate(over="ignore"):
        norm = float(np.max(np.linalg.norm(rows, axis=1)))
    if math.isfinite(norm):
        return norm
    scale = float(np.max(np.abs(rows)))
    return scale * float(np.max(np.linalg.norm(rows / scale, axis=1)))


@dataclass(frozen=True)
class ZeroMean:
    """Zero feature mean for every agent and time."""

    @property
    def mu_hat(self) -> float:
        return 0.0

    def check(self, m: int, n: int) -> None:
        pass

    def profile(self, times: np.ndarray, m: int, n: int) -> np.ndarray:
        return np.zeros((len(times), m, n))


@dataclass(frozen=True)
class ConstantMean:
    """Time-invariant per-agent means; ``vectors`` has one row per agent."""

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", _readonly(np.atleast_2d(self.vectors)))
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("vectors must be finite")

    @property
    def mu_hat(self) -> float:
        return _max_row_norm(self.vectors)

    def check(self, m: int, n: int) -> None:
        if self.vectors.shape != (m, n):
            raise ValueError(
                f"constant mean vectors have shape {self.vectors.shape}, expected {(m, n)}"
            )

    def profile(self, times: np.ndarray, m: int, n: int) -> np.ndarray:
        return np.broadcast_to(self.vectors, (len(times), m, n))


@dataclass(frozen=True)
class SinusoidMean:
    """Per-agent oscillating means ``amplitudes[i] * cos(2*pi*t / periods[i])``.

    The peak norm is attained at integer multiples of the period, so the
    supremum over time of ``||mu_{i,t}||`` is exactly ``max_i ||amplitudes[i]||``.
    """

    amplitudes: np.ndarray
    periods: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _readonly(np.atleast_2d(self.amplitudes)))
        object.__setattr__(self, "periods", _readonly(np.atleast_1d(self.periods)))
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("amplitudes must be finite")
        if not np.all(self.periods > 0):
            raise ValueError("periods must be positive")

    @property
    def mu_hat(self) -> float:
        return _max_row_norm(self.amplitudes)

    def check(self, m: int, n: int) -> None:
        if self.amplitudes.shape != (m, n):
            raise ValueError(
                f"sinusoid amplitudes have shape {self.amplitudes.shape}, expected {(m, n)}"
            )
        if self.periods.shape != (m,):
            raise ValueError(
                f"sinusoid periods have shape {self.periods.shape}, expected {(m,)}"
            )

    def profile(self, times: np.ndarray, m: int, n: int) -> np.ndarray:
        phase = np.cos(2.0 * np.pi * np.asarray(times, dtype=float)[:, None] / self.periods)
        return phase[:, :, None] * self.amplitudes


MeanSchedule = ZeroMean | ConstantMean | SinusoidMean


@dataclass(frozen=True)
class ModelSpec:
    """Ground truth for the streaming model ``y = theta @ x + eta``.

    ``theta`` is the unknown ``l x n`` parameter matrix the agents estimate;
    ``sigma_x`` and ``sigma_eta`` are the feature and noise standard
    deviations; ``m`` is the number of agents.
    """

    theta: np.ndarray
    sigma_x: float
    sigma_eta: float
    m: int
    mean: MeanSchedule = field(default_factory=ZeroMean)

    def __post_init__(self):
        theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "theta", _readonly(theta))
        if theta.ndim != 2:
            raise ValueError("theta must be a 2-D matrix")
        if theta.size == 0:
            raise ValueError(f"theta must not be empty, got shape {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        if not 0 < self.sigma_x < math.inf:
            raise ValueError("sigma_x must be positive and finite")
        if not 0 <= self.sigma_eta < math.inf:
            raise ValueError("sigma_eta must be nonnegative and finite")
        if self.m < 1:
            raise ValueError("need at least one agent")
        self.mean.check(self.m, self.n)

    @property
    def n(self) -> int:
        return self.theta.shape[1]

    @property
    def l(self) -> int:
        return self.theta.shape[0]

    @property
    def mu_hat(self) -> float:
        """Supremum over agents and time of the feature-mean norm."""
        return self.mean.mu_hat

    @property
    def theta_norm(self) -> float:
        """Spectral norm of the ground-truth parameter matrix."""
        return float(np.linalg.norm(self.theta, 2))


def _normal_rows(seed: int, run: int, m: int, t_start: int, count: int,
                 width: int) -> np.ndarray:
    """Standard normal draws of agents ``0 .. m-1`` for time steps
    ``t_start .. t_start+count-1``, as a ``(count, m, width)`` array.

    Agent ``i`` of ``run`` reads the Philox stream keyed
    ``[seed, (run << 32) | i]``, so distinct ``(run, agent)`` pairs own
    disjoint streams. Each time step owns ``ceil(width/4)`` counter blocks and
    one float64 consumes exactly one 64-bit word, so row ``t`` is the same
    whether generated alone or as part of a larger block. ``numpy.random``
    is imported here, at the first draw, as scipy is in ``_standard_normal``.
    """
    from numpy.random import Generator, Philox

    seed, run = _integer(seed, "seed"), _integer(run, "run index")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if not 0 <= run < 2**32:
        raise ValueError("run index must fit in 32 bits")
    if m > 2**32:
        raise ValueError("agent index must fit in 32 bits")
    blocks_per_step = -(-width // 4)
    u = np.empty((count, m, 4 * blocks_per_step))
    for agent in range(m):
        key = np.array([seed, (run << 32) | agent], dtype=np.uint64)
        bits = Philox(counter=(t_start - 1) * blocks_per_step, key=key)
        u[:, agent] = Generator(bits).random((count, 4 * blocks_per_step))
    return _standard_normal(u)[..., :width]


def _integer(value, name: str) -> int:
    """``value`` as a Python int, so a numpy integer keys the same stream as
    the equal int; a float is rejected rather than truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _standard_normal(u: np.ndarray) -> np.ndarray:
    """Inverse normal CDF of uniforms in ``[0, 1)``, shifted to bin midpoints.

    The shift keeps the argument above 0. The largest uniform, ``1 - 2**-53``,
    shifts to exactly 1.0, so the argument is clamped below 1; no other value
    reaches the clamp. scipy is imported here, at the first draw, so the
    commands that never sample do not pay for its import.
    """
    from scipy.special import ndtri

    return ndtri(np.minimum(u + 2.0**-54, np.nextafter(1.0, 0.0)))


def sample_block(spec: ModelSpec, seed: int, run: int, t_start: int,
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` consecutive pairs of every agent of run ``run`` of
    ``seed``, starting at time ``t_start``.

    Returns ``(X, Y)`` with shapes ``(count, m, n)`` and ``(count, m, l)``;
    ``X[:, i]`` is agent ``i``'s stream. Row ``k`` is bit-identical to the
    one row drawn alone at ``t_start + k``.
    """
    if t_start < 1:
        raise ValueError("time steps start at 1")
    n, l, m = spec.n, spec.l, spec.m
    z = _normal_rows(seed, run, m, t_start, count, n + l)
    times = np.arange(t_start, t_start + count)
    x = spec.mean.profile(times, m, n) + spec.sigma_x * z[..., :n]
    # einsum keeps each row's rounding independent of the block size, so
    # single-pair and block generation agree bit for bit
    y = np.einsum("taj,kj->tak", x, spec.theta) + spec.sigma_eta * z[..., n:]
    return x, y


def mu_bar(spec: ModelSpec, agent: int, t: int) -> np.ndarray:
    """Normalized second-moment matrix of one agent's means up to time ``t``:
    ``(4 / (t * sigma_x**2)) * sum_{j<=t} mu_j mu_j^T``."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0 <= agent < spec.m:
        raise ValueError(f"agent index {agent} out of range [0, {spec.m})")
    prof = spec.mean.profile(np.arange(1, t + 1), spec.m, spec.n)[:, agent]
    return (4.0 / (t * spec.sigma_x**2)) * (prof.T @ prof)


def mu_bar_pooled(spec: ModelSpec, t: int) -> np.ndarray:
    """Mean second-moment matrix pooled over all agents and times up to ``t``."""
    if t < 1:
        raise ValueError("t must be >= 1")
    prof = spec.mean.profile(np.arange(1, t + 1), spec.m, spec.n).reshape(-1, spec.n)
    return (4.0 / (spec.m * t * spec.sigma_x**2)) * (prof.T @ prof)


def mu_bar_lambda_min(spec: ModelSpec, t: int, agent: int | None = None) -> float:
    """Smallest eigenvalue of ``I + mu_bar`` (pooled when ``agent`` is None)."""
    bar = mu_bar_pooled(spec, t) if agent is None else mu_bar(spec, agent, t)
    return float(np.linalg.eigvalsh(np.eye(spec.n) + bar)[0])


def difference_transform(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise differencing that cancels a time-invariant feature mean.

    Rows of ``sample_block``'s ``(x, y)`` are taken two at a time along the
    first (time) axis, for every agent at once:
    ``x_hat_k = x_{2k-1} - x_{2k}`` and ``y_hat_k = y_{2k-1} - y_{2k}``. The
    ``len(x) // 2`` output rows are zero-mean with doubled feature and noise
    variances and still satisfy ``y_hat = theta @ x_hat + eta_hat``.
    """
    if len(x) < 2:
        warnings.warn("difference_transform needs at least two rows; output is empty")
    k = len(x) // 2
    return x[0:2 * k:2] - x[1:2 * k:2], y[0:2 * k:2] - y[1:2 * k:2]


def differenced_model(spec: ModelSpec) -> ModelSpec:
    """Model spec matching the output of :func:`difference_transform`."""
    return ModelSpec(
        theta=spec.theta,
        sigma_x=math.sqrt(2.0) * spec.sigma_x,
        sigma_eta=math.sqrt(2.0) * spec.sigma_eta,
        m=spec.m,
        mean=ZeroMean(),
    )
