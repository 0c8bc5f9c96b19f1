"""End-to-end synchronous simulation of the two-time-scale estimation loop.

Every data step each agent ingests one fresh pair and refreshes its local
estimate; at communication times (``t % zeta == 0`` and ``t <= S``) a phase
of ``T`` consensus rounds mixes copies of the sufficient statistics and
refreshes the post-communication estimate, which otherwise carries over
unchanged. The consensus rounds complete atomically between data steps. A
central pooled estimator over all agents' statistics is recorded as an oracle
column; errors are spectral norms against the ground truth.

The engine computes a run in batches over agents and steps rather than one
sample at a time: the running sums ``alpha`` and ``beta`` are cumulative
sums of the per-sample terms. The pooled sums are one more lane behind the
``m`` agents, so all ``m + 1`` lanes share one sticky rank rule and one
batched estimate, and the engine keeps their error norms, not the estimates.
A phase only reads the running sums, so the phases that fall in one piece
are mixed by one ``W**T`` product. On 2x2 matrices, the shape of the paper's
example, the error norms, inverses, rank tests and the products
``alpha beta^-1 - theta`` are closed forms, so once every lane has passed
the rank test the estimate pass makes no BLAS call and its bits do not
follow the BLAS kernel; ``W**T`` and ``pinv`` still do. On 1x1 matrices the
norms, inverses and rank tests are closed forms; other shapes use LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import WeightMatrix, run_comm_phase
from .model_gen import ModelSpec, sample_block
from .planner import Schedule

__all__ = ["SimConfig", "ErrorTrace", "run", "spectral_norms"]

# fewest steps per block of draws; a block holds max(BLOCK, LANE_STEPS //
# (m + 1)) steps and is the engine's largest working set, so memory does not
# grow with the horizon
BLOCK = 512
# matrices per lane in one estimate pass: a piece holds at most
# LANE_STEPS // (m + 1) steps, so its (steps, m + 1, ...) lanes and their
# temporaries do not grow with the number of agents
LANE_STEPS = 4096
# beta counts as invertible once its smallest singular value exceeds
# RANK_TOL times the largest
RANK_TOL = 1e-8


def _hypots(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``h1 = hypot(p + s, r - q)`` and ``h2 = hypot(p - s, q + r)`` of 2x2
    matrices ``[[p, q], [r, s]]``, whose singular values are ``(h1 + h2) / 2``
    and ``|h1 - h2| / 2``; the largest has no cancellation."""
    p, q, r, s = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    return np.hypot(p + s, r - q), np.hypot(p - s, q + r)


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value over the trailing two axes: ``|a|`` for 1x1
    matrices, ``(h1 + h2) / 2`` for 2x2 ones (``_hypots``), LAPACK for others."""
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0, 0])
    if a.shape[-2:] != (2, 2):
        return np.linalg.svd(a, compute_uv=False)[..., 0]
    h1, h2 = _hypots(a)
    return (h1 + h2) / 2


def full_rank(beta: np.ndarray) -> np.ndarray:
    """The invertibility test on ``(..., n, n)`` matrices, one flag per matrix:
    the smallest singular value exceeds ``RANK_TOL`` times the largest. Both
    are ``|beta|`` for 1x1 matrices and ``(h1 + h2) / 2`` and ``|h1 - h2| / 2``
    for 2x2 ones (``_hypots``); other shapes use LAPACK."""
    if beta.shape[-2:] == (1, 1):
        largest = smallest = np.abs(beta[..., 0, 0])
    elif beta.shape[-2:] != (2, 2):
        sv = np.linalg.svd(beta, compute_uv=False)
        largest, smallest = sv[..., 0], sv[..., -1]
    else:
        h1, h2 = _hypots(beta)
        largest, smallest = (h1 + h2) / 2, np.abs(h1 - h2) / 2
    return (largest > 0) & (smallest > RANK_TOL * largest)


def inverse(beta: np.ndarray) -> np.ndarray:
    """``inv`` over ``(..., n, n)`` matrices; 1x1 ones as ``1 / beta`` and 2x2
    ones as ``adj(beta) / det(beta)``."""
    if beta.shape[-2:] == (1, 1):
        return 1 / beta
    if beta.shape[-2:] != (2, 2):
        return np.linalg.inv(beta)
    p, q, r, s = beta[..., 0, 0], beta[..., 0, 1], beta[..., 1, 0], beta[..., 1, 1]
    det = p * s - q * r
    inv = np.empty(beta.shape)
    for (i, k), entry in zip(np.ndindex(2, 2), (s, -q, -r, p)):
        np.divide(entry, det, out=inv[..., i, k])
    return inv


def product_minus(a: np.ndarray, b: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``a @ b - theta`` over stacks of matrices; 2x2 ones entry by entry as
    ``a[i, 0] b[0, k] + a[i, 1] b[1, k] - theta[i, k]``, with no BLAS call,
    so their bits do not follow the BLAS kernel."""
    if a.shape[-2:] != (2, 2) or b.shape[-2:] != (2, 2):
        return a @ b - theta
    res = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for i, k in np.ndindex(2, 2):
        e = a[..., i, 0] * b[..., 0, k]
        e += a[..., i, 1] * b[..., 1, k]
        np.subtract(e, theta[i, k], out=res[..., i, k])
    return res


@dataclass(frozen=True, kw_only=True)
class RunParams:
    """Replication settings: horizon, run count and seed."""

    horizon: int
    runs: int
    seed: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 1 <= self.runs <= 2**32:
            raise ValueError("runs must be in [1, 2**32]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True, kw_only=True)
class SimConfig(RunParams):
    """One experiment: replication settings plus model, network and schedule."""

    model: ModelSpec
    weights: WeightMatrix
    schedule: Schedule

    def __post_init__(self):
        super().__post_init__()
        if self.weights.m != self.model.m:
            raise ValueError(
                f"weight matrix is {self.weights.m}x{self.weights.m} "
                f"but the model has {self.model.m} agents"
            )
        if self.horizon < self.schedule.S:
            raise ValueError(
                f"horizon {self.horizon} does not cover the stopping time {self.schedule.S}")


@dataclass
class ErrorTrace:
    """Per-step error columns of one run (or the average across runs)."""

    t: np.ndarray
    local_err: np.ndarray
    comm_err: np.ndarray
    global_err: np.ndarray
    comm_fired: np.ndarray
    pre_invertible_count: np.ndarray


def _block_increments(config: SimConfig, run_index: int, t_start: int,
                      count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample terms ``y x^T`` and ``x x^T`` for steps ``t_start ..`` in
    lanes ``0 .. m - 1`` of ``(count, m + 1, l, n)`` and ``(count, m + 1, n, n)``
    arrays; lane ``m``, the pooled sums, is left for the caller to fill."""
    x, y = sample_block(config.model, config.seed, run_index, t_start, count)
    m, l, n = config.model.m, config.model.l, config.model.n
    inc_alpha, inc_beta = np.empty((count, m + 1, l, n)), np.empty((count, m + 1, n, n))
    # entry (i, j) of every agent and step in one multiply over the (count, m)
    # plane; broadcasting over the trailing axes would loop over n at a time
    for inc, rows in ((inc_alpha, y), (inc_beta, x)):
        for i in range(rows.shape[-1]):
            for j in range(n):
                np.multiply(rows[..., i], x[..., j], out=inc[:, :m, i, j])
    return inc_alpha, inc_beta


def _errors(alpha: np.ndarray, beta: np.ndarray, invertible: np.ndarray,
            theta: np.ndarray) -> np.ndarray:
    """Spectral-norm errors of the estimates ``alpha @ beta^-1`` against
    ``theta``: ``inverse`` where ``invertible`` holds, ``pinv`` elsewhere.

    The lanes that lag are inverted as the identity, so ``inverse`` divides
    by no zero, and then take their ``pinv``; one product and one norm pass
    cover every lane.
    """
    lagging = ~invertible
    if lagging.any():
        inv = inverse(np.where(lagging[..., None, None], np.eye(beta.shape[-1]), beta))
        inv[lagging] = np.linalg.pinv(beta[lagging])
    else:
        inv = inverse(beta)
    return spectral_norms(product_minus(alpha, inv, theta))


def _simulate_run(config: SimConfig, run_index: int) -> ErrorTrace:
    """One run, batched over agents and over the steps between cuts.

    The horizon is cut into blocks of ``max(BLOCK, LANE_STEPS // (m + 1))``
    draws, and each block every ``LANE_STEPS // (m + 1)`` steps, so with up to
    six agents a block is one piece. Within a piece the running sums are
    cumulative sums seeded with the carried sums. Each of the ``m`` agents and
    the pooled sums behind them as lane ``m`` is estimated with ``inverse``
    from the first step whose ``beta`` passes the rank test on, and with
    ``pinv`` before it; the flag is sticky, so an ill-conditioned later sum
    stays on ``inverse``, and once every lane holds it the rank test is
    skipped. Each piece is reduced to its error norms at once, and its ``k``
    phases are mixed by one ``run_comm_phase`` call.
    """
    model, schedule = config.model, config.schedule
    horizon, m, l, n = config.horizon, model.m, model.l, model.n
    theta = model.theta
    trace = ErrorTrace(
        t=np.arange(1, horizon + 1),
        local_err=np.empty(horizon),
        comm_err=np.empty(horizon),
        global_err=np.empty(horizon),
        comm_fired=np.zeros(horizon, dtype=bool),
        pre_invertible_count=np.empty(horizon, dtype=np.int64),
    )
    trace.comm_fired[schedule.zeta - 1:schedule.S:schedule.zeta] = True
    lane = max(1, LANE_STEPS // (m + 1))
    block = max(BLOCK, lane)
    cut = (trace.t % block % lane == 0) | (trace.t == horizon)

    # carried state: the agents' running sums after the last step and the
    # invertibility of all m + 1 lanes
    alpha, beta = np.zeros((m, l, n)), np.zeros((m, n, n))
    invertible = np.zeros(m + 1, dtype=bool)
    # the communicated error before the first phase (zero estimates), then per phase
    phase_err = [spectral_norms(np.zeros((m, l, n)) - theta).mean()]

    start = 0
    for end in (np.flatnonzero(cut) + 1).tolist():
        if start % block == 0:
            inc_alpha, inc_beta = _block_increments(
                config, run_index, start + 1, min(block, horizon - start))
        rows = slice(start % block, start % block + end - start)
        lanes_a, lanes_b = inc_alpha[rows], inc_beta[rows]
        a, b = lanes_a[:, :m], lanes_b[:, :m]
        # same addition order as ``alpha += outer(y, x)`` step by step
        a[0] += alpha
        b[0] += beta
        np.cumsum(a, axis=0, out=a)
        np.cumsum(b, axis=0, out=b)
        # the pooled lane adds the agents in index order: both sums are
        # copied agent-major into one buffer and summed over its first axis,
        # a plane of two or more cells at a time (numpy sums a lone column,
        # strided or not, pairwise)
        agent_major = np.empty((m, end - start, l * n + n * n))
        agent_major[..., :l * n] = a.reshape(-1, m, l * n).swapaxes(0, 1)
        agent_major[..., l * n:] = b.reshape(-1, m, n * n).swapaxes(0, 1)
        pooled = agent_major.sum(axis=0)
        lanes_a[:, m] = pooled[:, :l * n].reshape(-1, l, n)
        lanes_b[:, m] = pooled[:, l * n:].reshape(-1, n, n)
        if invertible.all():
            flags = np.broadcast_to(invertible, lanes_b.shape[:2])
        else:
            flags = invertible | np.logical_or.accumulate(full_rank(lanes_b), axis=0)
        errs = _errors(lanes_a, lanes_b, flags, theta)
        alpha, beta, invertible = a[-1], b[-1], flags[-1]

        fired = np.flatnonzero(trace.comm_fired[start:end])
        if fired.size:
            # the sums at the k phases as (m, k * rows, cols): run_comm_phase
            # mixes along the agent axis and carries the others along
            mixed = run_comm_phase(config.weights, *(x[fired].swapaxes(0, 1).reshape(m, -1, n)
                                                     for x in (a, b)), schedule.T)
            # back to (k, m, rows, cols) in C order: the agent mean sums each row in one order
            mixed_alpha, mixed_beta = (x.reshape(m, fired.size, -1, n).swapaxes(0, 1).copy()
                                       for x in mixed)
            mixed_err = _errors(mixed_alpha, mixed_beta, full_rank(mixed_beta), theta)
            phase_err.extend(mixed_err.mean(axis=1))

        piece = slice(start, end)
        trace.local_err[piece] = errs[:, :m].mean(axis=1)
        trace.global_err[piece] = errs[:, m]
        trace.pre_invertible_count[piece] = m - flags[:, :m].sum(axis=1)
        start = end
    trace.comm_err[:] = np.take(phase_err, np.cumsum(trace.comm_fired))
    return trace


def run(config: SimConfig) -> ErrorTrace:
    """Simulate ``config.runs`` independent replications and return the
    averaged trace: the arithmetic mean of every error column across runs.

    The runs execute in index order in this process. The mean is a running
    sum over them, divided by the run count at the end, so only one run's
    trace is held at a time and memory does not grow with ``config.runs``.
    The sum rounds as ``np.mean(..., axis=0)`` over the stacked runs does,
    except on a horizon of 1, where numpy sums 8 or more runs pairwise.
    Replications use disjoint substreams indexed by run.
    """
    first = _simulate_run(config, 0)
    sums = {name: getattr(first, name).astype(np.float64)
            for name in ("local_err", "comm_err", "global_err", "pre_invertible_count")}
    for run_index in range(1, config.runs):
        trace = _simulate_run(config, run_index)
        for name, total in sums.items():
            total += getattr(trace, name)
    return ErrorTrace(t=first.t, comm_fired=first.comm_fired,
                      **{name: total / config.runs for name, total in sums.items()})
