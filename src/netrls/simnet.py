"""End-to-end synchronous simulation of the two-time-scale estimation loop.

Every data step each agent ingests one fresh pair and refreshes its local
estimate; at communication times (``t % zeta == 0`` and ``t <= S``) a phase
of ``T`` consensus rounds mixes the sufficient statistics and refreshes the
post-communication estimate, which otherwise carries over unchanged. The
consensus rounds complete atomically between data steps. A central pooled
estimator over all agents' statistics is recorded as an oracle column;
errors are spectral norms against the ground truth.

The engine computes a run in batches over agents and steps rather than one
sample at a time: the running sums ``alpha`` and ``beta`` are cumulative
sums of the per-sample terms. The pooled sums are one more lane behind the
``m`` agents, so all ``m + 1`` lanes share one sticky rank rule and one
batched estimate, and the engine keeps their error norms, not the estimates.
A phase only reads the running sums unless its mixed sums are written back,
so the horizon is cut at communication times only with write-back; the
phases that fall in one piece are mixed by one ``W**T`` product.
``AgentState`` is the per-sample online form of the same recursion. On 2x2
matrices, the shape of the paper's example, the error norms, inverses and
rank tests are closed forms (``local_estimator``); other shapes use LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import WeightMatrix, run_comm_phase
from .local_estimator import full_rank, inverse, is_2x2, singular_values_2x2
from .model_gen import ModelSpec, SeededStream, sample_block
from .planner import Schedule

__all__ = ["SimConfig", "ErrorTrace", "run", "spectral_norms"]

# steps per block of draws; a block is the engine's largest working set, so
# memory does not grow with the horizon
BLOCK = 512
# matrices per lane in one estimate pass: a piece holds at most
# LANE_STEPS // (m + 1) steps, so its (steps, m + 1, ...) lanes and their
# temporaries do not grow with the number of agents
LANE_STEPS = 4096


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value over the trailing two axes."""
    if is_2x2(a):
        return singular_values_2x2(a)[0]
    return np.linalg.svd(a, compute_uv=False)[..., 0]


@dataclass(frozen=True)
class SimConfig:
    """One experiment: model, network, schedule, and replication settings."""

    model: ModelSpec
    weights: WeightMatrix
    schedule: Schedule
    horizon: int
    runs: int
    seed: int
    writeback_mixed: bool = False

    def __post_init__(self):
        if self.weights.m != self.model.m:
            raise ValueError(
                f"weight matrix is {self.weights.m}x{self.weights.m} "
                f"but the model has {self.model.m} agents"
            )
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.horizon < self.schedule.S:
            raise ValueError("horizon must cover the stopping time S")
        if not 1 <= self.runs <= 2**32:
            raise ValueError("runs must be in [1, 2**32]")


@dataclass
class ErrorTrace:
    """Per-step error columns of one run (or the average across runs)."""

    t: np.ndarray
    local_err: np.ndarray
    comm_err: np.ndarray
    global_err: np.ndarray
    comm_fired: np.ndarray
    pre_invertible_count: np.ndarray


def _block_increments(config: SimConfig, stream: SeededStream, run_index: int,
                      t_start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample terms ``y x^T`` and ``x x^T`` for steps ``t_start ..``, as
    ``(count, m, l, n)`` and ``(count, m, n, n)`` arrays."""
    x, y = sample_block(config.model, stream, run_index, t_start, count)
    return y[..., :, None] * x[..., None, :], x[..., :, None] * x[..., None, :]


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
    return spectral_norms(alpha @ inv - theta)


def _simulate_run(config: SimConfig, run_index: int) -> ErrorTrace:
    """One run, batched over agents and over the steps between cuts.

    The horizon is cut every ``BLOCK`` steps, every ``LANE_STEPS // (m + 1)``
    steps within a block, and, with write-back only, after every
    communication time. Within a piece the running sums are cumulative sums
    seeded with the carried sums. The ``m`` agents and the pooled sums behind
    them as lane ``m`` follow ``AgentState``'s sticky invertibility rule, and
    each piece is reduced to its error norms at once. The ``k`` phases of a
    piece are mixed by one ``run_comm_phase`` call; with write-back a piece
    ends at its one phase, whose mixed sums it carries on.
    """
    model, schedule = config.model, config.schedule
    horizon, m, l, n = config.horizon, model.m, model.l, model.n
    theta = model.theta
    stream = SeededStream(config.seed)
    comm_times = schedule.comm_times(horizon)
    trace = ErrorTrace(
        t=np.arange(1, horizon + 1),
        local_err=np.empty(horizon),
        comm_err=np.empty(horizon),
        global_err=np.empty(horizon),
        comm_fired=np.zeros(horizon, dtype=bool),
        pre_invertible_count=np.empty(horizon, dtype=np.int64),
    )
    trace.comm_fired[np.asarray(comm_times, dtype=np.int64) - 1] = True
    cut = (trace.t % BLOCK % max(1, LANE_STEPS // (m + 1)) == 0) | (trace.t == horizon)
    if config.writeback_mixed:
        cut |= trace.comm_fired

    # carried state: the agents' running sums after the last step and the
    # invertibility of all m + 1 lanes
    alpha, beta = np.zeros((m, l, n)), np.zeros((m, n, n))
    invertible = np.zeros(m + 1, dtype=bool)
    # the communicated error before the first phase (zero estimates), then per phase
    phase_err = [spectral_norms(np.zeros((m, l, n)) - theta).mean()]

    start = 0
    for end in (np.flatnonzero(cut) + 1).tolist():
        if start % BLOCK == 0:
            inc_alpha, inc_beta = _block_increments(
                config, stream, run_index, start + 1, min(BLOCK, horizon - start))
        rows = slice(start % BLOCK, start % BLOCK + end - start)
        a, b = inc_alpha[rows], inc_beta[rows]
        # same addition order as ``alpha += outer(y, x)`` step by step
        a[0] += alpha
        b[0] += beta
        np.cumsum(a, axis=0, out=a)
        np.cumsum(b, axis=0, out=b)
        lanes_a = np.concatenate([a, a.sum(axis=1, keepdims=True)], axis=1)
        lanes_b = np.concatenate([b, b.sum(axis=1, keepdims=True)], axis=1)
        flags = invertible | np.logical_or.accumulate(full_rank(lanes_b), axis=0)
        errs = _errors(lanes_a, lanes_b, flags, theta)
        alpha, beta = a[-1], b[-1]

        fired = np.flatnonzero(trace.comm_fired[start:end])
        if fired.size:
            # the sums at the k phases as (m, k * rows, cols): run_comm_phase
            # mixes along the agent axis and carries the others along
            k = fired.size
            mixed = run_comm_phase(config.weights,
                                   np.moveaxis(a[fired], 0, 1).reshape(m, k * l, n),
                                   np.moveaxis(b[fired], 0, 1).reshape(m, k * n, n),
                                   schedule.T)
            mixed_alpha, mixed_beta = (np.moveaxis(x.reshape(m, k, -1, n), 1, 0) for x in mixed)
            mixed_invertible = full_rank(mixed_beta)
            mixed_err = _errors(mixed_alpha, mixed_beta, mixed_invertible, theta)
            phase_err.extend(mixed_err.mean(axis=1))
            if config.writeback_mixed:
                # the piece ends at its one phase, its last row. W is doubly
                # stochastic, so mixing keeps the pooled sums and only the
                # agents' lanes change
                alpha, beta = mixed_alpha[-1], mixed_beta[-1]
                errs[-1, :m], flags[-1, :m] = mixed_err[-1], mixed_invertible[-1]

        invertible = flags[-1]
        piece = slice(start, end)
        trace.local_err[piece] = errs[:, :m].mean(axis=1)
        trace.global_err[piece] = errs[:, m]
        trace.pre_invertible_count[piece] = m - flags[:, :m].sum(axis=1)
        start = end
    trace.comm_err[:] = np.take(phase_err, np.searchsorted(comm_times, trace.t, side="right"))
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
