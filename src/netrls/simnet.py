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
sums of the per-sample terms, and the estimates are batched inverses.
``AgentState`` is the per-sample online form of the same recursion. On 2x2
matrices, the shape of the paper's example, the error norms, inverses and
rank tests are closed forms (``local_estimator``); other shapes use LAPACK.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .consensus import WeightMatrix, run_comm_phase
from .local_estimator import full_rank, inverse, is_2x2, singular_values_2x2
from .model_gen import ModelSpec, SeededStream, sample_block
from .planner import Schedule

__all__ = ["SimConfig", "ErrorTrace", "run", "spectral_norms"]

# steps per block of draws; a block is the engine's largest working set, so
# memory does not grow with the horizon
BLOCK = 512


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
        if self.runs < 1:
            raise ValueError("runs must be >= 1")


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
    # streams are keyed by agent, so each agent's block is one draw
    draws = [sample_block(config.model, stream, run_index, i, t_start, count)
             for i in range(config.model.m)]
    x = np.stack([d[0] for d in draws], axis=1)
    y = np.stack([d[1] for d in draws], axis=1)
    return y[..., :, None] * x[..., None, :], x[..., :, None] * x[..., None, :]


def _sticky_full_rank(beta: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Invertibility flags of a ``(steps, k, n, n)`` run of running sums.

    A lane is invertible from the first step whose ``beta`` passes
    :func:`full_rank` on, and throughout when ``start`` already holds for it,
    the rule ``AgentState`` applies between write-backs.
    """
    flags = np.broadcast_to(start, beta.shape[:2]).copy()
    pending = ~start
    if pending.any():
        flags[:, pending] = np.logical_or.accumulate(full_rank(beta[:, pending]), axis=0)
    return flags


def _estimates(alpha: np.ndarray, beta: np.ndarray, invertible: np.ndarray) -> np.ndarray:
    """``alpha @ beta^-1``: ``inverse`` where ``invertible`` holds, ``pinv`` elsewhere."""
    if invertible.all():
        return alpha @ inverse(beta)
    out = np.empty_like(alpha)
    for mask, invert in ((invertible, inverse), (~invertible, np.linalg.pinv)):
        if mask.any():
            out[mask] = alpha[mask] @ invert(beta[mask])
    return out


def _simulate_run(config: SimConfig, run_index: int) -> ErrorTrace:
    """One run, batched over agents and over the steps between cuts.

    The horizon is cut every ``BLOCK`` steps and after every communication
    time. Within a piece the running sums are cumulative sums seeded with the
    carried sums, the local and pooled estimates follow ``AgentState``'s
    invertibility rule, and each piece is reduced to its error columns at once.
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

    # carried state: running sums after the last step, their invertibility,
    # and the communicated error (zero estimates before the first phase)
    alpha, beta = np.zeros((m, l, n)), np.zeros((m, n, n))
    invertible, pooled_invertible = np.zeros(m, dtype=bool), np.zeros(1, dtype=bool)
    comm_err = spectral_norms(np.zeros((m, l, n)) - theta).mean()

    start = 0
    for end in sorted(set(comm_times).union(range(BLOCK, horizon, BLOCK), [horizon])):
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
        flags = _sticky_full_rank(b, invertible)
        local = _estimates(a, b, flags)
        pooled_a, pooled_b = a.sum(axis=1, keepdims=True), b.sum(axis=1, keepdims=True)
        pooled_flags = _sticky_full_rank(pooled_b, pooled_invertible)
        pooled = _estimates(pooled_a, pooled_b, pooled_flags)
        alpha, beta = a[-1], b[-1]
        invertible, pooled_invertible = flags[-1], pooled_flags[-1]
        piece = slice(start, end)
        trace.comm_err[piece] = comm_err

        if trace.comm_fired[end - 1]:
            mixed_alpha, mixed_beta = run_comm_phase(config.weights, alpha, beta, schedule.T)
            mixed_invertible = full_rank(mixed_beta)
            comm = _estimates(mixed_alpha, mixed_beta, mixed_invertible)
            comm_err = spectral_norms(comm - theta).mean()
            trace.comm_err[end - 1] = comm_err
            if config.writeback_mixed:
                # W is doubly stochastic, so mixing keeps the pooled sums and
                # only the agents' rows change
                alpha, beta, invertible = mixed_alpha, mixed_beta, mixed_invertible
                flags[-1] = invertible
                local[-1] = comm

        trace.local_err[piece] = spectral_norms(local - theta).mean(axis=1)
        trace.global_err[piece] = spectral_norms(pooled[:, 0] - theta)
        trace.pre_invertible_count[piece] = m - flags.sum(axis=1)
        start = end
    return trace


def run(config: SimConfig, parallel: int = 1) -> tuple[list[ErrorTrace], ErrorTrace]:
    """Simulate ``config.runs`` independent replications.

    Returns the per-run traces and the averaged trace (arithmetic mean of
    every error column across runs). Replications use disjoint substreams
    indexed by run, so results are independent of ``parallel`` and of
    execution order.
    """
    if parallel < 1:
        raise ValueError("parallel must be >= 1")
    indices = range(config.runs)
    workers = min(parallel, config.runs)
    if workers == 1:
        traces = [_simulate_run(config, r) for r in indices]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(partial(_simulate_run, config), indices))

    averaged = ErrorTrace(
        t=traces[0].t.copy(),
        local_err=np.mean([tr.local_err for tr in traces], axis=0),
        comm_err=np.mean([tr.comm_err for tr in traces], axis=0),
        global_err=np.mean([tr.global_err for tr in traces], axis=0),
        comm_fired=traces[0].comm_fired.copy(),
        pre_invertible_count=np.mean([tr.pre_invertible_count for tr in traces], axis=0),
    )
    return traces, averaged
