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


def _errors(alpha: np.ndarray, beta: np.ndarray, invertible: np.ndarray,
            theta: np.ndarray) -> np.ndarray:
    """Spectral-norm errors of the estimates ``alpha @ beta^-1`` against
    ``theta``: ``inverse`` where ``invertible`` holds, ``pinv`` elsewhere."""
    if invertible.all():
        return spectral_norms(alpha @ inverse(beta) - theta)
    est = np.empty_like(alpha)
    for mask, invert in ((invertible, inverse), (~invertible, np.linalg.pinv)):
        if mask.any():
            est[mask] = alpha[mask] @ invert(beta[mask])
    return spectral_norms(est - theta)


def _simulate_run(config: SimConfig, run_index: int) -> ErrorTrace:
    """One run, batched over agents and over the steps between cuts.

    The horizon is cut every ``BLOCK`` steps and after every communication
    time. Within a piece the running sums are cumulative sums seeded with the
    carried sums. The ``m`` agents and the pooled sums behind them as lane
    ``m`` follow ``AgentState``'s sticky invertibility rule, and each piece is
    reduced to its error norms at once.
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

    # carried state: the agents' running sums after the last step and the
    # invertibility of all m + 1 lanes
    alpha, beta = np.zeros((m, l, n)), np.zeros((m, n, n))
    invertible = np.zeros(m + 1, dtype=bool)
    # the communicated error before the first phase (zero estimates), then per phase
    phase_err = [spectral_norms(np.zeros((m, l, n)) - theta).mean()]

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
        lanes_a = np.concatenate([a, a.sum(axis=1, keepdims=True)], axis=1)
        lanes_b = np.concatenate([b, b.sum(axis=1, keepdims=True)], axis=1)
        flags = invertible | np.logical_or.accumulate(full_rank(lanes_b), axis=0)
        errs = _errors(lanes_a, lanes_b, flags, theta)
        alpha, beta = a[-1], b[-1]

        if trace.comm_fired[end - 1]:
            mixed_alpha, mixed_beta = run_comm_phase(config.weights, alpha, beta, schedule.T)
            mixed_invertible = full_rank(mixed_beta)
            mixed_err = _errors(mixed_alpha, mixed_beta, mixed_invertible, theta)
            phase_err.append(mixed_err.mean())
            if config.writeback_mixed:
                # W is doubly stochastic, so mixing keeps the pooled sums and
                # only the agents' lanes change
                alpha, beta = mixed_alpha, mixed_beta
                errs[-1, :m], flags[-1, :m] = mixed_err, mixed_invertible

        invertible = flags[-1]
        piece = slice(start, end)
        trace.local_err[piece] = errs[:, :m].mean(axis=1)
        trace.global_err[piece] = errs[:, m]
        trace.pre_invertible_count[piece] = m - flags[:, :m].sum(axis=1)
        start = end
    trace.comm_err[:] = np.take(phase_err, np.searchsorted(comm_times, trace.t, side="right"))
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
