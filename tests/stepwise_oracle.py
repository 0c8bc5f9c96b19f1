"""Stepwise reference simulator: one ``AgentState`` per agent, one sample at a time.

This is the literal reading of the two-time-scale loop and the oracle the
batched engine in ``netrls.simnet`` is checked against. Every data step each
agent ingests one pair through ``AgentState.ingest``; at communication times
a phase of ``T`` rounds ``x <- W x``, one round at a time, mixes copies of
the statistics and refreshes the post-communication estimate, which
otherwise carries over unchanged: the mixed ``alpha @ inv(beta)`` where the
mixed ``beta`` passes the rank test and ``alpha @ pinv(beta)`` where it does
not. The pooled estimate is ``sum(alpha) @ inv(sum(beta))`` from the first
step whose ``sum(beta)`` passes the rank test on, and
``sum(alpha) @ pinv(sum(beta))`` before it: the sticky rule of
``AgentState``. All inverses, singular values and norms are LAPACK's. Of the
engine, the oracle uses only the draws (``sample_block``) and the rank
tolerance ``RANK_TOL``, so a fault in the engine's mixing, rank test or
closed forms shows as a difference.
"""

from __future__ import annotations

import numpy as np

import netrls as nr
from netrls.simnet import RANK_TOL


def full_rank(beta: np.ndarray) -> bool:
    """The rank test by its definition: LAPACK's singular values of ``beta``,
    the smallest above ``RANK_TOL`` times the largest, which is positive."""
    sv = np.linalg.svd(beta, compute_uv=False)
    return bool(sv[0] > 0 and sv[-1] > RANK_TOL * sv[0])


def mix(w: np.ndarray, stats: np.ndarray, rounds: int) -> np.ndarray:
    """``rounds`` consensus rounds ``x <- W x`` along the agent axis, one at a time."""
    for _ in range(rounds):
        stats = np.einsum("ij,j...->i...", w, stats)
    return stats


class AgentState:
    """Streaming least-squares state of one agent: the sums ``alpha = sum y x^T``
    and ``beta = sum x x^T``, and the estimate ``alpha @ inv(beta)`` once
    ``beta`` has passed the rank test, ``alpha @ pinv(beta)`` before."""

    __slots__ = ("alpha", "beta", "invertible", "theta_local")

    def __init__(self, n: int, l: int):
        if n < 1 or l < 1:
            raise ValueError("dimensions must be >= 1")
        self.alpha = np.zeros((l, n))
        self.beta = np.zeros((n, n))
        self.invertible = False
        self.theta_local = np.zeros((l, n))

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
        self.invertible = self.invertible or bool(full_rank(self.beta))
        invert = np.linalg.inv if self.invertible else np.linalg.pinv
        self.theta_local = self.alpha @ invert(self.beta)


class SimWorld:
    """Mutable state of a single run, advanced one data step at a time."""

    def __init__(self, config: nr.SimConfig, run_index: int = 0):
        self.config = config
        self.run_index = run_index
        self.t = 0
        model = config.model
        self.agents: list[AgentState] = [AgentState(model.n, model.l) for _ in range(model.m)]
        # each agent's post-communication estimate, zero before the first phase
        self.theta_comm = np.zeros((model.m, model.l, model.n))
        self.pooled_invertible = False
        # whole-horizon draws of every agent; identical to stepwise sampling
        self._x, self._y = nr.sample_block(model, config.seed, run_index, 1, config.horizon)

    def step(self) -> bool:
        """Advance one data step; returns True when a communication phase ran."""
        t = self.t + 1
        if t > self.config.horizon:
            raise RuntimeError("stepped past the configured horizon")
        for i, agent in enumerate(self.agents):
            agent.ingest(self._x[t - 1, i], self._y[t - 1, i])
        if not self.pooled_invertible:
            self.pooled_invertible = bool(full_rank(self.pooled_statistics()[1]))

        schedule = self.config.schedule
        fired = t % schedule.zeta == 0 and t <= schedule.S
        if fired:
            w = self.config.weights.w
            alphas = mix(w, np.stack([a.alpha for a in self.agents]), schedule.T)
            betas = mix(w, np.stack([a.beta for a in self.agents]), schedule.T)
            for i, (alpha, beta) in enumerate(zip(alphas, betas)):
                invert = np.linalg.inv if full_rank(beta) else np.linalg.pinv
                self.theta_comm[i] = alpha @ invert(beta)
        self.t = t
        return fired

    def pooled_statistics(self) -> tuple[np.ndarray, np.ndarray]:
        alpha = np.sum([a.alpha for a in self.agents], axis=0)
        beta = np.sum([a.beta for a in self.agents], axis=0)
        return alpha, beta

    def global_estimate(self) -> np.ndarray:
        """Pooled least-squares estimate over all agents' statistics."""
        alpha, beta = self.pooled_statistics()
        invert = np.linalg.inv if self.pooled_invertible else np.linalg.pinv
        return alpha @ invert(beta)

    def pre_invertible_count(self) -> int:
        return sum(1 for a in self.agents if a.pre_invertible)


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value over the trailing two axes, by its definition."""
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def simulate_run(config: nr.SimConfig, run_index: int) -> nr.ErrorTrace:
    """Error trace of one run, stepped one sample at a time."""
    world = SimWorld(config, run_index)
    model = config.model
    horizon, m = config.horizon, model.m
    local = np.empty((horizon, m, model.l, model.n))
    comm = np.empty((horizon, m, model.l, model.n))
    pooled = np.empty((horizon, model.l, model.n))
    fired = np.zeros(horizon, dtype=bool)
    pre_count = np.zeros(horizon, dtype=np.int64)

    for t in range(1, horizon + 1):
        fired[t - 1] = world.step()
        for i, agent in enumerate(world.agents):
            local[t - 1, i] = agent.theta_local
        comm[t - 1] = world.theta_comm
        pooled[t - 1] = world.global_estimate()
        pre_count[t - 1] = world.pre_invertible_count()

    theta = model.theta
    return nr.ErrorTrace(
        t=np.arange(1, horizon + 1),
        local_err=spectral_norms(local - theta).mean(axis=1),
        comm_err=spectral_norms(comm - theta).mean(axis=1),
        global_err=spectral_norms(pooled - theta),
        comm_fired=fired,
        pre_invertible_count=pre_count,
    )
