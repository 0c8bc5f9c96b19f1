"""Stepwise reference simulator: one ``AgentState`` per agent, one sample at a time.

This is the literal reading of the two-time-scale loop and the oracle the
batched engine in ``netrls.simnet`` is checked against. Every data step each
agent ingests one pair through ``AgentState.ingest``; at communication times
a phase of ``T`` rounds mixes the statistics and refreshes the
post-communication estimate, which otherwise carries over unchanged: the
mixed ``alpha @ inv(beta)`` where the mixed ``beta`` passes the rank test and
``alpha @ pinv(beta)`` where it does not. The pooled estimate is
``sum(alpha) @ inv(sum(beta))`` from the first step whose ``sum(beta)`` passes
the rank test on, and ``sum(alpha) @ pinv(sum(beta))`` before it: the sticky
rule of ``AgentState``. All inverses are LAPACK's.
"""

from __future__ import annotations

import numpy as np

import netrls as nr
from netrls.local_estimator import AgentState, full_rank


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
        stream = nr.SeededStream(config.seed)
        # whole-horizon draws per agent; identical to stepwise sampling
        self._draws = [
            nr.sample_block(model, stream, run_index, i, 1, config.horizon)
            for i in range(model.m)
        ]

    def step(self) -> bool:
        """Advance one data step; returns True when a communication phase ran."""
        t = self.t + 1
        if t > self.config.horizon:
            raise RuntimeError("stepped past the configured horizon")
        for i, agent in enumerate(self.agents):
            x, y = self._draws[i]
            agent.ingest(x[t - 1], y[t - 1])
        if not self.pooled_invertible:
            self.pooled_invertible = bool(full_rank(self.pooled_statistics()[1]))

        fired = self.config.schedule.fires_at(t)
        if fired:
            alphas, betas = nr.run_comm_phase(
                self.config.weights,
                np.stack([a.alpha for a in self.agents]),
                np.stack([a.beta for a in self.agents]),
                self.config.schedule.T,
            )
            for i, agent in enumerate(self.agents):
                if self.config.writeback_mixed:
                    agent.replace_statistics(alphas[i], betas[i])
                    self.theta_comm[i] = agent.theta_local
                else:
                    invert = np.linalg.inv if full_rank(betas[i]) else np.linalg.pinv
                    self.theta_comm[i] = alphas[i] @ invert(betas[i])
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
