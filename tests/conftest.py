"""Shared fixtures: the reference experiment setup and random-matrix helpers."""

from __future__ import annotations

import time

import numpy as np
import pytest

import netrls as nr

# seed for the reference 10-run experiment and derived checks
REFERENCE_SEED = 1008


def reference_model() -> nr.ModelSpec:
    return nr.ModelSpec(
        theta=[[1.6, 0.3], [0.8, 0.3]], sigma_x=3.0, sigma_eta=1.0, m=6
    )


@pytest.fixture(scope="session")
def paper_model() -> nr.ModelSpec:
    return reference_model()


@pytest.fixture(scope="session")
def ring6() -> nr.WeightMatrix:
    return nr.ring_weights(6)


@pytest.fixture(scope="session")
def paper_inputs(paper_model, ring6) -> nr.BoundInputs:
    return nr.BoundInputs.from_model(paper_model, ring6, delta=0.05, delta_hat=0.001)


@pytest.fixture(scope="session")
def paper_schedule() -> nr.Schedule:
    return nr.Schedule(zeta=20, T=38, S=1620)


@pytest.fixture(scope="session")
def paper_sim(paper_model, ring6, paper_schedule):
    """10-run reference simulation over horizon 3000, with wall time."""
    config = nr.SimConfig(
        model=paper_model,
        weights=ring6,
        schedule=paper_schedule,
        horizon=3000,
        runs=10,
        seed=REFERENCE_SEED,
    )
    start = time.perf_counter()
    averaged = nr.run(config)
    elapsed = time.perf_counter() - start
    return config, averaged, elapsed


def random_connected_weights(rng: np.random.Generator, m: int) -> nr.WeightMatrix:
    """Metropolis-Hastings weights on a random connected graph.

    The diagonal is strictly positive, so the matrix is primitive and its
    mixing rate is below 1 for every connected graph.
    """
    adj = np.zeros((m, m), dtype=bool)
    order = rng.permutation(m)
    for k in range(1, m):
        i, j = order[k], order[rng.integers(0, k)]
        adj[i, j] = adj[j, i] = True
    for _ in range(int(rng.integers(0, m * (m - 1) // 2 + 1))):
        i, j = rng.integers(0, m, size=2)
        if i != j:
            adj[i, j] = adj[j, i] = True
    deg = adj.sum(axis=1)
    w = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if adj[i, j]:
                w[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
        w[i, i] = 1.0 - w[i].sum()
    return nr.validate_weights(w)
