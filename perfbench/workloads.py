"""Benchmark workloads: each one is a netrls config generated from the seed.

The seed becomes the config's ``run.seed``; nothing else depends on it, so
the plan (``T``, ``S``) and every bound are the same for every seed and are
checked exactly against the committed reference.

Each workload keeps one ``simulate`` call near a second, so that a run
holds many calls and samples the host's speed between them often (see the
calibration in run.py). With ``--parallel-runs 1`` a call's cost is linear
in ``run.runs``.
"""

from __future__ import annotations

import json

# the paper's ground truth and noise levels, shared by every workload
THETA = [[1.6, 0.3], [0.8, 0.3]]
SIGMA_X = 3.0
SIGMA_ETA = 1.0
BOUNDS = {"delta": 0.05, "delta_hat": 0.001}

# seed at which the committed reference traces were recorded
REFERENCE_SEED = 1

# the bounds command is timed on this many time steps per call, so one
# call takes tens of milliseconds instead of one
LADDER_SIZE = 1000


def _model(m: int, mean: dict) -> dict:
    return {"theta": THETA, "n": 2, "l": 2, "m": m, "sigma_x": SIGMA_X,
            "sigma_eta": SIGMA_ETA, "mean_schedule": mean}


def _ring_weights(m: int) -> list[list[float]]:
    w = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in (i - 1, i, i + 1):
            w[i][j % m] = 1.0 / 3.0
    return w


def paper_ref(seed: int) -> dict:
    """configs/paper.json with the seed replaced and one of its ten runs per call."""
    return {
        "model": _model(6, {"kind": "zero"}),
        "network": {"weights": _ring_weights(6)},
        "bounds": dict(BOUNDS),
        "plan": {"zeta": 20, "epsilon": 0.5, "epsilon_N": 0.01},
        "run": {"horizon": 3000, "runs": 1, "seed": seed},
    }


def slow_mix_ring(seed: int) -> dict:
    """The paper's model and targets on a 64-agent ring (rho ~ 0.997)."""
    return {
        "model": _model(64, {"kind": "zero"}),
        "network": {"topology": "ring"},
        "bounds": dict(BOUNDS),
        "plan": {"zeta": 20, "epsilon": 0.5, "epsilon_N": 0.01},
        "run": {"horizon": 300, "runs": 1, "seed": seed},
    }


def long_horizon(seed: int) -> dict:
    """Two agents, complete graph, sinusoid means, one long run."""
    mean = {"kind": "sinusoid", "amplitudes": [[1.0, 0.5], [0.5, 1.0]],
            "periods": [400.0, 1000.0]}
    return {
        "model": _model(2, mean),
        "network": {"topology": "complete"},
        "bounds": dict(BOUNDS),
        "plan": {"zeta": 100, "epsilon": 0.5, "epsilon_N": 0.01},
        "run": {"horizon": 10000, "runs": 1, "seed": seed},
    }


WORKLOADS = {
    "paper-ref": paper_ref,
    "slow-mix-ring": slow_mix_ring,
    "long-horizon": long_horizon,
}


def config_text(workload: str, seed: int) -> str:
    """The config file's exact bytes (as text) for one workload and seed."""
    return json.dumps(WORKLOADS[workload](seed), indent=1, sort_keys=True) + "\n"


def ladder(horizon: int) -> list[int]:
    """Fixed ladder of times for the bounds command, spread over the horizon."""
    step = max(1, horizon // LADDER_SIZE)
    return [5 + k * step for k in range(LADDER_SIZE)]
