"""JSON experiment configuration: loading, validation, resolution.

A config file has sections ``model``, ``network``, optional ``bounds``,
exactly one of ``plan`` or ``schedule``, and (for simulation) ``run``.
Matrices may be given as nested rows or as flat row-major arrays.
Validation errors carry the dotted path of the offending field.

A ``plan`` section is planned once every section is checked, so
``ResolvedConfig.schedule`` is always set and ``planned`` holds the planner's
result (None for a ``schedule`` section); an unreachable target raises
``StoppingTimeNotReachable`` from ``load_config``. A ``run`` section
resolves to the ``SimConfig`` that ``simnet.run`` takes, so its horizon is
checked against the stopping time whichever section sets it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .bounds import BoundInputs
from .consensus import (
    WeightMatrix,
    WeightMatrixError,
    complete_weights,
    ring_weights,
    validate_weights,
)
from .model_gen import ConstantMean, ModelSpec, SinusoidMean, ZeroMean
from .planner import DEFAULT_MAX_T, PlanResult, Schedule, plan
from .simnet import RunParams, SimConfig

__all__ = ["ConfigError", "PlanParams", "ResolvedConfig", "BOUND_KEYS", "load_config",
           "resolve_config", "config_to_dict"]

# the ``bounds`` fields a config may set; each one that it leaves out takes
# the default of ``BoundInputs.from_model``
BOUND_KEYS = ("sigma_x_lower", "sigma_x_upper", "sigma_eta_upper", "mu_hat_upper",
              "theta_norm_upper", "delta", "delta_hat")


class ConfigError(Exception):
    """Invalid or missing configuration; ``path`` is the dotted field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class PlanParams:
    """The ``plan`` section, echoed in the plan output; ``plan`` checks it."""

    zeta: int
    epsilon: float
    epsilon_N: float
    max_t: int = DEFAULT_MAX_T


@dataclass(frozen=True)
class ResolvedConfig:
    model: ModelSpec
    weights: WeightMatrix
    bound_inputs: BoundInputs
    plan: PlanParams | None
    schedule: Schedule
    planned: PlanResult | None
    run: SimConfig | None


def _json_number(v, path: str) -> None:
    """Check that ``v`` is a JSON number; booleans and strings are not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {v!r}")


def _json_numbers(raw, path: str) -> None:
    """Check that every entry of the nested lists ``raw`` is a JSON number."""
    if isinstance(raw, list):
        for v in raw:
            _json_numbers(v, path)
    else:
        _json_number(raw, path)


class _Section:
    """Typed accessors over one config dict, tracking dotted paths."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigError(path, f"expected an object, got {type(data).__name__}")
        self.data = data
        self.path = path

    def sub(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def require(self, key: str):
        if key not in self.data:
            raise ConfigError(self.sub(key), "required field is missing")
        return self.data[key]

    def given(self, read, keys) -> dict:
        """``read(key)`` for each of ``keys`` that the section sets, so a
        field left out takes the default of whatever the dict is passed to."""
        return {k: read(k) for k in keys if k in self.data}

    def _array(self, key: str, shape: tuple) -> np.ndarray:
        """The field ``key`` as a finite float array of ``shape``: a JSON
        number for ``()``, nested lists of them otherwise. A ``(rows, cols)``
        matrix may also be given as a flat row-major list."""
        raw, path = self.require(key), self.sub(key)
        (_json_numbers if shape else _json_number)(raw, path)
        try:
            arr = np.asarray(raw, dtype=float)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(path, "entries must be finite, got inf") from None
        except ValueError:  # every entry is a number, so the nesting is uneven
            raise ConfigError(path, "ragged array: rows differ in length or mix "
                                    "numbers with arrays") from None
        if len(shape) == 2 and arr.ndim == 1:
            size = shape[0] * shape[1]
            if arr.size != size:
                raise ConfigError(path, f"flat row-major array has {arr.size} entries, "
                                        f"expected {size}")
            arr = arr.reshape(shape)
        if arr.shape != shape:
            raise ConfigError(path, f"has shape {arr.shape}, expected {shape}")
        bad = arr[~np.isfinite(arr)]
        if bad.size:
            raise ConfigError(path, f"entries must be finite, got {float(bad[0])!r}")
        return arr

    def number(self, key: str) -> float:
        return float(self._array(key, ()))

    def integer(self, key: str) -> int:
        v = self.require(key)
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(self.sub(key), f"expected an integer, got {v!r}")
        if not -2**63 <= v < 2**64:  # numpy takes it as an int64 or uint64
            raise ConfigError(self.sub(key), "must fit in 64 bits")
        return v

    def vector(self, key: str, length: int) -> np.ndarray:
        return self._array(key, (length,))

    def matrix(self, key: str, rows: int, cols: int) -> np.ndarray:
        return self._array(key, (rows, cols))

    def build(self, make, *args, **fields):
        """``make(*args, **fields)``, whose ``ValueError`` names the field of
        this section that failed (``owner_error``)."""
        try:
            return make(*args, **fields)
        except ValueError as e:
            raise self.owner_error(e) from None

    def owner_error(self, error: ValueError) -> ConfigError:
        """``error`` from the object this section configures, at the first
        field its message names that the section sets. The message opens with
        the field that failed, which may be one the section left to its
        default, as in a check across two fields."""
        message = str(error)
        field = next((w for w in message.replace(",", " ").split() if w in self.data), None)
        if field is None:
            return ConfigError(self.path, message)
        if message.startswith(field + " "):
            message = message[len(field) + 1:]
        return ConfigError(self.sub(field), message)

    def unknown_keys(self, allowed: set[str]) -> None:
        extra = set(self.data) - allowed
        if extra:
            raise ConfigError(self.sub(sorted(extra)[0]), "unknown field")


def _resolve_mean(section: _Section, m: int, n: int):
    kind = section.data.get("kind")
    if kind == "zero":
        section.unknown_keys({"kind"})
        return ZeroMean()
    if kind == "constant":
        section.unknown_keys({"kind", "vectors"})
        return ConstantMean(vectors=section.matrix("vectors", m, n))
    if kind == "sinusoid":
        section.unknown_keys({"kind", "amplitudes", "periods"})
        return section.build(SinusoidMean, amplitudes=section.matrix("amplitudes", m, n),
                             periods=section.vector("periods", m))
    raise ConfigError(section.sub("kind"), f"expected 'zero', 'constant' or 'sinusoid', got {kind!r}")


def _resolve_model(section: _Section) -> ModelSpec:
    section.unknown_keys({"theta", "n", "l", "m", "sigma_x", "sigma_eta", "mean_schedule"})
    n = section.integer("n")
    l = section.integer("l")
    m = section.integer("m")
    if n < 1 or l < 1:
        raise ConfigError(section.sub("n" if n < 1 else "l"), "must be >= 1")
    if m < 1:
        raise ConfigError(section.sub("m"), "must be >= 1")
    theta = section.matrix("theta", l, n)
    mean_raw = section.data.get("mean_schedule", {"kind": "zero"})
    mean = _resolve_mean(_Section(mean_raw, section.sub("mean_schedule")), m, n)
    return section.build(ModelSpec, theta=theta, sigma_x=section.number("sigma_x"),
                         sigma_eta=section.number("sigma_eta"), m=m, mean=mean)


def _resolve_network(section: _Section, m: int) -> WeightMatrix:
    if "weights" in section.data:
        section.unknown_keys({"weights"})
        try:
            return validate_weights(section.matrix("weights", m, m))
        except WeightMatrixError as e:
            raise ConfigError(section.sub("weights"), f"{e.clause}: {e}") from None
    topology = section.data.get("topology")
    if topology == "ring":
        section.unknown_keys({"topology", "self_weight"})
        return section.build(ring_weights, m,
                             **section.given(section.number, ["self_weight"]))
    if topology == "complete":
        section.unknown_keys({"topology"})
        return complete_weights(m)
    raise ConfigError(
        section.path, "needs either 'weights' or 'topology' in {'ring', 'complete'}"
    )


def resolve_config(data: dict, command: str | None = None) -> ResolvedConfig:
    """Validate a parsed JSON object and build the typed configuration.

    ``command`` names the CLI command the config is for; the section that
    command needs (``plan`` for plan, ``run`` for simulate) is checked
    before the plan search."""
    root = _Section(data, "")
    root.unknown_keys({"model", "network", "bounds", "plan", "schedule", "run"})
    model = _resolve_model(_Section(root.require("model"), "model"))
    weights = _resolve_network(_Section(root.require("network"), "network"), model.m)
    bounds = _Section(root.data.get("bounds", {}), "bounds")
    bounds.unknown_keys(set(BOUND_KEYS))
    bound_inputs = bounds.build(BoundInputs.from_model, model, weights,
                                **bounds.given(bounds.number, BOUND_KEYS))

    has_plan = "plan" in data
    has_schedule = "schedule" in data
    if has_plan == has_schedule:
        raise ConfigError(
            "plan" if has_plan else "schedule",
            "exactly one of 'plan' or 'schedule' must be present",
        )

    plan_params = None
    if has_plan:
        plan_sec = _Section(data["plan"], "plan")
        plan_sec.unknown_keys({"zeta", "epsilon", "epsilon_N", "max_t"})
        plan_params = PlanParams(zeta=plan_sec.integer("zeta"),
                                 epsilon=plan_sec.number("epsilon"),
                                 epsilon_N=plan_sec.number("epsilon_N"),
                                 **plan_sec.given(plan_sec.integer, ["max_t"]))
    else:
        sec = _Section(data["schedule"], "schedule")
        sec.unknown_keys({"zeta", "T", "S"})
        schedule = sec.build(Schedule, zeta=sec.integer("zeta"), T=sec.integer("T"),
                             S=sec.integer("S"))

    run = None
    if "run" in data:
        run_sec = _Section(data["run"], "run")
        run_sec.unknown_keys({"horizon", "runs", "seed"})
        run = run_sec.build(RunParams, seed=run_sec.integer("seed"),
                            horizon=run_sec.integer("horizon"), runs=run_sec.integer("runs"))

    needs = {"plan": "plan", "simulate": "run"}.get(command)
    if needs is not None and needs not in data:
        raise ConfigError(needs, f"the {command} command needs a '{needs}' section")
    # planned last, so that no bad field waits on the search
    planned = None
    if plan_params is not None:
        planned = plan_sec.build(plan, bound_inputs, **asdict(plan_params))
        schedule = planned.schedule()
    if run is not None:
        run = run_sec.build(SimConfig, model=model, weights=weights, schedule=schedule,
                            **asdict(run))
    return ResolvedConfig(model=model, weights=weights, bound_inputs=bound_inputs,
                          plan=plan_params, schedule=schedule, planned=planned, run=run)


def load_config(path: str, command: str | None = None) -> ResolvedConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(str(path), f"cannot read config: {e}") from None
    except ValueError as e:  # a JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(str(path), f"invalid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(str(path), "top-level JSON value must be an object")
    return resolve_config(data, command)


def _mean_to_dict(mean) -> dict:
    if isinstance(mean, ZeroMean):
        return {"kind": "zero"}
    if isinstance(mean, ConstantMean):
        return {"kind": "constant", "vectors": mean.vectors.tolist()}
    return {
        "kind": "sinusoid",
        "amplitudes": mean.amplitudes.tolist(),
        "periods": mean.periods.tolist(),
    }


def config_to_dict(cfg: ResolvedConfig) -> dict:
    """Canonical JSON-ready form of a resolved config (dense weights,
    explicit bounds). Re-resolving it reproduces identical outputs."""
    out: dict = {
        "model": {
            "theta": cfg.model.theta.tolist(),
            "n": cfg.model.n,
            "l": cfg.model.l,
            "m": cfg.model.m,
            "sigma_x": cfg.model.sigma_x,
            "sigma_eta": cfg.model.sigma_eta,
            "mean_schedule": _mean_to_dict(cfg.model.mean),
        },
        "network": {"weights": cfg.weights.w.tolist()},
        "bounds": {k: getattr(cfg.bound_inputs, k) for k in BOUND_KEYS},
    }
    # a planned config echoes its plan section, not the schedule planned from it
    section = "schedule" if cfg.planned is None else "plan"
    out[section] = asdict(getattr(cfg, section))
    if cfg.run is not None:
        out["run"] = {f.name: getattr(cfg.run, f.name) for f in fields(RunParams)}
    return out
