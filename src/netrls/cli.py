"""Command-line driver: plan schedules, run simulations, evaluate bounds.

Commands::

    netrls plan <config.json> [-o result.json]
    netrls simulate <config.json> -o <trace.csv>
    netrls bounds <config.json> --at t1,t2,...

Exit codes: 0 ok, 2 configuration error, 3 runtime error. All file output
is byte-deterministic: floats are written with fixed significant digits
(17 in config/plan echoes, 12 in trace columns) and keys in sorted order.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict

import numpy as np

from .bounds import BoundInputs, BurnInError, comm_bound, global_bound, local_bound
from .config import (
    BOUND_KEYS,
    ConfigError,
    ResolvedConfig,
    _mean_to_dict,
    config_to_dict,
    load_config,
)
from .planner import PlanResult, Schedule, plan
from .simnet import ErrorTrace, SimConfig, run

__all__ = ["main"]

# trace rows are formatted from Python lists of this many rows at a time;
# lists of whole columns would add megabytes to long runs
ROWS_PER_CHUNK = 256


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _f12(x: float) -> str:
    return format(float(x), ".12g")


def _json_text(value, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        items = [
            f"{inner}\"{k}\": {_json_text(value[k], indent + 1)}" for k in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = [f"{inner}{_json_text(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _f17(value)
    if isinstance(value, str):
        return "\"" + value.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _check_output(path: str) -> None:
    """Reject an empty output path, or one whose directory does not exist,
    before any work."""
    if not path:
        raise ConfigError("--output", f"expected a file path, got {path!r}")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError("--output", f"the directory of {path!r} does not exist")


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Stream ``chunks`` into a temporary file beside ``path``, then rename it
    into place; ``path`` never holds a partial file, and errors name it."""
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as e:
        raise OSError(f"cannot write {path!r}: {e.strerror or e}") from e
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _matrix_flat(a: np.ndarray) -> str:
    return ",".join(_f17(v) for v in np.asarray(a).ravel())


def _trace_meta(cfg: ResolvedConfig, schedule: Schedule, planned: PlanResult | None) -> dict:
    meta = {
        **{f"bounds.{k}": _f17(getattr(cfg.bound_inputs, k)) for k in BOUND_KEYS},
        "model.l": str(cfg.model.l),
        "model.m": str(cfg.model.m),
        "model.mean_schedule": _mean_to_dict(cfg.model.mean)["kind"],
        "model.n": str(cfg.model.n),
        "model.sigma_eta": _f17(cfg.model.sigma_eta),
        "model.sigma_x": _f17(cfg.model.sigma_x),
        "model.theta": _matrix_flat(cfg.model.theta),
        "network.rho": _f17(cfg.weights.rho),
        "network.weights": _matrix_flat(cfg.weights.w),
        "run.horizon": str(cfg.run.horizon),
        "run.runs": str(cfg.run.runs),
        "run.seed": str(cfg.run.seed),
        "schedule.S": str(schedule.S),
        "schedule.T": str(schedule.T),
        "schedule.zeta": str(schedule.zeta),
    }
    if planned is not None:
        meta["plan.epsilon"] = _f17(planned.epsilon)
        meta["plan.epsilon_N"] = _f17(planned.epsilon_N)
        meta["plan.t_first"] = str(planned.t_first)
    return meta


def _past_burn_in(bound, ts: np.ndarray):
    """``(keep, report)``: ``bound`` evaluated in one call on the times of
    ``ts`` at or past its burn-in, and the mask of those times."""
    try:
        return np.ones(ts.shape, dtype=bool), bound(ts)
    except BurnInError as e:
        keep = ts >= e.valid_from
        return keep, bound(ts[keep])


def _aligned(values: np.ndarray, width: int):
    """``values`` formatted to 12 significant digits, right-aligned to ``width``."""
    return (f"{v:.12g}".rjust(width) for v in values.tolist())


def write_trace(path: str, trace: ErrorTrace, meta: dict,
                bound_inputs: BoundInputs, schedule: Schedule) -> None:
    """Write the averaged trace as CSV with a ``# key=value`` header block.

    Bound columns are evaluated in the conservative mode (mean second
    moments replaced by zero), and their cells below the bound's burn-in
    stay empty. ``trace.t`` ascends, so each bound's rows past its burn-in
    are a suffix, and a chunk of ``ROWS_PER_CHUNK`` rows splits into at most
    three burn-in segments. Each segment is formatted by one ``%`` template
    repeated over its rows, as the chunks are written, so no copy of the
    file is held.
    """
    header = [f"# {k}={meta[k]}\n" for k in sorted(meta)]
    header.append("t,local_err_mean,comm_err_mean,global_err,local_bound,comm_bound,"
                  "comm_fired,pre_invertible_count\n")
    rows = len(trace.t)
    # per bound: its values padded with zeros below its burn-in, and the
    # first row past it
    bound_columns, firsts = [], []
    for bound in (lambda ts: local_bound(bound_inputs, ts),
                  lambda ts: comm_bound(bound_inputs, ts, schedule.T)):
        _, report = _past_burn_in(bound, trace.t)
        firsts.append(rows - len(report.value))
        bound_columns.append(np.concatenate([np.zeros(firsts[-1]), report.value]))
    columns = (trace.t, trace.local_err, trace.comm_err, trace.global_err,
               *bound_columns, trace.comm_fired, trace.pre_invertible_count)

    def segments():
        for lo in range(0, rows, ROWS_PER_CHUNK):
            hi = min(lo + ROWS_PER_CHUNK, rows)
            # one float64 matrix: %d writes the whole numbers of t and
            # comm_fired as integers
            chunk = np.column_stack([c[lo:hi] for c in columns])
            edges = sorted({lo, hi, *(min(max(first, lo), hi) for first in firsts)})
            for start, end in zip(edges, edges[1:]):
                # a bound below its burn-in leaves its cell empty and takes no value
                cells = ["%d", "%.12g", "%.12g", "%.12g",
                         *("%.12g" if start >= first else "" for first in firsts),
                         "%d", "%.12g"]
                kept = [i for i, cell in enumerate(cells) if cell]
                values = chunk[start - lo:end - lo, kept].ravel().tolist()
                yield ((",".join(cells) + "\n") * (end - start)) % tuple(values)

    _write_atomic(path, itertools.chain(header, segments()))


def _resolve_schedule(cfg: ResolvedConfig) -> tuple[Schedule, PlanResult | None]:
    if cfg.schedule is not None:
        return cfg.schedule, None
    result = plan(cfg.bound_inputs, **asdict(cfg.plan))
    return result.schedule(), result


def cmd_plan(config_path: str, out_path: str) -> int:
    _check_output(out_path)
    cfg = load_config(config_path)
    if cfg.plan is None:
        raise ConfigError("plan", "the plan command needs a 'plan' section")
    _, result = _resolve_schedule(cfg)
    payload = {**asdict(result), "config": config_to_dict(cfg)}
    _write_atomic(out_path, [_json_text(payload), "\n"])
    print(f"consensus steps per phase: T = {result.T}")
    print(f"stopping time: S = {result.S} (first communication at t = {result.t_first})")
    print(f"mixing rate rho = {_f12(result.rho)}, period zeta = {result.zeta}")
    print(f"constants: C1 = {_f12(result.C1)}, c1 = {_f12(result.c1)}, "
          f"c2 = {_f12(result.c2)}, c3 = {_f12(result.c3)}")
    print(f"wrote {out_path}")
    return 0


def cmd_simulate(config_path: str, out_path: str) -> int:
    _check_output(out_path)
    cfg = load_config(config_path)
    if cfg.run is None:
        raise ConfigError("run", "the simulate command needs a 'run' section")
    schedule, planned = _resolve_schedule(cfg)
    try:
        sim = SimConfig(model=cfg.model, weights=cfg.weights, schedule=schedule, **asdict(cfg.run))
    except ValueError as e:
        # the run passed RunParams at load and the weights have m agents, so
        # only the horizon against the stopping time can fail here
        raise ConfigError("run.horizon", str(e)) from None
    averaged = run(sim)
    write_trace(out_path, averaged, _trace_meta(cfg, schedule, planned),
                cfg.bound_inputs, schedule)
    print(f"wrote {out_path} ({len(averaged.t)} rows, {cfg.run.runs} runs averaged)")
    return 0


def cmd_bounds(config_path: str, at: str) -> int:
    cfg = load_config(config_path)
    try:
        ts = [int(part) for part in at.split(",") if part.strip()]
        times = np.array(ts, dtype=float)
    except (ValueError, OverflowError):
        raise ConfigError("--at", f"expected comma-separated integers, got {at!r}") from None
    if not ts:
        raise ConfigError("--at", "needs at least one time step")
    schedule, _ = _resolve_schedule(cfg)
    bi = cfg.bound_inputs

    local_keep, local = _past_burn_in(lambda t: local_bound(bi, t), times)
    global_keep, glob = _past_burn_in(lambda t: global_bound(bi, t), times)
    comm_keep, comm = _past_burn_in(lambda t: comm_bound(bi, t, schedule.T), times)
    # per bound: its mask, its value columns, their cell widths, its note
    columns = [
        (local_keep.tolist(), [local.value], (12,), "local"),
        (global_keep.tolist(), [glob.value], (12,), "global"),
        (comm_keep.tolist(), [comm.value, comm.network_term, comm.noise_term], (14, 12, 12),
         "communicated"),
    ]
    # per bound, its joined cells of each row past its burn-in, made as printed
    cells = [map("  ".join, zip(*map(_aligned, values, widths)))
             for _, values, widths, _ in columns]

    print(f"{'t':>8}  {'local':>12}  {'global':>12}  {f'comm(T={schedule.T})':>14}  "
          f"{'network':>12}  {'noise':>12}  note")
    for i, t in enumerate(ts):
        parts, notes = [f"{t:>8}"], []
        for (keep, _, widths, name), row_cells in zip(columns, cells):
            if keep[i]:
                parts.append(next(row_cells))
            else:
                parts.extend("-".rjust(w) for w in widths)
                notes.append(name)
        print("  ".join(parts) + (f"  below burn-in: {', '.join(notes)}" if notes else ""))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netrls",
        description="Distributed online least-squares estimation: planner, simulator, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="compute consensus depth T and stopping time S")
    p_plan.add_argument("config")
    p_plan.add_argument("-o", "--output", default="plan_result.json")

    p_sim = sub.add_parser("simulate", help="run the simulation and write a CSV trace")
    p_sim.add_argument("config")
    p_sim.add_argument("-o", "--output", required=True)
    # the next benchmark change drops this flag and perfbench's use of it
    p_sim.add_argument("--parallel-runs", type=int, choices=[1], default=1,
                       help=argparse.SUPPRESS)

    p_bounds = sub.add_parser("bounds", help="tabulate the error bounds at given times")
    p_bounds.add_argument("config")
    p_bounds.add_argument("--at", required=True, help="comma-separated time steps")

    args = parser.parse_args(argv)
    try:
        if args.command == "plan":
            return cmd_plan(args.config, args.output)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.output)
        return cmd_bounds(args.config, args.at)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
