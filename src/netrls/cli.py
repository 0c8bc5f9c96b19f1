"""Command-line driver: plan schedules, run simulations, evaluate bounds.

Commands::

    netrls plan <config.json> [-o result.json]
    netrls simulate <config.json> -o <trace.csv>
    netrls bounds <config.json> --at t1,t2,...

Exit codes: 0 ok, 2 configuration error, 3 runtime error. All file output
is byte-deterministic: floats are written with fixed significant digits
(17 in config/plan echoes, 12 in trace columns) and keys in sorted order.

Numbers are formatted one block at a time: a ``%`` template repeated once
per value (or row) of the block and filled by a single ``%``. This is how
the plan echo writes a float array, the trace header a matrix, the trace a
burn-in segment of rows and ``bounds`` a run of rows with one burn-in
pattern.
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
from .planner import Schedule
from .simnet import ErrorTrace, run

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
        if all(isinstance(v, (float, np.floating)) for v in value):
            # a float array: one template per item, filled by a single %
            text = ",\n".join([inner + "%.17g"] * len(value)) % tuple(value)
        else:
            text = ",\n".join(f"{inner}{_json_text(v, indent + 1)}" for v in value)
        return "[\n" + text + "\n" + pad + "]"
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
    """Reject an empty output path, a directory, or a path whose directory
    does not exist, before any work."""
    if not path:
        raise ConfigError("--output", f"expected a file path, got {path!r}")
    if os.path.isdir(path):
        raise ConfigError("--output", f"{path!r} is a directory, expected a file path")
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
    values = np.asarray(a, dtype=float).ravel().tolist()
    return ",".join(["%.17g"] * len(values)) % tuple(values)


def _trace_meta(cfg: ResolvedConfig) -> dict:
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
        "schedule.S": str(cfg.schedule.S),
        "schedule.T": str(cfg.schedule.T),
        "schedule.zeta": str(cfg.schedule.zeta),
    }
    if cfg.planned is not None:
        meta["plan.epsilon"] = _f17(cfg.planned.epsilon)
        meta["plan.epsilon_N"] = _f17(cfg.planned.epsilon_N)
        meta["plan.t_first"] = str(cfg.planned.t_first)
    return meta


def _past_burn_in(bound, ts: np.ndarray):
    """``(keep, report)``: ``bound`` evaluated in one call on the times of
    ``ts`` at or past its burn-in, and the mask of those times."""
    try:
        return np.ones(ts.shape, dtype=bool), bound(ts)
    except BurnInError as e:
        keep = ts >= e.valid_from
        return keep, bound(ts[keep])


def write_trace(path: str, trace: ErrorTrace, meta: dict,
                bound_inputs: BoundInputs, schedule: Schedule) -> None:
    """Write the averaged trace as CSV with a ``# key=value`` header block.

    Bound columns are evaluated in the conservative mode (mean second
    moments replaced by zero), and their cells below the bound's burn-in
    stay empty. ``trace.t`` ascends, so each bound's rows past its burn-in
    are a suffix, and a chunk of ``ROWS_PER_CHUNK`` rows splits into at most
    three burn-in segments. Each segment is formatted by one ``%`` template
    repeated over its rows (the module's block idiom), as the chunks are
    written, so no copy of the file is held.
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


def cmd_plan(config_path: str, out_path: str) -> int:
    _check_output(out_path)
    cfg = load_config(config_path, "plan")
    result = cfg.planned
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
    cfg = load_config(config_path, "simulate")
    averaged = run(cfg.run)
    write_trace(out_path, averaged, _trace_meta(cfg), cfg.bound_inputs, cfg.schedule)
    print(f"wrote {out_path} ({len(averaged.t)} rows, {cfg.run.runs} runs averaged)")
    return 0


def cmd_bounds(config_path: str, at: str) -> int:
    parts = [part for part in map(str.strip, at.split(",")) if part]
    try:
        # int() alone would also take '_' separators and non-ASCII digits
        if "_" in at or not "".join(parts).isascii():
            raise ValueError(at)
        ts = [int(part) for part in parts]
        times = np.array(ts, dtype=float)
    except (ValueError, OverflowError):
        raise ConfigError("--at", f"expected comma-separated integers, got {at!r}") from None
    if not ts:
        raise ConfigError("--at", "needs at least one time step")
    # read (and plan) the config only once the times are known to be good
    cfg = load_config(config_path)
    schedule, bi = cfg.schedule, cfg.bound_inputs

    local_keep, local = _past_burn_in(lambda t: local_bound(bi, t), times)
    global_keep, glob = _past_burn_in(lambda t: global_bound(bi, t), times)
    comm_keep, comm = _past_burn_in(lambda t: comm_bound(bi, t, schedule.T), times)
    keeps = np.column_stack([local_keep, global_keep, comm_keep])
    # the five value columns, padded with zeros below their bound's burn-in
    # as in write_trace
    values = np.zeros((len(ts), 5))
    values[local_keep, 0] = local.value
    values[global_keep, 1] = glob.value
    values[comm_keep, 2:] = np.column_stack([comm.value, comm.network_term, comm.noise_term])
    # per bound: its value columns, their cell widths, its note
    columns = [((0,), (12,), "local"), ((1,), (12,), "global"),
               ((2, 3, 4), (14, 12, 12), "communicated")]

    # the rows between two changes of the burn-in pattern form a segment,
    # formatted by one row template repeated over its rows
    changes = np.flatnonzero((keeps[1:] != keeps[:-1]).any(axis=1)) + 1
    edges = [0, *changes.tolist(), len(ts)]
    table = []
    for start, end in zip(edges, edges[1:]):
        cells, kept, notes = ["%8d"], [], []
        for keep, (cols, widths, name) in zip(keeps[start].tolist(), columns):
            if keep:
                cells.extend(f"%{w}.12g" for w in widths)
                kept.extend(cols)
            else:
                cells.extend("-".rjust(w) for w in widths)
                notes.append(name)
        row = "  ".join(cells) + (f"  below burn-in: {', '.join(notes)}" if notes else "")
        # t from the parsed ints, so times past 2**53 print exactly
        rows = zip(ts[start:end], *values[start:end, kept].T.tolist())
        table.append((row + "\n") * (end - start) % tuple(itertools.chain.from_iterable(rows)))

    print(f"{'t':>8}  {'local':>12}  {'global':>12}  {f'comm(T={schedule.T})':>14}  "
          f"{'network':>12}  {'noise':>12}  note")
    print("".join(table), end="")
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
