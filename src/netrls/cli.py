"""Command-line driver: plan schedules, run simulations, evaluate bounds.

Commands::

    netrls plan <config.json> [-o result.json]
    netrls simulate <config.json> -o <trace.csv>
    netrls bounds <config.json> --at t1,t2,...

Exit codes: 0 ok, 2 configuration error, 3 runtime error. All file output
is byte-deterministic: floats are written with fixed significant digits
(17 in config/plan echoes, 12 in trace columns) and keys in sorted order.

Numbers are formatted one block at a time. The trace and ``bounds`` fill a
``%`` template, repeated once per row, with a single ``%`` for each run of
rows with one burn-in pattern, split off by the one segmenter both tables
share (a bound's cells stay blank below its burn-in). A column that repeats
its values (the floats of the plan echo, the trace header's matrices, the
trace's step columns) has each run of equal cells formatted once
(``_run_texts``).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict, fields

import numpy as np

from .bounds import BoundInputs, BurnInError, comm_bound, global_bound, local_bound
from .config import (
    BOUND_KEYS,
    ConfigError,
    ResolvedConfig,
    config_to_dict,
    load_config,
)
from .planner import Schedule
from .simnet import ErrorTrace, RunParams, run

__all__ = ["main"]

# trace rows are formatted from Python lists of this many rows at a time;
# lists of whole columns would add megabytes to long runs
ROWS_PER_CHUNK = 256


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _f12(x: float) -> str:
    return format(float(x), ".12g")


def _json_text(value, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, two-space indents, floats at 17
    significant digits. A float ndarray is laid out as its ``tolist()``
    would be, its floats formatted in one pass (``_g17``)."""
    pad = "  " * indent
    inner = pad + "  "
    if isinstance(value, dict):
        body = ",\n".join([f"{inner}\"{k}\": {_json_text(value[k], indent + 1)}"
                           for k in sorted(value)])
        return f"{{\n{body}\n{pad}}}"
    if isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim:
        return _array_text(_g17(value.ravel()), value.shape, indent)
    if isinstance(value, (list, tuple)):
        body = ",\n".join([inner + _json_text(v, indent + 1) for v in value])
        return f"[\n{body}\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _f17(value)
    if isinstance(value, str):
        return "\"" + value.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _array_text(cells: list[str], shape: tuple, indent: int) -> str:
    """The JSON of a float ndarray of ``shape`` whose formatted floats, in C
    order, are ``cells``: nested rows, as ``_json_text`` writes its ``tolist()``."""
    pad = "  " * indent
    inner = pad + "  "
    if len(shape) > 1:
        size = math.prod(shape[1:])
        cells = [_array_text(cells[i * size:(i + 1) * size], shape[1:], indent + 1)
                 for i in range(shape[0])]
    body = inner + (",\n" + inner).join(cells) if cells else ""
    return f"[\n{body}\n{pad}]"


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


def _g17(values: np.ndarray) -> list[str]:
    """``%.17g`` of each item of the float64 vector ``values``, each run of
    equal items formatted once."""
    run, texts = _run_texts("%.17g", values)
    return texts[run].tolist()


def _trace_meta(cfg: ResolvedConfig) -> dict:
    meta = {
        **{f"bounds.{k}": _f17(getattr(cfg.bound_inputs, k)) for k in BOUND_KEYS},
        "model.l": str(cfg.model.l),
        "model.m": str(cfg.model.m),
        "model.mean_schedule": cfg.model.mean.kind,
        "model.n": str(cfg.model.n),
        "model.sigma_eta": _f17(cfg.model.sigma_eta),
        "model.sigma_x": _f17(cfg.model.sigma_x),
        "model.theta": ",".join(_g17(cfg.model.theta.ravel())),
        "network.rho": _f17(cfg.weights.rho),
        "network.weights": ",".join(_g17(cfg.weights.w.ravel())),
        **{f"run.{f.name}": str(getattr(cfg.run, f.name)) for f in fields(RunParams)},
        **{f"schedule.{f.name}": str(getattr(cfg.schedule, f.name)) for f in fields(Schedule)},
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


def _burn_in_segments(bounds, ts: np.ndarray):
    """Split the rows of ``ts`` into runs that share one burn-in pattern.

    ``bounds`` holds ``(bound, terms)`` pairs, ``terms`` naming the fields
    of the bound's report to tabulate. Each bound is evaluated in one call
    and its terms are padded with zeros below its burn-in. Yields
    ``(start, end, keep, columns)`` for each run of rows ``start:end``:
    per bound whether the run is past its burn-in, and the padded terms of
    the bounds it is past.
    """
    keeps, padded = [], []
    for bound, terms in bounds:
        keep, report = _past_burn_in(bound, ts)
        keeps.append(keep)
        padded.append([np.zeros(ts.shape) for _ in terms])
        for column, term in zip(padded[-1], terms):
            column[keep] = getattr(report, term)
    keeps = np.column_stack(keeps)
    changes = np.flatnonzero((keeps[1:] != keeps[:-1]).any(axis=1)) + 1
    edges = [0, *changes.tolist(), len(ts)] if len(ts) else []
    for start, end in zip(edges, edges[1:]):
        keep = keeps[start].tolist()
        yield start, end, keep, [c for k, cs in zip(keep, padded) if k for c in cs]


def _run_texts(template: str, *columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Format each run of rows whose cells in ``columns`` have the same bits
    (and so print alike) once: ``(run, texts)``, where row ``i`` reads
    ``texts[run[i]]`` and ``texts`` is an object array of ``template % cells``,
    all filled by a single ``%``."""
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for column in columns:
        bits = column.view(f"u{column.itemsize}")
        new[1:] |= bits[1:] != bits[:-1]
    firsts = [column[new].tolist() for column in columns]
    # interleaved by zip only when there are two columns or more: on a long
    # column that costs a tenth of the formatting
    cells = itertools.chain.from_iterable(zip(*firsts)) if len(firsts) > 1 else firsts[0]
    # each run's text ends in a NUL, which no template and no number holds
    texts = ((template + "\0") * len(firsts[0]) % tuple(cells)).split("\0")[:-1]
    return np.cumsum(new) - 1, np.array(texts, dtype=object)


def write_trace(path: str, trace: ErrorTrace, meta: dict,
                bound_inputs: BoundInputs, schedule: Schedule) -> None:
    """Write the averaged trace as CSV with a ``# key=value`` header block.

    Bound columns are evaluated in the conservative mode (mean second
    moments replaced by zero), and their cells below the bound's burn-in
    stay empty. The step columns ``comm_err`` (constant between phases),
    ``comm_fired`` and ``pre_invertible_count`` are formatted once per run of
    equal cells (``_run_texts``). Each burn-in segment (``_burn_in_segments``)
    is formatted ``ROWS_PER_CHUNK`` rows at a time by one ``%`` template
    repeated over them, as the chunks are written, so no copy of the file is
    held.
    """
    header = [f"# {k}={meta[k]}\n" for k in sorted(meta)]
    header.append("t,local_err_mean,comm_err_mean,global_err,local_bound,comm_bound,"
                  "comm_fired,pre_invertible_count\n")
    bounds = [(lambda ts: local_bound(bound_inputs, ts), ("value",)),
              (lambda ts: comm_bound(bound_inputs, ts, schedule.T), ("value",))]

    comm_run, comm_texts = _run_texts("%.12g", trace.comm_err)
    tail_run, tail_texts = _run_texts("%d,%.12g\n", trace.comm_fired,
                                      trace.pre_invertible_count)

    def segments():
        for start, end, keep, bound_columns in _burn_in_segments(bounds, trace.t):
            # a bound below its burn-in leaves its cell empty and takes no value
            row = ",".join(["%d", "%.12g", "%s", "%.12g",
                            *("%.12g" if k else "" for k in keep), "%s"])
            for lo in range(start, end, ROWS_PER_CHUNK):
                hi = min(lo + ROWS_PER_CHUNK, end)
                columns = (trace.t[lo:hi], trace.local_err[lo:hi], comm_texts[comm_run[lo:hi]],
                           trace.global_err[lo:hi], *(c[lo:hi] for c in bound_columns),
                           tail_texts[tail_run[lo:hi]])
                values = zip(*(c.tolist() for c in columns))
                yield (row * (hi - lo)) % tuple(itertools.chain.from_iterable(values))

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

    bounds = [(lambda t: local_bound(bi, t), ("value",)),
              (lambda t: global_bound(bi, t), ("value",)),
              (lambda t: comm_bound(bi, t, schedule.T), ("value", "network_term", "noise_term"))]
    # per bound: its cell widths and its note
    cells_of = [((12,), "local"), ((12,), "global"), ((14, 12, 12), "communicated")]
    table = []
    for start, end, keep, columns in _burn_in_segments(bounds, times):
        cells, notes = ["%8d"], []
        for kept, (widths, name) in zip(keep, cells_of):
            if kept:
                cells.extend(f"%{w}.12g" for w in widths)
            else:
                cells.extend("-".rjust(w) for w in widths)
                notes.append(name)
        row = "  ".join(cells) + (f"  below burn-in: {', '.join(notes)}" if notes else "")
        # t from the parsed ints, so times past 2**53 print exactly
        rows = zip(ts[start:end], *(c[start:end].tolist() for c in columns))
        table.append((row + "\n") * (end - start) % tuple(itertools.chain.from_iterable(rows)))

    print(f"{'t':>8}  {'local':>12}  {'global':>12}  {f'comm(T={schedule.T})':>14}  "
          f"{'network':>12}  {'noise':>12}  note")
    print("".join(table), end="")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call in a process and
    reused after it: parsing reads the parser and changes nothing in it."""
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

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
