"""Output checks for the plan, simulate and bounds commands.

Every check raises :class:`CheckError` on the first mismatch. Checks that do
not depend on the seed run on every call: the plan's ``T`` and ``S``, the
trace's row count and ``comm_fired`` column, and every bound value. At the
seed the reference was recorded with, the error columns and
``pre_invertible_count`` are compared as well.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-9

TRACE_COLUMNS = ["t", "local_err_mean", "comm_err_mean", "global_err", "local_bound",
                 "comm_bound", "comm_fired", "pre_invertible_count"]
ERROR_COLUMNS = (1, 2, 3)
BOUND_COLUMNS = (4, 5)
PRE_INVERTIBLE = 7
# bounds command cells after t: local, global, comm, network, noise
BOUNDS_CELLS = 5

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class CheckError(Exception):
    """An output differs from what the workload and reference require."""


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _number(cell: str, what: str) -> float | None:
    if cell in ("", "-"):
        return None
    try:
        value = float(cell)
    except ValueError:
        raise CheckError(f"{what}: not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise CheckError(f"{what}: not finite: {cell!r}")
    return value


def _close(got: float | None, want: float | None) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def check_plan(out_path: Path, stdout: str, ref: dict) -> None:
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    for key in ("T", "S", "zeta"):
        if result.get(key) != ref["plan"][key]:
            raise CheckError(f"plan: {key} = {result.get(key)!r}, expected {ref['plan'][key]}")
    first = stdout.splitlines()[0] if stdout else ""
    if first != f"consensus steps per phase: T = {ref['plan']['T']}":
        raise CheckError(f"plan: unexpected stdout {first!r}")


def parse_trace(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def check_trace(path: Path, config: dict, ref: dict) -> dict:
    """Check a trace CSV; returns its row count and summed pinv steps."""
    meta, header, rows = parse_trace(path)
    run = config["run"]
    horizon, runs, seed, m = run["horizon"], run["runs"], run["seed"], config["model"]["m"]
    plan = ref["plan"]
    if header != TRACE_COLUMNS:
        raise CheckError(f"simulate: header {header}")
    for key, want in (("schedule.T", plan["T"]), ("schedule.S", plan["S"]),
                      ("schedule.zeta", plan["zeta"]), ("run.seed", seed),
                      ("run.horizon", horizon), ("run.runs", runs)):
        if meta.get(key) != str(want):
            raise CheckError(f"simulate: header {key} = {meta.get(key)!r}, expected {want}")
    if len(rows) != horizon:
        raise CheckError(f"simulate: {len(rows)} rows, expected {horizon}")

    pre_sum = 0.0
    for i, row in enumerate(rows):
        t = i + 1
        if len(row) != len(TRACE_COLUMNS) or row[0] != str(t):
            raise CheckError(f"simulate: malformed row {t}: {row}")
        fires = t % plan["zeta"] == 0 and t <= plan["S"]
        if row[6] != ("1" if fires else "0"):
            raise CheckError(f"simulate: comm_fired = {row[6]} at t = {t}")
        for col in ERROR_COLUMNS:
            value = _number(row[col], f"simulate t={t} {TRACE_COLUMNS[col]}")
            if value is None or value < 0:
                raise CheckError(f"simulate: {TRACE_COLUMNS[col]} = {row[col]!r} at t = {t}")
        pre = _number(row[PRE_INVERTIBLE], f"simulate t={t} pre_invertible_count")
        if pre is None or not 0 <= pre <= m:
            raise CheckError(f"simulate: pre_invertible_count = {row[PRE_INVERTIBLE]!r} at t = {t}")
        pre_sum += pre

    seeded = seed == ref["seed"]
    for want in ref["trace_rows"]:
        t = want[0]
        if t > horizon:
            continue
        row = rows[t - 1]
        cols = BOUND_COLUMNS + (ERROR_COLUMNS if seeded else ())
        for col in cols:
            got = _number(row[col], f"simulate t={t} {TRACE_COLUMNS[col]}")
            if not _close(got, want[col]):
                raise CheckError(f"simulate: {TRACE_COLUMNS[col]} = {row[col]!r} at t = {t}, "
                                 f"reference {want[col]!r}")
        if seeded and float(row[PRE_INVERTIBLE]) != want[PRE_INVERTIBLE]:
            raise CheckError(f"simulate: pre_invertible_count = {row[PRE_INVERTIBLE]} at t = {t}, "
                             f"reference {want[PRE_INVERTIBLE]}")
    return {"rows": len(rows), "pinv_steps": round(pre_sum * runs)}


def parse_bounds(stdout: str) -> list[list]:
    """Rows of ``[t, local, global, comm, network, noise]``; ``None`` for '-'."""
    lines = stdout.splitlines()
    if not lines or not lines[0].split() or lines[0].split()[0] != "t":
        raise CheckError("bounds: missing header")
    rows = []
    for line in lines[1:]:
        cells = line.split()
        if len(cells) < 1 + BOUNDS_CELLS:
            raise CheckError(f"bounds: malformed line {line!r}")
        try:
            t = int(cells[0])
        except ValueError:
            raise CheckError(f"bounds: malformed line {line!r}") from None
        rows.append([t] + [_number(c, f"bounds t={t}") for c in cells[1:1 + BOUNDS_CELLS]])
    return rows


def check_bounds(stdout: str, ladder: list[int], ref: dict) -> None:
    rows = parse_bounds(stdout)
    if [r[0] for r in rows] != ladder:
        raise CheckError("bounds: the rows do not follow the requested times")
    # every bound is non-increasing in t once past its burn-in
    for col in (1, 2, 3):
        values = [r[col] for r in rows if r[col] is not None]
        if any(v <= 0 for v in values) or any(b > a for a, b in zip(values, values[1:])):
            raise CheckError(f"bounds: column {col} is not positive and non-increasing")
    by_t = {r[0]: r for r in rows}
    for want in ref["bounds_rows"]:
        got = by_t.get(want[0])
        if got is None or not all(_close(g, w) for g, w in zip(got[1:], want[1:])):
            raise CheckError(f"bounds: row {got} differs from reference {want}")
