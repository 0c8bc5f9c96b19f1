"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

Runs plan, simulate and bounds once per workload at REFERENCE_SEED and writes
perfbench/reference/<workload>.json with the plan's T, S and zeta, a sample of
trace rows and a sample of bounds rows. Run it only when a change to netrls
is meant to change these outputs, and say so in the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from checks import REFERENCE_DIR, parse_bounds, parse_trace
from workloads import REFERENCE_SEED, WORKLOADS, config_text, ladder

# trace rows kept: the first ones (burn-in, rank-deficient betas), about
# this many spread over the horizon, and the last
TRACE_SAMPLES = 400
TRACE_HEAD = 50
BOUNDS_EVERY = 10
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_work" / "make_reference"


def _cell(value: str):
    return None if value == "" else float(value)


def record(workload: str, scratch: Path) -> dict:
    from netrls import cli

    text = config_text(workload, REFERENCE_SEED)
    cfg_path, plan_path, trace_path = (scratch / "config.json", scratch / "plan.json",
                                     scratch / "trace.csv")
    cfg_path.write_text(text, encoding="utf-8")
    times = ladder(json.loads(text)["run"]["horizon"])
    bounds_out = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["plan", str(cfg_path), "-o", str(plan_path)]),
                 cli.main(["simulate", str(cfg_path), "-o", str(trace_path)])]
    with contextlib.redirect_stdout(bounds_out):
        codes.append(cli.main(["bounds", str(cfg_path), "--at", ",".join(map(str, times))]))
    if any(codes):
        raise SystemExit(f"{workload}: a command failed with exit codes {codes}")

    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    _, _, rows = parse_trace(trace_path)
    stride = max(1, len(rows) // TRACE_SAMPLES)
    kept = [r for r in rows
            if int(r[0]) <= TRACE_HEAD or int(r[0]) % stride == 0 or int(r[0]) == len(rows)]
    bounds_rows = parse_bounds(bounds_out.getvalue())
    return {
        "workload": workload,
        "seed": REFERENCE_SEED,
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "plan": {key: plan[key] for key in ("T", "S", "zeta")},
        "trace_rows": [[int(r[0])] + [_cell(c) for c in r[1:]] for r in kept],
        "bounds_rows": [r for i, r in enumerate(bounds_rows)
                        if i % BOUNDS_EVERY == 0 or i == len(bounds_rows) - 1],
    }


def _json_rows(ref: dict) -> str:
    """JSON with one row per line, so a changed row shows as one changed line."""
    parts = []
    for key, value in ref.items():
        if key.endswith("_rows"):
            rows = ",\n  ".join(json.dumps(row) for row in value)
            parts.append(f"{json.dumps(key)}: [\n  {rows}\n ]")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    return "{\n " + ",\n ".join(parts) + "\n}\n"


def main(names: list[str]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    for workload in names or list(WORKLOADS):
        ref = record(workload, SCRATCH)
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(_json_rows(ref), encoding="utf-8")
        print(f"wrote {path}: T={ref['plan']['T']} S={ref['plan']['S']}, "
              f"{len(ref['trace_rows'])} trace rows, {len(ref['bounds_rows'])} bounds rows")


if __name__ == "__main__":
    main(sys.argv[1:])
