"""Self-test of the benchmark's tracer and of its exact counts.

    python3 perfbench/selftest.py [WORKLOAD ...]

1. The tracer tolerates refactors: targets that no longer exist are listed
   as absent while the others still trace, a target never called has no
   spans, nested spans get parent ids and self times, and uninstalling
   restores every binding.
2. For each workload (default: all), two traced runs of run.py with the same
   seed, in separate processes, report identical exact counts.

Prints one line per check and exits 1 if any check failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run  # noqa: F401  (pins BLAS threads before numpy is imported)
import tracer
from run import EXACT_COUNTS, ROOT, SRC
from workloads import REFERENCE_SEED, WORKLOADS

Target = tracer.Target


def check_tracer() -> list[str]:
    sys.path.insert(0, str(SRC))
    import numpy as np

    import netrls
    from netrls import bounds, planner, simnet

    targets = [
        Target("gone.module", "netrls.no_such_module", "f"),
        Target("gone.function", "netrls.simnet", "no_such_function"),
        Target("gone.method", "netrls.simnet", "NoSuchClass.step"),
        Target("simnet.spectral_norms", "netrls.simnet", "spectral_norms"),
        Target("consensus.mixing_deficit", "netrls.consensus", "mixing_deficit"),
        Target("bounds.burn_in", "netrls.bounds", "burn_in"),
        Target("bounds.local_bound", "netrls.bounds", "local_bound"),
    ]
    originals = (simnet.spectral_norms, netrls.spectral_norms, bounds.local_bound,
                 planner.local_bound, bounds.burn_in)
    inputs = netrls.BoundInputs.from_model(
        netrls.ModelSpec(theta=[[1.0]], sigma_x=1.0, sigma_eta=1.0, m=2),
        netrls.complete_weights(2))
    tr = tracer.Tracer(targets)
    with tr:
        simnet.spectral_norms(np.eye(2))
        planner.local_bound(inputs, 1000)
    problems = []
    if tr.absent != ["gone.module", "gone.function", "gone.method"]:
        problems.append(f"absent targets reported as {tr.absent}")
    by_name = {s[2]: s for s in tr.spans}
    if sorted(by_name) != ["bounds.burn_in", "bounds.local_bound", "simnet.spectral_norms"]:
        problems.append(f"unexpected spans {sorted(by_name)}")
    else:
        outer, inner = by_name["bounds.local_bound"], by_name["bounds.burn_in"]
        if (outer[3], inner[3], inner[1]) != ("planner", "bounds", outer[0]):
            problems.append(f"caller or parent wrong: {outer}, {inner}")
        own = tracer.self_times(tr.spans)[outer[0]]
        expected = (outer[5] - outer[4]) - (inner[5] - inner[4])
        if abs(own - expected) > 1e-12:
            problems.append("self time does not subtract the child span")
    restored = (simnet.spectral_norms, netrls.spectral_norms, bounds.local_bound,
                planner.local_bound, bounds.burn_in)
    if any(a is not b for a, b in zip(originals, restored)):
        problems.append("uninstall did not restore every binding")
    return problems


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(REFERENCE_SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"run.py reported failures: {proc.stderr[-500:]}")
    return {name: result["metrics"][name]["value"] for name in EXACT_COUNTS}


def main(workloads: list[str]) -> int:
    failed = False
    problems = check_tracer()
    print("tracer:", "ok" if not problems else "; ".join(problems))
    failed |= bool(problems)
    for workload in workloads or list(WORKLOADS):
        first, second = traced_counts(workload), traced_counts(workload)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        print(f"exact counts, {workload}:", "identical" if not diff else f"differ {diff}")
        failed |= bool(diff)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
