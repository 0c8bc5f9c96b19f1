"""netrls benchmark: time the plan, simulate and bounds commands on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; netrls is imported from its ``src``.
Commands are driven in-process through ``netrls.cli.main`` from one process
with ``--parallel-runs 1`` and one BLAS/OpenMP thread, and every call's exit
code and output are checked. With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` the per-layer metrics of an outside-in trace
(see tracer.py). The last line of stdout is the result as one JSON object;
the lines before it are a readable summary and the environment record.
Scratch files go to ``.perfbench_work/`` in the checkout. See README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: matrices are 2x2 to 64x64 and the machine has two
# cores, so more threads would only measure the scheduler. Set before numpy
# is imported, here and (inherited) in the child probes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# the workload seed must reach netrls through the config alone
os.environ.pop("NETRLS_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from checks import CheckError, check_bounds, check_plan, check_trace, load_reference  # noqa: E402
from workloads import WORKLOADS, config_text, ladder  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBE = Path(__file__).resolve().parent / "probe.py"

# fresh interpreters timed for setup_s, after one that fills the caches
SETUP_REPEATS = 11
# plan and bounds each get about this share of a round's simulate time
SHARE = 0.15
MAX_REPEATS = 400
# The host this benchmark was built on switches between a fast and a slower
# speed many times a second, and the share of slow stretches drifts over tens
# of seconds to minutes, so a run's raw command times follow the host. A fixed
# calibration loop, timed after every simulate call and every batch, samples
# the host's speed over the same stretch as the commands; a command's time is
# its mean over the run scaled by CAL_REF_S over the calibration chunks' mean.
CAL_ITERATIONS = 1000
# calibration time, as a share of the time of the call or batch before it
CAL_SHARE = 0.05
# fixed reference time of one calibration chunk, near its mean on that host
# (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6)
CAL_REF_S = 0.005
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "plan_s": "s",
    "bounds_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}
# reported as the mean of all calls in the run, scaled to the reference host
# speed by the calibration
COMMAND_TIMES = ("simulate_s", "plan_s", "bounds_s")

BOUND_FUNCS = ("bounds.burn_in", "bounds.local_bound", "bounds.global_bound",
               "bounds.comm_bound")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _comm_info(args, kwargs, result):
    """(rounds, m, l, n) of one run_comm_phase call."""
    steps = _arg(args, kwargs, 3, "steps")
    m, l, n = _arg(args, kwargs, 1, "alphas").shape
    return steps, m, l, n


def _run_info(args, kwargs, result):
    """(horizon, m, l, n) of one simnet.run call."""
    config = _arg(args, kwargs, 0, "config")
    return config.horizon, config.model.m, config.model.l, config.model.n


TARGETS = [
    tracer.Target("config.load_config", "netrls.config", "load_config"),
    tracer.Target("model_gen.sample_block", "netrls.model_gen", "sample_block"),
    tracer.Target("local_estimator.ingest", "netrls.local_estimator", "AgentState.ingest"),
    tracer.Target("consensus.run_comm_phase", "netrls.consensus", "run_comm_phase",
                  _comm_info),
    tracer.Target("consensus.comm_estimate", "netrls.consensus", "comm_estimate"),
    tracer.Target("simnet.run", "netrls.simnet", "run", _run_info),
    tracer.Target("simnet.global_estimate", "netrls.simnet", "SimWorld.global_estimate"),
    tracer.Target("simnet.spectral_norms", "netrls.simnet", "spectral_norms"),
    tracer.Target("planner.plan_T", "netrls.planner", "plan_T"),
    tracer.Target("planner.plan_S", "netrls.planner", "plan_S"),
    tracer.Target("cli.write_trace", "netrls.cli", "write_trace"),
] + [tracer.Target(name, "netrls.bounds", name.split(".")[1]) for name in BOUND_FUNCS]

LAYER_UNITS = {
    "config.load_config.s": "s",
    "model_gen.sample_block.s": "s",
    "model_gen.sample_block.calls": "count",
    "local_estimator.ingest.s": "s",
    "local_estimator.ingest.calls": "count",
    "local_estimator.ingest.us_per_call": "us",
    "local_estimator.pinv_steps": "count",
    "consensus.run_comm_phase.s": "s",
    "consensus.phases": "count",
    "consensus.rounds": "count",
    "consensus.flops_computed": "flop",
    "consensus.bytes_computed": "B",
    "consensus.comm_estimate.s": "s",
    "consensus.comm_estimate.calls": "count",
    "simnet.global_estimate.s": "s",
    "simnet.global_estimate.calls": "count",
    "simnet.spectral_norms.s": "s",
    "simnet.run.self_s": "s",
    "simnet.history_bytes_computed": "B",
    "planner.plan_T.s": "s",
    "planner.plan_S.s": "s",
    "planner.bound_evals": "count",
    "bounds.calls.planner": "count",
    "bounds.calls.cli": "count",
    "bounds.s": "s",
    "cli.write_trace.s": "s",
    "cli.write_trace.self_s": "s",
    "cli.write_trace.rows": "count",
    "cli.write_trace.bytes": "B",
    "simulate.traced_s": "s",
    "simulate.accounted_share": "fraction",
    "trace_overhead_s": "s",
}
# counts that must repeat exactly between traced passes with one seed
EXACT_COUNTS = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "flop", "B")]


class Bench:
    """One workload at one seed: its generated config and its checked commands."""

    def __init__(self, workload: str, seed: int):
        from netrls import cli

        self.cli = cli
        self.workload, self.seed = workload, seed
        self.ref = load_reference(workload)
        self.dir = WORK / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        text = config_text(workload, seed)
        self.config = json.loads(text)
        self.config_sha256 = hashlib.sha256(text.encode()).hexdigest()
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(text, encoding="utf-8")
        self.ladder = ladder(self.config["run"]["horizon"])
        self.outputs = {"plan": self.dir / "plan_result.json", "simulate": self.dir / "trace.csv"}
        self.attempted = 0
        self.failures: list[str] = []
        self.last_trace: dict = {}

    def argv(self, command: str) -> list[str]:
        cfg = str(self.config_path)
        if command == "plan":
            return ["plan", cfg, "-o", str(self.outputs["plan"])]
        if command == "simulate":
            return ["simulate", cfg, "-o", str(self.outputs["simulate"]), "--parallel-runs", "1"]
        return ["bounds", cfg, "--at", ",".join(map(str, self.ladder))]

    def check(self, command: str, rc: int, stdout: str, stderr: str) -> None:
        if rc != 0:
            raise CheckError(f"exit code {rc}: {stderr.strip()}")
        if command == "plan":
            check_plan(self.outputs["plan"], stdout, self.ref)
        elif command == "simulate":
            self.last_trace = check_trace(self.outputs["simulate"], self.config, self.ref)
            self.last_trace["bytes"] = self.outputs["simulate"].stat().st_size
        else:
            check_bounds(stdout, self.ladder, self.ref)

    def fail(self, what: str, error: BaseException) -> None:
        self.failures.append(f"{what}: {type(error).__name__}: {error}")

    def op(self, command: str) -> float | None:
        """Run one command in-process; its wall time, or None if it failed."""
        self.attempted += 1
        if command in self.outputs:
            self.outputs[command].unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                rc = self.cli.main(self.argv(command))
                elapsed = time.perf_counter() - start
            self.check(command, rc, out.getvalue(), err.getvalue())
        except (Exception, SystemExit) as e:  # a failed call is counted, not fatal
            self.fail(command, e)
            return None
        return elapsed

    def _child(self, *args: str) -> dict:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, str(PROBE), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise CheckError(f"probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return json.loads(lines[-1])

    def probe_setup(self) -> float | None:
        self.attempted += 1
        try:
            return self._child("setup", str(self.config_path))["setup_s"]
        except (CheckError, subprocess.SubprocessError, ValueError, KeyError) as e:
            self.fail("setup probe", e)
            return None

    def probe_peak_rss(self) -> float | None:
        """Peak RSS of a fresh process running the three commands once."""
        commands = ("plan", "simulate", "bounds")
        for command in commands:
            if command in self.outputs:
                self.outputs[command].unlink(missing_ok=True)
        self.attempted += len(commands)
        try:
            report = self._child("commands", json.dumps([self.argv(c) for c in commands]))
        except (CheckError, subprocess.SubprocessError, ValueError) as e:
            for command in commands:
                self.fail(f"{command} (probe)", e)
            return None
        ok = True
        for command, res in zip(commands, report["results"]):
            try:
                self.check(command, res["rc"], res["stdout"], res["stderr"])
            except (CheckError, OSError, ValueError) as e:
                self.fail(f"{command} (probe)", e)
                ok = False
        return report["peak_rss_mb"] if ok else None


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def calibrate(chunks: list[float], busy_s: float) -> None:
    """Time calibration chunks for about CAL_SHARE of busy_s, at least one."""
    spent = 0.0
    while True:
        chunks.append(calibration_chunk())
        spent += chunks[-1]
        if spent >= CAL_SHARE * busy_s:
            return


def calibration_chunk() -> float:
    """Wall time of a fixed loop of 2x2 numpy updates made from Python.

    It is the kind of work netrls does per sample and uses nothing of netrls,
    so a change to netrls cannot move it; only the host's speed does.
    """
    x, p = np.array([0.3, -0.2]), np.eye(2)
    start = time.perf_counter()
    for _ in range(CAL_ITERATIONS):
        px = p @ x
        p = p - np.outer(px, px) / (1.0 + x @ px)
    return time.perf_counter() - start


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = defaultdict(list)

    def keep(metric: str, value: float | None) -> None:
        if value is not None:
            samples[metric].append(value)

    bench.probe_setup()  # fills the bytecode and file caches
    for _ in range(SETUP_REPEATS):
        keep("setup_s", bench.probe_setup())
    keep("peak_rss_mb", bench.probe_peak_rss())

    # warm-up calls, checked but not timed; they size the plan/bounds batches
    bench.op("simulate")
    plan_t = bench.op("plan")
    bounds_t = bench.op("bounds")
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        sim_t = bench.op("simulate")
        keep("simulate_s", sim_t)
        calibrate(samples["calibration_s"], time.perf_counter() - round_start)
        budget = SHARE * (sim_t or 1.0)
        for command, first in (("plan", plan_t), ("bounds", bounds_t)):
            repeats = max(1, min(MAX_REPEATS, round(budget / max(first or budget, 1e-6))))
            batch_start = time.perf_counter()
            for _ in range(repeats):
                keep(f"{command}_s", bench.op(command))
            calibrate(samples["calibration_s"], time.perf_counter() - batch_start)
        # start another round only if it should end within the time given
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            break
    samples["success_rate"] = [1.0 - len(bench.failures) / bench.attempted]
    return samples


def layer_metrics(spans: list[tuple], sim_spans: list[tuple], sim_s: float,
                  trace_file: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (plan, simulate, bounds once each)."""
    own = tracer.self_times(spans)
    names = {s[0]: s[2] for s in spans}
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s in spans:
        total[s[2]] += s[5] - s[4]
        self_s[s[2]] += own[s[0]]
        calls[s[2]] += 1

    bound_spans = [s for s in spans if s[2] in BOUND_FUNCS]
    callers = Counter(s[3] for s in bound_spans)
    phases = [s[6] for s in spans if s[2] == "consensus.run_comm_phase" and s[6]]
    runs = [s[6] for s in spans if s[2] == "simnet.run" and s[6]]
    ingest_calls = calls["local_estimator.ingest"]
    return {
        "config.load_config.s": total["config.load_config"] / max(1, calls["config.load_config"]),
        "model_gen.sample_block.s": total["model_gen.sample_block"],
        "model_gen.sample_block.calls": calls["model_gen.sample_block"],
        "local_estimator.ingest.s": total["local_estimator.ingest"],
        "local_estimator.ingest.calls": ingest_calls,
        "local_estimator.ingest.us_per_call":
            1e6 * total["local_estimator.ingest"] / max(1, ingest_calls),
        "local_estimator.pinv_steps": trace_file.get("pinv_steps", 0),
        "consensus.run_comm_phase.s": total["consensus.run_comm_phase"],
        "consensus.phases": calls["consensus.run_comm_phase"],
        "consensus.rounds": sum(k for k, m, l, n in phases),
        "consensus.flops_computed": sum(2 * k * m * m * (l * n + n * n) for k, m, l, n in phases),
        "consensus.bytes_computed":
            sum(8 * k * (m * m + 2 * m * (l * n + n * n)) for k, m, l, n in phases),
        "consensus.comm_estimate.s": total["consensus.comm_estimate"],
        "consensus.comm_estimate.calls": calls["consensus.comm_estimate"],
        "simnet.global_estimate.s": total["simnet.global_estimate"],
        "simnet.global_estimate.calls": calls["simnet.global_estimate"],
        "simnet.spectral_norms.s": total["simnet.spectral_norms"],
        "simnet.run.self_s": self_s["simnet.run"],
        # local and communicated estimate histories (m agents) plus the pooled one
        "simnet.history_bytes_computed":
            max((8 * h * l * n * (2 * m + 1) for h, m, l, n in runs), default=0),
        "planner.plan_T.s": total["planner.plan_T"],
        "planner.plan_S.s": total["planner.plan_S"],
        "planner.bound_evals":
            sum(1 for s in bound_spans if s[3] == "planner" and s[2] != "bounds.burn_in"),
        "bounds.calls.planner": callers["planner"],
        "bounds.calls.cli": callers["cli"],
        "bounds.s": sum(s[5] - s[4] for s in bound_spans if names.get(s[1]) not in BOUND_FUNCS),
        "cli.write_trace.s": total["cli.write_trace"],
        "cli.write_trace.self_s": self_s["cli.write_trace"],
        "cli.write_trace.rows": trace_file.get("rows", 0),
        "cli.write_trace.bytes": trace_file.get("bytes", 0),
        "simulate.traced_s": sim_s,
        # spans called straight from the simulate command, over its wall time
        "simulate.accounted_share": sum(s[5] - s[4] for s in sim_spans if s[1] == -1) / sim_s,
    }


def measure_layers(bench: Bench, seconds: float) -> tuple[dict[str, list[float]], list[str]]:
    tr = tracer.Tracer(TARGETS)
    untraced: list[float] = []
    passes: list[dict[str, float]] = []
    bench.op("plan")
    bench.op("bounds")
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        sim_t = bench.op("simulate")
        if sim_t is not None:
            untraced.append(sim_t)
        tr.spans.clear()
        with tr:
            sim_s, sim_spans, ok = None, [], True
            for command in ("plan", "simulate", "bounds"):
                first = len(tr.spans)
                elapsed = bench.op(command)
                ok = ok and elapsed is not None
                if command == "simulate":
                    sim_s, sim_spans = elapsed, tr.spans[first:]
        if not ok:
            break
        passes.append(layer_metrics(tr.spans, sim_spans, sim_s, bench.last_trace))
        now = time.perf_counter()
        if len(passes) >= 2 and now + (now - round_start) > start + seconds:
            break
    if tr.spans:
        tracer.write_spans(tr.spans, bench.dir / "spans.csv")

    samples: dict[str, list[float]] = defaultdict(list)
    for metrics in passes:
        for name, value in metrics.items():
            samples[name].append(value)
    # self-test: every exact count repeats between the passes
    bench.attempted += 1
    differing = [f"{name} {samples[name]}" for name in EXACT_COUNTS if len(set(samples[name])) > 1]
    if len(passes) < 2 or differing:
        bench.failures.append(f"trace: {len(passes)} complete passes; counts differing: "
                              f"{'; '.join(differing) or 'none'}")
    if passes and untraced:
        samples["trace_overhead_s"] = [
            statistics.median(samples["simulate.traced_s"]) - statistics.median(untraced)]
    return samples, tr.absent


def environment(bench: Bench) -> dict:
    import netrls
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    return {
        "netrls": netrls.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "parallel_runs": 1,
        "workload": bench.workload,
        "seed": bench.seed,
        "config_sha256": bench.config_sha256,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")

    if not (SRC / "netrls" / "__init__.py").is_file():
        print(f"error: no netrls sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import netrls

    if Path(netrls.__file__).resolve().parent != (SRC / "netrls").resolve():
        print(f"error: imported netrls from {netrls.__file__}, not {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    env = environment(bench)
    absent: list[str] = []
    if args.trace:
        samples, absent = measure_layers(bench, args.seconds)
        units = LAYER_UNITS
    else:
        samples = measure_end_to_end(bench, args.seconds)
        units = E2E_UNITS

    metrics = {}
    print(f"netrls benchmark: workload={bench.workload} seed={bench.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    scale = 1.0
    if samples.get("calibration_s"):
        cal = statistics.mean(samples["calibration_s"])
        scale = CAL_REF_S / cal
        env["host_scale"] = scale
        print(f"calibration: {len(samples['calibration_s'])} chunks, mean {cal:.6g} s; "
              f"command times are means x {scale:.4f} (= {CAL_REF_S:g} s / mean); "
              f"median, q1 and q3 are raw")
    print(f"{'metric':<36} {'value':>12} {'median':>12} {'q1':>12} {'q3':>12} {'n':>5}  unit")
    for name, unit in units.items():
        values = samples.get(name)
        if not values:
            continue
        median = statistics.median(values)
        if name in COMMAND_TIMES:
            value = statistics.mean(values) * scale
        else:
            # a count that repeats exactly stays a whole number
            value = values[0] if len(set(values)) == 1 else median
        q1, q3 = _quartiles(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<36} {value:>12.6g} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{len(values):>5}  {unit}")
    error_rate = len(bench.failures) / bench.attempted
    print(f"{'error_rate':<36} {error_rate:>12.6g} {'':>12} {'':>12} {'':>12} "
          f"{bench.attempted:>5}  fraction (failed/attempted)")
    if absent:
        print(f"absent trace targets (read as 0): {', '.join(absent)}")
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))

    result = {"correct": not bench.failures and len(metrics) == len(units),
              "attempted": bench.attempted, "failed": len(bench.failures), "metrics": metrics}
    record = {"env": env, "result": result, "samples": samples, "failures": bench.failures}
    (bench.dir / f"result-seed{bench.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
