"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Every test prints a single ``[acceptance N] ... PASS/FAIL`` line outside of
pytest's capture, so the criterion status is visible in any run.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

import netrls as nr
from netrls.cli import main

from conftest import agent_sums, random_connected_weights, random_inputs, reference_model
from stepwise_oracle import AgentState

CONFIGS_DIR = Path(__file__).parent.parent / "configs"


def _report(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_planner_reproduction(paper_inputs, capsys):
    start = time.perf_counter()
    result = nr.plan(paper_inputs, zeta=20, epsilon=0.5, epsilon_N=0.01)
    elapsed = time.perf_counter() - start
    ok = result.T == 38 and abs(result.S - 1620) <= 20 and elapsed < 1.0
    _report(capsys, 1, "planner outputs T=38, S=1620 +/- one period", ok,
            f"T={result.T}, S={result.S}, {elapsed:.3f}s")


def test_criterion_2_ring_mixing_rate(ring6, capsys):
    err = abs(ring6.rho - 2.0 / 3.0)
    ok = err <= 1e-10
    _report(capsys, 2, "ring weight matrix has rho = 2/3 within 1e-10", ok,
            f"|rho - 2/3| = {err:.2e}")


def test_criterion_3_error_curve_reproduction(paper_sim, capsys):
    _, avg, elapsed = paper_sim
    t = avg.t

    late_comm = avg.comm_fired & (t >= 200)
    rel = np.abs(avg.comm_err[late_comm] - avg.global_err[late_comm]) / avg.global_err[late_comm]
    ok_match = bool(np.all(rel <= 0.05))

    early_comm = avg.comm_fired & (t <= 400)
    ok_order = bool(np.all(avg.comm_err[early_comm] < avg.local_err[early_comm]))

    window = t >= 200
    slope = float(np.polyfit(np.log(t[window]), np.log(avg.global_err[window]), 1)[0])
    ok_slope = -0.6 <= slope <= -0.4

    ok = ok_match and ok_order and ok_slope and elapsed < 60.0
    _report(capsys, 3, "10-run average reproduces the reference error curves", ok,
            f"max rel comm/global = {rel.max():.2e}, comm<local at early comm times = "
            f"{ok_order}, slope = {slope:.3f}, {elapsed:.1f}s")


def test_criterion_4_oracle_equivalences(capsys):
    model = reference_model()
    seed = 424242

    # (a) streamed rank-one updates equal the batch solution after 1e3 steps
    x, y = (a[:, 0] for a in nr.sample_block(model, seed, 0, 1, 1000))
    state = AgentState(model.n, model.l)
    for k in range(1000):
        state.ingest(x[k], y[k])
    batch = np.linalg.lstsq(x, y, rcond=None)[0].T
    stream_vs_batch = np.linalg.norm(state.theta_local - batch, 2) / np.linalg.norm(batch, 2)
    ok_a = stream_vs_batch <= 1e-8

    # (b) consensus phase equals explicit matrix-power mixing for T <= 64
    rng = np.random.default_rng(11)
    wm = random_connected_weights(rng, 6)
    alphas = rng.normal(size=(6, 2, 2))
    betas = rng.normal(size=(6, 2, 2))
    worst_b = 0.0
    for steps in (1, 2, 8, 33, 64):
        mixed_a, _ = nr.run_comm_phase(wm, alphas, betas, steps)
        wp = np.linalg.matrix_power(wm.w, steps)
        expected = np.tensordot(wp, alphas, axes=(1, 0))
        worst_b = max(worst_b,
                      np.linalg.norm(mixed_a - expected) / np.linalg.norm(expected))
    ok_b = worst_b <= 1e-10

    # (c) complete averaging with one step reproduces the pooled estimator
    complete = nr.complete_weights(6)
    x, y = nr.sample_block(model, seed, 1, 1, 60)
    al = np.einsum("tak,taj->akj", y, x)
    be = np.einsum("tai,taj->aij", x, x)
    mixed_a, mixed_b = nr.run_comm_phase(complete, al, be, 1)
    pooled = al.sum(axis=0) @ np.linalg.pinv(be.sum(axis=0))
    worst_c = max(
        np.linalg.norm(mixed_a[i] @ np.linalg.pinv(mixed_b[i]) - pooled, 2) for i in range(6)
    ) / np.linalg.norm(pooled, 2)
    ok_c = worst_c <= 1e-10

    ok = ok_a and ok_b and ok_c
    _report(capsys, 4, "stream/batch, phase/matrix-power, averaging/pooled oracles", ok,
            f"a={stream_vs_batch:.2e}, b={worst_b:.2e}, c={worst_c:.2e}")


def test_criterion_5_property_suites(capsys):
    rng = np.random.default_rng(321)

    # consensus sum preservation and the geometric mixing inequality over
    # 100 random valid weight matrices with m <= 10
    ok_sum = True
    ok_mix = True
    for _ in range(100):
        m = int(rng.integers(1, 11))
        wm = random_connected_weights(rng, m)
        alphas = rng.normal(size=(m, 2, 2))
        betas = rng.normal(size=(m, 2, 2))
        ref = alphas.sum(axis=0)
        scale = np.linalg.norm(ref)
        for steps in range(1, 11):
            mixed_a, _ = nr.run_comm_phase(wm, alphas, betas, steps)
            if np.linalg.norm(mixed_a.sum(axis=0) - ref) > 1e-10 * scale:
                ok_sum = False
        for steps in range(1, 51):
            if nr.mixing_deficit(wm, steps) > np.sqrt(m) * wm.rho**steps + 1e-12:
                ok_mix = False

    # smallest eigenvalue of beta never decreases along random streams
    ok_psd = True
    for _ in range(20):
        n = int(rng.integers(1, 5))
        state = AgentState(n, 1)
        previous = 0.0
        for _ in range(60):
            state.ingest(rng.normal(size=n), rng.normal(size=1))
            smallest = float(np.linalg.eigvalsh(state.beta)[0])
            if smallest < previous - 1e-10 * max(1.0, previous):
                ok_psd = False
            previous = smallest

    # bounds decrease in t and in T over 100 random valid inputs
    ok_mono = True
    for _ in range(100):
        inputs = random_inputs(rng)
        start = int(np.ceil(max(nr.burn_in(inputs, inputs.delta),
                                nr.burn_in(inputs, inputs.delta_hat)))) + 1
        ts = [start + 41 * k for k in range(4)]
        for make in (
            lambda t: nr.local_bound(inputs, t).value,
            lambda t: nr.global_bound(inputs, t).value,
            lambda t: nr.comm_bound(inputs, t, 6).value,
        ):
            seq = [make(t) for t in ts]
            if not all(a > b for a, b in zip(seq, seq[1:])):
                ok_mono = False
        in_steps = [nr.comm_bound(inputs, ts[0], steps).value for steps in (1, 3, 9, 27)]
        if not all(a > b for a, b in zip(in_steps, in_steps[1:])):
            ok_mono = False

    ok = ok_sum and ok_mix and ok_psd and ok_mono
    _report(capsys, 5, "consensus, PSD, and bound property suites", ok,
            f"sum={ok_sum}, mixing<=sqrt(m)rho^T={ok_mix}, psd={ok_psd}, monotone={ok_mono}")


def test_criterion_6_bound_coverage(paper_inputs, capsys):
    start = time.perf_counter()
    model = reference_model()
    bound = nr.local_bound(paper_inputs, 400).value
    alphas, betas = agent_sums(model, 777, 200, [400])
    theta_hat = alphas @ np.linalg.inv(betas)
    errs = np.linalg.norm(theta_hat - model.theta, 2, axis=(-2, -1))
    violations, total = int(np.sum(errs > bound)), errs.size
    elapsed = time.perf_counter() - start
    freq = violations / total
    ok = freq <= 0.20 and elapsed < 120.0
    _report(capsys, 6, "empirical coverage of the local error bound", ok,
            f"violations {violations}/{total} (bound {bound:.3f}), {elapsed:.1f}s")


def test_criterion_7_byte_identical_traces(tmp_path, capsys):
    cfg = str(CONFIGS_DIR / "smoke.json")
    digests = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        assert main(["simulate", cfg, "-o", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    ok = digests[0] == digests[1]
    _report(capsys, 7, "repeated simulation is byte-identical", ok,
            f"sha256 {digests[0][:16]}...")
