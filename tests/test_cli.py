"""CLI commands, config validation paths, file determinism; the goldens are in test_goldens.py."""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import NamedTuple, get_args

import numpy as np
import pytest

import netrls as nr
from netrls import cli, simnet
from netrls.cli import ROWS_PER_CHUNK, _f12, main, write_trace
from netrls.config import ConfigError, config_to_dict, load_config, resolve_config
from netrls.model_gen import MeanSchedule
from netrls.simnet import RunParams

from goldens import DATA_DIR, GOLDENS, run_golden

CONFIGS_DIR = Path(__file__).parent.parent / "configs"


def paper_config_dict() -> dict:
    third = 1.0 / 3.0
    w = np.zeros((6, 6))
    for i in range(6):
        w[i, i] = w[i, (i - 1) % 6] = w[i, (i + 1) % 6] = third
    return {
        "model": {
            "theta": [[1.6, 0.3], [0.8, 0.3]],
            "n": 2,
            "l": 2,
            "m": 6,
            "sigma_x": 3.0,
            "sigma_eta": 1.0,
            "mean_schedule": {"kind": "zero"},
        },
        "network": {"weights": w.tolist()},
        "bounds": {"delta": 0.05, "delta_hat": 0.001},
        "plan": {"zeta": 20, "epsilon": 0.5, "epsilon_N": 0.01},
        "run": {"horizon": 3000, "runs": 10, "seed": 1008},
    }


def small_config_dict() -> dict:
    return {
        "model": {
            "theta": [[1.25]],
            "n": 1,
            "l": 1,
            "m": 2,
            "sigma_x": 1.0,
            "sigma_eta": 0.5,
        },
        "network": {"topology": "ring", "self_weight": 0.5},
        "bounds": {"delta": 0.1, "delta_hat": 0.1},
        "schedule": {"zeta": 10, "T": 3, "S": 40},
        "run": {"horizon": 60, "runs": 2, "seed": 99},
    }


def write_config(tmp_path: Path, data: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_plan_command_reproduces_reference(tmp_path, capsys):
    cfg = write_config(tmp_path, paper_config_dict())
    out = tmp_path / "plan.json"
    assert main(["plan", cfg, "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "T = 38" in printed
    assert "S = 1620" in printed

    payload = json.loads(out.read_text())
    assert payload["T"] == 38
    assert payload["S"] == 1620
    assert payload["t_first"] == 140
    assert payload["rho"] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert payload["C1"] == pytest.approx(437.5307547489853, rel=1e-10)
    assert payload["config"]["plan"]["zeta"] == 20


def test_plan_command_zero_rho(tmp_path):
    data = paper_config_dict()
    data["network"] = {"topology": "complete"}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "plan.json"
    assert main(["plan", cfg, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["T"] == 1


def test_missing_theta_reports_field_path(tmp_path, capsys):
    data = paper_config_dict()
    del data["model"]["theta"]
    cfg = write_config(tmp_path, data)
    assert main(["plan", cfg]) == 2
    assert "model.theta" in capsys.readouterr().err


def _nested(value, depth: int):
    """``value`` inside ``depth`` one-entry lists, built without recursion."""
    for _ in range(depth):
        value = [value]
    return value


def _set_mean(data: dict, mean: dict) -> None:
    data["model"]["mean_schedule"] = mean


def _golden_overrides_with(edit) -> dict:
    """The golden overrides config after ``edit(data)``."""
    data = json.loads((DATA_DIR / "golden_plan_overrides.json").read_text())
    edit(data)
    return data


def _golden_constant_with_vectors(vectors: list) -> dict:
    data = json.loads((DATA_DIR / "golden_plan_constant.json").read_text())
    data["model"]["mean_schedule"]["vectors"] = vectors
    return data


class Rewrite(NamedTuple):
    """A config error case that runs ``command`` on ``data`` in place of
    ``plan`` on the edited paper config."""

    command: str
    data: object


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda d: d["model"].update(sigma_x=-1.0), "model"),
        (lambda d: d["network"].pop("weights"), "network"),
        (lambda d: d.update(schedule={"zeta": 20, "T": 38, "S": 1620}), "schedule"),
        (lambda d: d["plan"].update(epsilon=-2.0), "plan.epsilon"),
        (lambda d: d["model"].update(bogus=1), "model.bogus"),
        (lambda d: d["run"].update(seed="abc"), "run.seed"),
        (lambda d: d["plan"].update(max_t=0), "plan.max_t: must be >= 1"),
        (lambda d: _set_mean(d, {"kind": "sinusoid", "amplitudes": [[1.0, 0.0]] * 6,
                                 "periods": [10.0] * 5 + [0.0]}), "model.mean_schedule.periods"),
        (lambda d: d.update(network={"topology": "ring", "self_weight": 1.5}),
         "network.self_weight: must be in [0, 1]"),
        # a ring with self_weight 1 is the identity: the network does not mix
        (lambda d: d.update(network={"topology": "ring", "self_weight": 1.0}),
         "network: mixing rate rho = 1.0 must be strictly below 1"),
        # matrix and vector entries are JSON numbers, as scalar fields are
        (lambda d: d["model"].update(theta=[["1.6", "0.3"], ["0.8", "0.3"]]),
         "model.theta: expected a number, got '1.6'"),
        (lambda d: d["model"].update(theta=[[True, 0.3], [0.8, 0.3]]),
         "model.theta: expected a number, got True"),
        (lambda d: _set_mean(d, {"kind": "sinusoid", "amplitudes": [[1.0, 0.0]] * 6,
                                 "periods": ["10"] * 6}),
         "model.mean_schedule.periods: expected a number, got '10'"),
        # range checks of BoundInputs, ModelSpec and Schedule name their field
        (lambda d: d["bounds"].update(delta=1.5), "bounds.delta: must be in (0, 1)"),
        (lambda d: d["model"].update(sigma_x=-1), "model.sigma_x: must be positive"),
        (lambda d: (d.pop("plan"), d.update(schedule={"zeta": 20, "T": 38, "S": 1630})),
         "schedule.S: must be an integer multiple of zeta"),
        (lambda d: d["bounds"].update(sigma_eta_upper=-0.5),
         "bounds.sigma_eta_upper: must be nonnegative"),
        # an assumed bound must bound the model's own value
        (lambda d: Rewrite("plan", _golden_overrides_with(
            lambda g: g["model"]["mean_schedule"]["amplitudes"].__setitem__(0, [1000.0, 0.0]))),
         "bounds.mu_hat_upper: must be >= the model's mu_hat, got 0.75 < 1000.0"),
        (lambda d: Rewrite("plan", _golden_overrides_with(
            lambda g: g["bounds"].update(sigma_eta_upper=0.1))),
         "bounds.sigma_eta_upper: must be >= the model's sigma_eta, got 0.1 < 0.5"),
        (lambda d: Rewrite("plan", _golden_overrides_with(
            lambda g: g["bounds"].update(sigma_x_upper=1.9))),
         "bounds.sigma_x_upper: must be >= the model's sigma_x, got 1.9 < 2.0"),
        (lambda d: Rewrite("plan", _golden_overrides_with(
            lambda g: g["bounds"].update(sigma_x_lower=2.1))),
         "bounds.sigma_x_lower: must be <= the model's sigma_x, got 2.1 > 2.0"),
        (lambda d: Rewrite("plan", _golden_overrides_with(
            lambda g: g["bounds"].update(theta_norm_upper=0.01))),
         "bounds.theta_norm_upper: must be >= the model's theta_norm, got 0.01 < "),
        # a check across two fields names the one the file set
        (lambda d: d["bounds"].update(sigma_x_lower=5),
         "bounds.sigma_x_lower: sigma_x_upper must be >= sigma_x_lower, got 3.0 < 5"),
        # ragged arrays and integers beyond the float range name their fault
        (lambda d: d["model"].update(theta=[[1.6, 0.3], [0.8]]),
         "model.theta: ragged array: rows differ in length"),
        (lambda d: d["model"].update(theta=[[1.6, 0.3], 0.8]),
         "model.theta: ragged array: rows differ in length or mix numbers with arrays"),
        (lambda d: d["model"].update(theta=[[1.6, 10**400], [0.8, 0.3]]),
         "model.theta: entries must be finite, got inf"),
        # deeper than numpy's 64 dimensions, though every level holds one entry
        (lambda d: d["model"].update(theta=_nested(1.6, 70)),
         "model.theta: nested too deeply: 70 levels of arrays, expected at most 2\n"),
        (lambda d: _set_mean(d, {"kind": "sinusoid", "amplitudes": [[1.0, 0.0]] * 6,
                                 "periods": [10.0] * 5 + [[10.0]]}),
         "model.mean_schedule.periods: ragged array"),
        # a scalar given as an array, and a vector given as a scalar
        (lambda d: d["model"].update(sigma_x=[3.0]), "model.sigma_x: expected a number, got [3.0]"),
        (lambda d: _set_mean(d, {"kind": "sinusoid", "amplitudes": [[1.0, 0.0]] * 6,
                                 "periods": 10.0}),
         "model.mean_schedule.periods: has shape (), expected (6,)"),
        # extreme but finite numbers that overflow the bound constants or numpy
        (lambda d: d["model"].update(sigma_x=1e200),
         "bounds: bound constants are not finite for BoundInputs(n=2, l=2, m=6, "
         "sigma_x_lower=1e+200, sigma_x_upper=1e+200"),
        (lambda d: d["bounds"].update(sigma_x_upper=1e200),
         "bounds: bound constants are not finite for BoundInputs(n=2, l=2, m=6, "
         "sigma_x_lower=3.0, sigma_x_upper=1e+200"),
        (lambda d: d["model"].update(sigma_x=1e-200),
         "bounds: bound constants are not finite for BoundInputs(n=2, l=2, m=6, "
         "sigma_x_lower=1e-200, sigma_x_upper=1e-200"),
        (lambda d: d["bounds"].update(delta=1e-320), "delta=1e-320, delta_hat=0.001"),
        # a mean norm whose square overflows: mu_hat stays finite, and no
        # numpy overflow warning comes before the bounds error
        (lambda d: Rewrite("plan", _golden_constant_with_vectors([[1e200] * 3] * 5)),
         "bounds: bound constants are not finite for BoundInputs(n=3, l=2, m=5, sigma_x_lower=1.5, "
         "sigma_x_upper=1.5, sigma_eta_upper=0.8, mu_hat_upper=1.7320508075688773e+200,"),
        (lambda d: _set_mean(d, {"kind": "sinusoid", "amplitudes": [[1e200, -1e200]] * 6,
                                 "periods": [10.0] * 6}),
         "bounds: bound constants are not finite for BoundInputs(n=2, l=2, m=6, sigma_x_lower=3.0, "
         "sigma_x_upper=3.0, sigma_eta_upper=1.0, mu_hat_upper=1.414213562373095e+200,"),
        (lambda d: d["plan"].update(zeta=10**30), "plan.zeta: must fit in 64 bits"),
        # the range checks of the planner and RunParams name their field
        (lambda d: d["plan"].update(zeta=0), "plan.zeta: must be >= 1"),
        (lambda d: d["plan"].update(epsilon=0), "plan.epsilon: must be positive"),
        (lambda d: d["plan"].update(epsilon_N=0.0), "plan.epsilon_N: must be positive"),
        (lambda d: d["run"].update(horizon=0), "run.horizon: must be >= 1"),
        (lambda d: d["run"].update(runs=0), "run.runs: must be in [1, 2**32]"),
        (lambda d: d["run"].update(seed=-1), "run.seed: must fit in 64 bits"),
        # a rejected value is quoted in short
        (lambda d: d["run"].update(seed=_nested(1, 500)),
         "run.seed: expected an integer, got [[[[[[[...]]]]]]]\n"),
        # the shape of each section and of the file
        (lambda d: _set_mean(d, {"kind": "linear"}),
         "model.mean_schedule.kind: expected 'zero', 'constant' or 'sinusoid', got 'linear'"),
        # a kind left out is missing, like any other required field; null is a bad kind
        (lambda d: _set_mean(d, {}), "model.mean_schedule.kind: required field is missing"),
        (lambda d: _set_mean(d, {"kind": None}),
         "model.mean_schedule.kind: expected 'zero', 'constant' or 'sinusoid', got None"),
        (lambda d: d["model"].update(n=0), "model.n: must be >= 1"),
        (lambda d: d["model"].update(l=0), "model.l: must be >= 1"),
        (lambda d: d["model"].update(m=0), "model.m: must be >= 1"),
        (lambda d: d["model"].update(theta=[1.6, 0.3, 0.8]),
         "model.theta: flat row-major array has 3 entries, expected 4"),
        (lambda d: d.update(run=[]), "run: expected an object, got list"),
        (lambda d: Rewrite("plan", [d]), "top-level JSON value must be an object"),
        (lambda d: d.update(network={}),
         "network: needs either 'weights' or 'topology' in {'ring', 'complete'}"),
        # each clause of a dense weight matrix, with plain floats in the message
        (lambda d: d["network"]["weights"][0].__setitem__(0, -0.1),
         "network.weights: nonnegative: negative weight -0.1 at (0, 0)"),
        (lambda d: d["network"]["weights"][0].__setitem__(0, 0.2),
         "network.weights: row_stochastic: row 0 sums to 0.8666666666666667, expected 1"),
        (lambda d: d["network"]["weights"][0].__setitem__(slice(0, 2), [2.0 / 3.0, 0.0]),
         "network.weights: symmetric: weight matrix is not symmetric"),
        (lambda d: d["network"].update(weights=np.eye(6).tolist()),
         "network.weights: spectral_gap: mixing rate rho = 1.0 must be strictly below 1"),
        # each command needs its own section
        (lambda d: (d.pop("plan"), d.update(schedule={"zeta": 20, "T": 38, "S": 1620})),
         "plan: the plan command needs a 'plan' section"),
        (lambda d: Rewrite("simulate", {k: v for k, v in d.items() if k != "run"}),
         "run: the simulate command needs a 'run' section"),
        # checked before the plan search, so a target it cannot reach does not mask it
        pytest.param(
            lambda d: Rewrite("simulate", {**{k: v for k, v in d.items() if k != "run"},
                                           "plan": {"zeta": 20, "epsilon": 1e-9,
                                                    "epsilon_N": 0.01, "max_t": 2000}}),
            "run: the simulate command needs a 'run' section",
            id="simulate-without-run-before-an-unreachable-plan"),
    ],
)
def test_config_errors_exit_2_with_path(tmp_path, capsys, mutate, path_fragment):
    data = paper_config_dict()
    command = "plan"
    rewrite = mutate(data)
    if isinstance(rewrite, Rewrite):
        command, data = rewrite
    cfg = write_config(tmp_path, data)
    assert main([command, cfg, "-o", str(tmp_path / "out")]) == 2
    assert path_fragment in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "simulate", "bounds"])
def test_an_epsilon_N_set_by_float_underflow_exits_2_naming_it(tmp_path, capsys, command):
    # on the paper's inputs 5e-324 needs T = 1838, where rho**T is 0.0
    data = paper_config_dict()
    data["plan"]["epsilon_N"] = 5e-324
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main([command, cfg, *(["--at", "140"] if command == "bounds" else ["-o", str(out)])]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: plan.epsilon_N: needs T = 1838 consensus steps, where rho**T = 0.0 ")
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


NON_FINITE_FIELDS = [
    ("model.theta", lambda d: d["model"].update(theta=[[1.6, INF], [0.8, 0.3]])),
    ("model.sigma_x", lambda d: d["model"].update(sigma_x=INF)),
    ("model.sigma_eta", lambda d: d["model"].update(sigma_eta=NAN)),
    ("model.mean_schedule.vectors", lambda d: _set_mean(
        d, {"kind": "constant", "vectors": [[NAN, 0.0]] + [[0.0, 0.0]] * 5})),
    ("model.mean_schedule.amplitudes", lambda d: _set_mean(
        d, {"kind": "sinusoid", "amplitudes": [[-INF, 0.0]] + [[0.0, 0.0]] * 5,
            "periods": [10.0] * 6})),
    ("model.mean_schedule.periods", lambda d: _set_mean(
        d, {"kind": "sinusoid", "amplitudes": [[1.0, 0.0]] * 6,
            "periods": [10.0] * 5 + [INF]})),
    ("network.weights", lambda d: d["network"]["weights"][2].__setitem__(2, NAN)),
    ("network.self_weight", lambda d: d.update(
        network={"topology": "ring", "self_weight": NAN})),
    ("bounds.delta", lambda d: d["bounds"].update(delta=NAN)),
    ("bounds.delta_hat", lambda d: d["bounds"].update(delta_hat=NAN)),
    ("bounds.sigma_x_lower", lambda d: d["bounds"].update(sigma_x_lower=NAN)),
    ("bounds.sigma_x_upper", lambda d: d["bounds"].update(sigma_x_upper=INF)),
    ("bounds.sigma_eta_upper", lambda d: d["bounds"].update(sigma_eta_upper=INF)),
    ("bounds.mu_hat_upper", lambda d: d["bounds"].update(mu_hat_upper=NAN)),
    ("bounds.theta_norm_upper", lambda d: d["bounds"].update(theta_norm_upper=INF)),
    ("plan.epsilon", lambda d: d["plan"].update(epsilon=INF)),
    ("plan.epsilon_N", lambda d: d["plan"].update(epsilon_N=NAN)),
]


@pytest.mark.parametrize(
    "field, mutate", [pytest.param(f, mutate, id=f) for f, mutate in NON_FINITE_FIELDS]
)
def test_non_finite_field_exits_2_naming_it(tmp_path, capsys, field, mutate):
    data = paper_config_dict()
    mutate(data)
    cfg = write_config(tmp_path, data)
    assert main(["bounds", cfg, "--at", "200"]) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}: " in err
    assert "finite" in err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["plan", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def _with_5000_digit_sigma_x(path: Path) -> None:
    text = json.dumps(paper_config_dict()).replace('"sigma_x": 3.0', '"sigma_x": 1' + "0" * 4999)
    path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize("write, message", [
    (lambda path: path.write_bytes(b'{"model": "\xff"}'), "invalid JSON: 'utf-8' codec"),
    # a Python without the digit limit reads the number and rejects it later,
    # as model.sigma_x, so only the prefix is checked
    (_with_5000_digit_sigma_x, None),
    # the decoder recurses once per nesting level
    (lambda path: path.write_text("[" * 100_000), "invalid JSON: nested too deeply"),
    # json alone would keep the last copy of a repeated key
    (lambda path: path.write_text(json.dumps(paper_config_dict()).replace(
        '"runs": 10', '"runs": 10, "runs": 1')), "invalid JSON: repeated key 'runs'\n"),
], ids=["non-utf-8", "5000-digit-integer", "nested-100000-deep", "repeated-key"])
def test_undecodable_config_exits_2_naming_the_file(tmp_path, capsys, write, message):
    path = tmp_path / "broken.json"
    write(path)
    assert main(["plan", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if message is not None:
        assert err.startswith(f"config error: {path}: {message}")


def test_array_nested_past_the_recursion_limit_names_its_field():
    # built in Python, so no decoder limit stops it before the field checks;
    # past numpy's 64 dimensions and past the recursion limit
    for depth in (70, 5000):
        data = paper_config_dict()
        data["model"]["theta"] = _nested(1.6, depth)
        with pytest.raises(ConfigError) as caught:
            resolve_config(data)
        assert caught.value.path == "model.theta"
        assert str(caught.value) == (f"model.theta: nested too deeply: {depth} levels of "
                                     "arrays, expected at most 2")


@pytest.mark.parametrize("field, edit", [
    ("model.sigma_x", lambda d: d["model"].update(sigma_x=_nested(3.0, 5000))),
    ("run.seed", lambda d: d["run"].update(seed=_nested(1008, 5000))),
    ("model.mean_schedule.kind", lambda d: _set_mean(d, {"kind": _nested("zero", 5000)})),
    ("model.theta", lambda d: d["model"]["theta"][1].__setitem__(0, {"x": _nested(0.8, 5000)})),
    ("run.seed", lambda d: d["run"].update(seed="1" * 10**6)),
    # past Python's 4,300-digit limit on int-to-string conversion
    ("model.mean_schedule.kind", lambda d: _set_mean(d, {"kind": 10**5000})),
    ("model.sigma_x", lambda d: d["model"].update(sigma_x=[10**5000])),
], ids=["sigma_x-5000-deep", "seed-5000-deep", "kind-5000-deep", "theta-entry-dict-5000-deep",
        "seed-10**6-characters", "kind-5001-digit-int", "sigma_x-5001-digit-int"])
def test_a_rejected_value_is_quoted_in_short(field, edit):
    # built in Python, so no decoder limit stops them before the field checks
    data = paper_config_dict()
    edit(data)
    with pytest.raises(ConfigError) as caught:
        resolve_config(data)
    assert caught.value.path == field
    assert len(str(caught.value)) < 100


def test_missing_file_exits_2(tmp_path):
    assert main(["plan", str(tmp_path / "nope.json")]) == 2


def test_simulate_smoke_no_communication(tmp_path):
    data = small_config_dict()
    data["model"]["m"] = 1
    data["network"] = {"topology": "ring"}
    data["schedule"] = {"zeta": 6, "T": 1, "S": 0}
    data["run"] = {"horizon": 5, "runs": 1, "seed": 4}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "trace.csv"
    assert main(["simulate", cfg, "-o", str(out)]) == 0

    lines = out.read_text().splitlines()
    rows = [ln for ln in lines if not ln.startswith("#")]
    header, data_rows = rows[0], rows[1:]
    assert header.startswith("t,local_err_mean,comm_err_mean,global_err")
    assert len(data_rows) == 5
    assert all(row.split(",")[6] == "0" for row in data_rows)  # comm never fires


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, small_config_dict())
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", cfg, "-o", str(out1)]) == 0
    assert main(["simulate", cfg, "-o", str(out2)]) == 0
    d1, d2 = out1.read_bytes(), out2.read_bytes()
    assert hashlib.sha256(d1).hexdigest() == hashlib.sha256(d2).hexdigest()


def test_main_runs_command_after_command_in_one_process(tmp_path, capsys):
    # main builds its parser once per process; nothing of one call, not even
    # a usage error, changes the output of the next
    golden = {g.file: g for g in GOLDENS}
    outputs = []
    for name in ("golden_plan_ring64_result.json", "golden_bounds_paper.txt",
                 "golden_trace.csv"):
        produced, _ = run_golden(golden[name], tmp_path)
        assert produced == (DATA_DIR / name).read_bytes()
        outputs.append(produced)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(DATA_DIR / "golden_config.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: netrls simulate ")
    assert "error: the following arguments are required: -o/--output" in err
    again, _ = run_golden(golden["golden_plan_ring64_result.json"], tmp_path)
    assert again == outputs[0]
    assert cli._parser.cache_info().misses == 1


@pytest.mark.parametrize("parallel", ["0", "-1", "2"])
def test_bad_parallel_runs_exits_2_naming_it(tmp_path, capsys, parallel):
    # the flag stays for the benchmark's callers and accepts only 1
    cfg = write_config(tmp_path, small_config_dict())
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", cfg, "-o", str(out), "--parallel-runs", parallel])
    assert exc.value.code == 2
    assert "--parallel-runs" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_exits_3(tmp_path, capsys):
    # 2**56 steps of float64 are 512 PiB, beyond any address space, so the
    # first array of the trace fails to allocate at once
    data = small_config_dict()
    data["run"]["horizon"] = 2**56
    cfg = write_config(tmp_path, data)
    out = tmp_path / "t.csv"
    assert main(["simulate", cfg, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "plan"])
def test_failed_write_keeps_previous_output(tmp_path, monkeypatch, command):
    data = small_config_dict() if command == "simulate" else paper_config_dict()
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main([command, cfg, "-o", str(out)]) == 0
    before = out.read_bytes()

    def fail(src, dst):
        raise OSError("no space left on device")

    data["run"]["seed"] += 1
    write_config(tmp_path, data)
    monkeypatch.setattr(os, "replace", fail)
    assert main([command, cfg, "-o", str(out)]) == 3
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]


@pytest.mark.parametrize("command", ["simulate", "plan"])
def test_missing_output_directory_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                          command):
    cfg = write_config(tmp_path, small_config_dict() if command == "simulate"
                       else paper_config_dict())

    def no_work(*args):
        raise AssertionError("the config was read before the output path was checked")

    monkeypatch.setattr(cli, "load_config", no_work)
    # a path in a missing directory, an empty path, and a directory
    for out in (str(tmp_path / "missing_dir" / "out"), "", str(tmp_path)):
        assert main([command, cfg, "-o", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --output: ") and repr(out) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", ["simulate", "plan"])
def test_write_onto_a_directory_exits_3_naming_the_output(tmp_path, monkeypatch, capsys,
                                                          command):
    cfg = write_config(tmp_path, small_config_dict() if command == "simulate"
                       else paper_config_dict())
    out = tmp_path / "out"

    # the directory appears after the output path was checked
    def load_then_mkdir(path, command):
        loaded = load_config(path, command)
        out.mkdir()
        return loaded

    monkeypatch.setattr(cli, "load_config", load_then_mkdir)
    assert main([command, cfg, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {str(out)!r}: ") and ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("schedule", [{"zeta": 2**64 - 1, "T": 3, "S": 0},
                                      {"zeta": 10, "T": 2**64 - 1, "S": 40}])
def test_simulate_takes_64_bit_schedules(tmp_path, schedule):
    data = small_config_dict()
    data["schedule"] = schedule
    cfg = write_config(tmp_path, data)
    out = tmp_path / "t.csv"
    assert main(["simulate", cfg, "-o", str(out)]) == 0
    fired = [row[6] for row in _trace_rows(out)]
    assert fired == ["1" if t % schedule["zeta"] == 0 and t <= schedule["S"] else "0"
                     for t in range(1, 61)]


@pytest.mark.parametrize("args", [["plan", "-o", "plan.json"], ["bounds", "--at", "200"],
                                  ["simulate", "-o", "t.csv"]], ids=lambda args: args[0])
def test_run_horizon_must_cover_the_planned_stopping_time(tmp_path, monkeypatch, capsys, args):
    data = paper_config_dict()
    data["run"]["horizon"] = 100  # below the planned S = 1620
    cfg = write_config(tmp_path, data)
    monkeypatch.chdir(tmp_path)
    assert main([args[0], cfg, *args[1:]]) == 2
    assert capsys.readouterr().err == (
        "config error: run.horizon: 100 does not cover the stopping time 1620\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_a_run_section_loads_as_the_sim_config_that_simulate_runs(tmp_path):
    path = str(CONFIGS_DIR / "smoke.json")
    cfg = load_config(path)
    assert isinstance(cfg.run, nr.SimConfig)
    assert (cfg.run.model, cfg.run.weights, cfg.run.schedule) == (
        cfg.model, cfg.weights, cfg.schedule)
    averaged = nr.run(cfg.run)
    out = tmp_path / "t.csv"
    assert main(["simulate", path, "-o", str(out)]) == 0
    rows = _trace_rows(out)
    columns = (averaged.t, averaged.local_err, averaged.comm_err, averaged.global_err)
    assert [row[:4] for row in rows] == [[str(int(t)), *map(_f12, errs)]
                                         for t, *errs in zip(*columns)]
    assert [row[6:] for row in rows] == [[str(int(f)), _f12(c)] for f, c in
                                         zip(averaged.comm_fired, averaged.pre_invertible_count)]


def _trace_rows(path: Path) -> list[list[str]]:
    """Data rows of a trace CSV, split into cells."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


@pytest.mark.parametrize("horizon", [40, 60])
def test_horizon_ending_before_burn_in_leaves_bound_columns_blank(tmp_path, horizon):
    # local bound valid from t = 56; communicated bound from t = 130
    data = small_config_dict()
    data["bounds"]["delta_hat"] = 0.001
    data["run"]["horizon"] = horizon
    data["schedule"]["S"] = 40
    cfg = write_config(tmp_path, data)
    out = tmp_path / "trace.csv"
    assert main(["simulate", cfg, "-o", str(out)]) == 0
    rows = _trace_rows(out)
    assert len(rows) == horizon
    inputs = load_config(cfg).bound_inputs
    for row in rows:
        t = int(row[0])
        assert row[4] == (_f12(nr.local_bound(inputs, t).value) if t >= 56 else "")
        assert row[5] == ""


def test_paper_trace_bound_columns_equal_scalar_calls(tmp_path):
    cfg = load_config(str(CONFIGS_DIR / "paper.json"))
    out = tmp_path / "trace.csv"
    assert main(["simulate", str(CONFIGS_DIR / "paper.json"), "-o", str(out)]) == 0
    rows = _trace_rows(out)
    assert len(rows) == cfg.run.horizon
    plan = nr.plan(cfg.bound_inputs, cfg.plan["zeta"], cfg.plan["epsilon"],
                   cfg.plan["epsilon_N"])
    for row in rows:
        t = int(row[0])
        local = _f12(nr.local_bound(cfg.bound_inputs, t).value) if t >= 76 else ""
        comm = _f12(nr.comm_bound(cfg.bound_inputs, t, plan.T).value) if t >= 138 else ""
        assert row[4:6] == [local, comm], t


@pytest.mark.parametrize("config, T, phase_calls", [("paper", 38, 30), ("ring64", 5803, 6)])
def test_simulate_forms_the_matrix_power_once(tmp_path, monkeypatch, config, T, phase_calls):
    # every phase of every piece and run mixes with the one W**T the command forms
    power, mix = np.linalg.matrix_power, simnet.run_comm_phase
    powers, phases = [], []
    monkeypatch.setattr(np.linalg, "matrix_power", lambda a, n: powers.append(n) or power(a, n))
    monkeypatch.setattr(simnet, "run_comm_phase",
                        lambda *args: phases.append(args[3]) or mix(*args))
    if config == "paper":
        path = str(CONFIGS_DIR / "paper.json")
    else:
        data = json.loads((DATA_DIR / "golden_plan_ring64.json").read_text(encoding="utf-8"))
        data["run"] = {"horizon": 300, "runs": 2, "seed": 35}
        path = write_config(tmp_path, data)
    assert main(["simulate", path, "-o", str(tmp_path / "trace.csv")]) == 0
    assert powers == [T]
    assert phases == [T] * phase_calls


# mean features put the burn-ins deep enough that either can fall on any row
# of a trace that starts at t >= 1: local from t = 429, communicated from 631
WRITER_INPUTS = nr.BoundInputs(n=2, l=2, m=6, sigma_x_lower=3.0, sigma_x_upper=3.0,
                               sigma_eta_upper=1.0, mu_hat_upper=0.7, theta_norm_upper=1.8,
                               delta=0.05, delta_hat=0.001, rho=2 / 3)
WRITER_SCHEDULE = nr.Schedule(zeta=20, T=38, S=1620)
WRITER_BOUNDS = {"local": lambda t: nr.local_bound(WRITER_INPUTS, t),
                 "comm": lambda t: nr.comm_bound(WRITER_INPUTS, t, WRITER_SCHEDULE.T)}
WRITER_BURN_IN = {"local": 429, "comm": 631}


def _rows_one_at_a_time(trace: nr.ErrorTrace) -> str:
    """The trace rows as per-row f-strings with one scalar bound call per
    cell: the plain rule ``write_trace`` must match byte for byte."""
    def cell(bound, t):
        try:
            return f"{float(bound(t).value):.12g}"
        except nr.BurnInError:
            return ""

    local, comm = WRITER_BOUNDS["local"], WRITER_BOUNDS["comm"]
    columns = (trace.t, trace.local_err, trace.comm_err, trace.global_err,
               trace.comm_fired, trace.pre_invertible_count)
    return "".join(
        f"{t:d},{le:.12g},{ce:.12g},{ge:.12g},{cell(local, t)},{cell(comm, t)},"
        f"{fired:d},{pre:.12g}\n"
        for t, le, ce, ge, fired, pre in zip(*(c.tolist() for c in columns)))


def _synthetic_trace(rng, t0: int, rows: int, pre_dtype) -> nr.ErrorTrace:
    """Error columns drawn from values whose ``.12g`` forms differ in style."""
    styles = np.array([1e-5, 1e16, 0.0, 5e-324, 2.2250738585072014e-308, 1.5e-310,
                       123456789012.5, 123456789013.5, 0.1234567890125, 9.9999999999995,
                       1.7976931348623157e308, 0.30000000000000004, 12.0, 1e-100])

    def column():
        return np.where(rng.random(rows) < 0.5, rng.choice(styles, rows),
                        rng.lognormal(0.0, 5.0, rows))

    pre = rng.integers(0, 7, rows)
    return nr.ErrorTrace(
        t=np.arange(t0, t0 + rows), local_err=column(), comm_err=column(),
        global_err=column(), comm_fired=rng.random(rows) < 0.1,
        # a multi-run average of counts is fractional
        pre_invertible_count=pre if pre_dtype is int else pre / 10)


@pytest.mark.parametrize("rows, bound, first_row", [
    (1000, "local", 20),            # both burn-ins inside the first chunk
    (1000, "local", 100),           # the communicated one in the next chunk
    (1000, "local", ROWS_PER_CHUNK),
    (1000, "local", ROWS_PER_CHUNK + 1),
    (1000, "comm", ROWS_PER_CHUNK),
    (1000, "comm", ROWS_PER_CHUNK + 1),
    (700, "comm", 2 * ROWS_PER_CHUNK - 1),
    (300, "local", 400),            # both past the horizon
    (300, "comm", 0),               # both from the first row
    (1, "local", 5),
    (1, "local", 0),
    (1, "comm", 0),
])
@pytest.mark.parametrize("pre_dtype", [float, int])
def test_write_trace_matches_rows_formatted_one_at_a_time(tmp_path, rows, bound, first_row,
                                                         pre_dtype):
    with pytest.raises(nr.BurnInError):
        WRITER_BOUNDS[bound](WRITER_BURN_IN[bound] - 1)
    WRITER_BOUNDS[bound](WRITER_BURN_IN[bound])
    t0 = WRITER_BURN_IN[bound] - first_row
    assert t0 >= 1
    trace = _synthetic_trace(np.random.default_rng(rows + first_row), t0, rows, pre_dtype)
    out = tmp_path / "trace.csv"
    write_trace(str(out), trace, {"k": "v"}, WRITER_INPUTS, WRITER_SCHEDULE)
    expected = ("# k=v\nt,local_err_mean,comm_err_mean,global_err,local_bound,comm_bound,"
                "comm_fired,pre_invertible_count\n" + _rows_one_at_a_time(trace))
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_write_trace_formats_runs_of_equal_cells_as_single_rows(tmp_path, seed):
    # comm_err, comm_fired and pre_invertible_count as step functions, as the
    # engine writes them, with runs across chunk and burn-in edges; 0.0 next
    # to -0.0 compares equal and nan next to nan does not, yet each prints
    # as itself
    rng = np.random.default_rng(seed)
    rows = 1000
    trace = _synthetic_trace(rng, 400, rows, float)
    values = np.array([0.0, -0.0, np.nan, np.nan, 0.25, 0.25, 1e-5, 3.0, -0.0, 0.0])

    def steps(cells):
        run = np.repeat(np.arange(rows), rng.integers(1, 2 * ROWS_PER_CHUNK, rows))[:rows]
        return np.resize(cells, rows)[run]

    trace.comm_err = steps(values)
    trace.comm_fired = steps(np.array([False, True, True]))
    trace.pre_invertible_count = steps(values[::-1])
    out = tmp_path / "trace.csv"
    write_trace(str(out), trace, {"k": "v"}, WRITER_INPUTS, WRITER_SCHEDULE)
    expected = ("# k=v\nt,local_err_mean,comm_err_mean,global_err,local_bound,comm_bound,"
                "comm_fired,pre_invertible_count\n" + _rows_one_at_a_time(trace))
    assert out.read_bytes() == expected.encode()
    assert b",-0," in out.read_bytes() and b",nan," in out.read_bytes()


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_write_trace_on_times_that_do_not_ascend(tmp_path, order):
    # rows from t = 400 to 1099 cross both burn-ins (429 and 631)
    trace = _synthetic_trace(np.random.default_rng(700), 400, 700, float)
    rng = np.random.default_rng(1)
    rows = np.arange(700)[::-1] if order == "reversed" else rng.permutation(700)
    trace = nr.ErrorTrace(**{name: column[rows] for name, column in vars(trace).items()})
    out = tmp_path / "trace.csv"
    write_trace(str(out), trace, {"k": "v"}, WRITER_INPUTS, WRITER_SCHEDULE)
    expected = ("# k=v\nt,local_err_mean,comm_err_mean,global_err,local_bound,comm_bound,"
                "comm_fired,pre_invertible_count\n" + _rows_one_at_a_time(trace))
    assert out.read_bytes() == expected.encode()


def _json_text_recursive(value, indent: int = 0) -> str:
    """``_json_text`` with one recursive call per item, floats included: the
    plain rule the float arrays, formatted one array at a time, must match
    byte for byte."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, np.ndarray):
        return _json_text_recursive(value.tolist(), indent)
    if isinstance(value, dict):
        items = [f"{inner}\"{k}\": {_json_text_recursive(value[k], indent + 1)}"
                 for k in sorted(value)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = [f"{inner}{_json_text_recursive(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return "\"" + value.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _plan_payload(config: Path) -> dict:
    cfg = load_config(str(config))
    result = nr.plan(cfg.bound_inputs, **cfg.plan)
    return {**asdict(result), "config": config_to_dict(cfg)}


FLOAT_STYLES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1.0, 1e16,
                np.float64(0.1), np.float64(-2.5e-7), np.float64(1e16)]


@pytest.mark.parametrize("payload", [
    pytest.param(lambda: _plan_payload(CONFIGS_DIR / "paper.json"), id="paper"),
    pytest.param(lambda: _plan_payload(DATA_DIR / "golden_plan_overrides.json"), id="overrides"),
    pytest.param(lambda: _plan_payload(DATA_DIR / "golden_plan_ring64.json"), id="ring64"),
    pytest.param(lambda: {"floats": FLOAT_STYLES, "tuple": tuple(FLOAT_STYLES),
                          "one": [0.1], "empty": [],
                          "rows": [FLOAT_STYLES[:3], FLOAT_STYLES[3:]]}, id="float-styles"),
    # ints, bools and floats in one list keep their ints as ints
    pytest.param(lambda: {"mixed": [1, 2.0, True, np.int64(3), np.float64(4.5), False, -7],
                          "ints": [1, 2, 3], "bools": [True, False],
                          "nested": [[1.5, 2], [0.25], 3.0, [[-0.0]]]}, id="mixed"),
    # runs of equal cells, within and across rows, that differ only in sign
    # or in type; and a % in a key and a string, which stay as they are
    pytest.param(lambda: {"rows": [[0.0, -0.0, 1 / 3, 1 / 3, np.float64(1 / 3), 0.0],
                                   [0.0, np.float64(-0.0), -0.0, 0.0, 1 / 3],
                                   [-0.0, np.float64(1 / 3), 1 / 3, np.float64(0.0)]],
                          "zero": -0.0, "third": np.float64(1 / 3),
                          "%s": "100%", "%%d": ["%", 0.0, "-0"]}, id="signed-zeros"),
    # float ndarrays: each one's cells formatted in one pass, then laid out
    # as nested rows
    pytest.param(lambda: {"vector": np.array([0.1, -2.5e-7, 1e308, 1.0])}, id="array-1d"),
    pytest.param(lambda: {"matrix": np.arange(12.0).reshape(3, 4) / 7,
                          "cube": np.arange(12.0).reshape(2, 3, 2) / 3}, id="array-2d"),
    pytest.param(lambda: {"one": np.array([[1.25]]), "lone": 0.5}, id="array-1x1"),
    pytest.param(lambda: {"transposed": (np.arange(12.0).reshape(3, 4) / 3).T,
                          "column": (np.arange(4.0) / 9)[::-2]}, id="array-non-contiguous"),
    pytest.param(lambda: {"read-only": load_config(str(CONFIGS_DIR / "paper.json")).weights.w},
                 id="array-read-only"),
    pytest.param(lambda: {"flat": np.empty(0), "rows": np.empty((2, 0)),
                          "none": np.empty((0, 3)), "after": [np.empty(0), 1.5],
                          "inner": np.empty((1, 2, 0)), "middle": np.empty((2, 0, 3))},
                 id="array-empty"),
    pytest.param(lambda: {"cells": np.array([[-0.0, 5e-324, 1e16], [0.0, -0.0, 1e16]]),
                          "single": np.array([5e-324])}, id="array-cell-styles"),
    # runs of equal cells that cross a row boundary, and between arrays and
    # the lone floats and lists around them
    pytest.param(lambda: {"a": 1 / 3, "b": np.array([[1 / 3, 0.5, 0.5], [0.5, 0.5, 1 / 3]]),
                          "c": [1 / 3, np.array([1 / 3, -0.0]), -0.0, 0.0, [0.0]],
                          "d": np.full((2, 2), -0.0), "e": 0.0}, id="array-runs"),
])
def test_json_text_matches_the_recursive_formatter(payload):
    value = payload()
    assert cli._json_text(value) == _json_text_recursive(value)


def test_trace_header_keeps_the_sign_of_zero(tmp_path):
    data = small_config_dict()
    data["model"].update(theta=[[0.0, -0.0], [-0.0, 1.25]], n=2, l=2, m=4)
    third = 1 / 3
    data["network"] = {"weights": [[third, third, -0.0, third],
                                   [third, third, third, 0.0],
                                   [0.0, third, third, third],
                                   [third, -0.0, third, third]]}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "trace.csv"
    assert main(["simulate", cfg, "-o", str(out)]) == 0
    header = dict(line[2:].split("=", 1) for line in out.read_text().splitlines()
                  if line.startswith("# "))
    t = "0.33333333333333331"
    assert header["model.theta"] == "0,-0,-0,1.25"
    assert header["network.weights"] == ",".join([t, t, "-0", t, t, t, t, "0",
                                                  "0", t, t, t, t, "-0", t, t])


def test_bounds_command_table(tmp_path, capsys):
    cfg = write_config(tmp_path, paper_config_dict())
    assert main(["bounds", cfg, "--at", "100,1620"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].lstrip().startswith("t")
    row100 = next(ln for ln in lines if ln.lstrip().startswith("100"))
    assert "below burn-in: communicated" in row100
    row1620 = next(ln for ln in lines if ln.lstrip().startswith("1620"))
    assert "0.499799871624" in row1620
    assert "below burn-in" not in row1620

    # unsorted, with duplicates and times below each burn-in: input order,
    # one row per time, each cell equal to the scalar bound call
    assert main(["bounds", cfg, "--at", "1620,5,100,5,1,13,12"]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [1620, 5, 100, 5, 1, 13, 12]
    all_below = ["below", "burn-in:", "local,", "global,", "communicated"]
    assert rows[1][6:] == rows[3][6:] == rows[4][6:] == rows[6][6:] == all_below
    assert rows[2][6:] == ["below", "burn-in:", "communicated"]
    assert rows[5][6:] == ["below", "burn-in:", "local,", "communicated"]
    inputs = load_config(cfg).bound_inputs
    comm = nr.comm_bound(inputs, 1620, 38)
    assert rows[0][1:] == [_f12(nr.local_bound(inputs, 1620).value),
                           _f12(nr.global_bound(inputs, 1620).value),
                           _f12(comm.value), _f12(comm.network_term), _f12(comm.noise_term)]
    assert rows[2][1:3] == [_f12(nr.local_bound(inputs, 100).value),
                            _f12(nr.global_bound(inputs, 100).value)]
    assert rows[5][2] == _f12(nr.global_bound(inputs, 13).value)


def _bounds_table_row_by_row(config: Path, ts: list[int]) -> str:
    """The ``bounds`` table with one scalar bound call and one f-string per
    cell: the plain rule the command's segment templates must match byte for
    byte. The command evaluates float times, so ``2**53 + 1`` is evaluated as
    ``2**53``, while its ``t`` cell prints the exact integer."""
    cfg = load_config(str(config))
    schedule = cfg.schedule
    bi = cfg.bound_inputs
    # per bound: the call, its report terms, their cell widths, its note
    bounds = [
        (lambda t: nr.local_bound(bi, t), ("value",), (12,), "local"),
        (lambda t: nr.global_bound(bi, t), ("value",), (12,), "global"),
        (lambda t: nr.comm_bound(bi, t, schedule.T), ("value", "network_term", "noise_term"),
         (14, 12, 12), "communicated"),
    ]
    lines = [f"{'t':>8}  {'local':>12}  {'global':>12}  {f'comm(T={schedule.T})':>14}  "
             f"{'network':>12}  {'noise':>12}  note"]
    for t in ts:
        parts, notes = [f"{t:>8}"], []
        for bound, terms, widths, name in bounds:
            try:
                report = bound(float(t))
            except nr.BurnInError:
                parts.extend("-".rjust(w) for w in widths)
                notes.append(name)
            else:
                parts.extend(f"{float(getattr(report, term)):.12g}".rjust(w)
                             for term, w in zip(terms, widths))
        lines.append("  ".join(parts) + (f"  below burn-in: {', '.join(notes)}" if notes else ""))
    return "\n".join(lines) + "\n"


def _alternating_burn_ins(config: Path) -> list[int]:
    """Times just below and at each bound's burn-in, between times past all
    of them, so that the burn-in pattern changes on every row."""
    cfg = load_config(str(config))
    schedule = cfg.schedule
    bi = cfg.bound_inputs
    firsts = []
    for bound in (lambda t: nr.local_bound(bi, t), lambda t: nr.global_bound(bi, t),
                  lambda t: nr.comm_bound(bi, t, schedule.T)):
        with pytest.raises(nr.BurnInError) as caught:
            bound(0)
        firsts.append(caught.value.valid_from)
    past = 10 * max(firsts)
    return [t for first in sorted(firsts) for t in (past, first - 1, first)]


BOUNDS_CASES = {
    "ladder": lambda config: [5 + 3 * k for k in range(1000)],
    "unsorted": lambda config: [1620, 5, 100, 5, 1, 13, 12, 137, 138, 3000, 138, 1, 20000, 5],
    "alternating": _alternating_burn_ins,
    "single": lambda config: [1620],
    "zero": lambda config: [0],
    "negative": lambda config: [-5],
    "past-2**53": lambda config: [2**53 + 1],
    "1e18": lambda config: [10**18],
    "extremes": lambda config: [0, -5, 2**53 + 1, 1, 10**18, -(2**63), 2**53 + 1],
}


@pytest.mark.parametrize("case", list(BOUNDS_CASES))
@pytest.mark.parametrize("config", [CONFIGS_DIR / "paper.json",
                                    DATA_DIR / "golden_plan_overrides.json"],
                         ids=["paper", "overrides"])
def test_bounds_table_matches_rows_formatted_one_at_a_time(capsys, config, case):
    ts = BOUNDS_CASES[case](config)
    assert main(["bounds", str(config), "--at", ",".join(map(str, ts))]) == 0
    out = capsys.readouterr().out
    lines, expected = out.splitlines(True), _bounds_table_row_by_row(config, ts).splitlines(True)
    # the first line that differs: pytest's own diff of two 1000-line tables takes minutes
    first_difference = next(((a, b) for a, b in zip(lines, expected) if a != b), None)
    assert (first_difference, len(lines)) == (None, len(expected))
    if case == "alternating":
        notes = [line.partition("below burn-in")[2] for line in out.splitlines()[1:]]
        assert all(a != b for a, b in zip(notes, notes[1:]))
    if case == "past-2**53":
        assert out.splitlines()[1].split()[0] == "9007199254740993"


def test_bounds_command_rejects_bad_at(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, paper_config_dict())

    def no_work(path):
        raise AssertionError("the config was read and planned before --at was checked")

    monkeypatch.setattr(cli, "load_config", no_work)
    # int() alone takes '_' separators and non-ASCII digits such as Arabic-Indic ones
    for at in ["ten", "1_620, \u0661\u0662", "1_620", "\u0661\u0662", "1620,+-5", "0x10",
               "1.5", "1e3"]:
        assert main(["bounds", cfg, "--at", at]) == 2, at
        assert capsys.readouterr().err == (
            f"config error: --at: expected comma-separated integers, got {at!r}\n")
    assert main(["bounds", cfg, "--at", ","]) == 2
    assert "--at: needs at least one time step" in capsys.readouterr().err


def test_config_round_trip_preserves_outputs(tmp_path):
    original = resolve_config(paper_config_dict())
    echoed = config_to_dict(original)
    reloaded = resolve_config(json.loads(cli._json_text(echoed)))

    first = nr.plan(original.bound_inputs, original.plan["zeta"],
                    original.plan["epsilon"], original.plan["epsilon_N"])
    second = nr.plan(reloaded.bound_inputs, reloaded.plan["zeta"],
                     reloaded.plan["epsilon"], reloaded.plan["epsilon_N"])
    assert (first.T, first.S, first.t_first) == (second.T, second.S, second.t_first)
    assert first.C1 == second.C1 and first.c3 == second.c3

    small = resolve_config(small_config_dict())
    small_echo = resolve_config(json.loads(cli._json_text(config_to_dict(small))))
    avg_a = nr.run(small.run)
    avg_b = nr.run(small_echo.run)
    assert np.array_equal(avg_a.local_err, avg_b.local_err)
    assert np.array_equal(avg_a.global_err, avg_b.global_err)

    # a constant mean echoes its vectors, and they reach the plan and the draws
    constant = small_config_dict()
    constant["model"]["mean_schedule"] = {"kind": "constant", "vectors": [[0.5], [-1.5]]}
    constant_cfg = resolve_config(constant)
    echo = json.loads(cli._json_text(config_to_dict(constant_cfg)))
    assert echo["model"]["mean_schedule"] == constant["model"]["mean_schedule"]
    constant_echo = resolve_config(echo)
    assert constant_echo.bound_inputs == constant_cfg.bound_inputs
    traces = [nr.run(c.run) for c in (constant_cfg, constant_echo)]
    assert np.array_equal(traces[0].local_err, traces[1].local_err)
    assert np.array_equal(traces[0].comm_err, traces[1].comm_err)


def test_flat_row_major_theta_accepted(tmp_path):
    data = small_config_dict()
    data["model"]["theta"] = [1.25]
    cfg = resolve_config(data)
    assert cfg.model.theta.shape == (1, 1)

    wide = paper_config_dict()
    wide["model"]["theta"] = [1.6, 0.3, 0.8, 0.3]
    assert np.array_equal(resolve_config(wide).model.theta, [[1.6, 0.3], [0.8, 0.3]])


def test_mean_schedule_round_trip(tmp_path):
    # each field of each kind, set from its shape, survives the echo, and the
    # trace header names the kind
    for schedule in get_args(MeanSchedule):
        data = small_config_dict()
        shapes = schedule.shapes(data["model"]["m"], data["model"]["n"])
        assert set(shapes) == {f.name for f in fields(schedule)}
        data["model"]["mean_schedule"] = {"kind": schedule.kind, **{
            name: (0.5 + np.arange(np.prod(shape))).reshape(shape).tolist()
            for name, shape in shapes.items()}}
        cfg = resolve_config(data)
        again = resolve_config(json.loads(cli._json_text(config_to_dict(cfg))))
        assert type(cfg.model.mean) is type(again.model.mean) is schedule
        for name in shapes:
            assert np.array_equal(getattr(again.model.mean, name),
                                  data["model"]["mean_schedule"][name]), (schedule.kind, name)
        assert again.model.mu_hat == cfg.model.mu_hat

        out = tmp_path / f"{schedule.kind}.csv"
        config = write_config(tmp_path, data, f"{schedule.kind}.json")
        assert main(["simulate", config, "-o", str(out)]) == 0
        assert f"# model.mean_schedule={schedule.kind}\n" in out.read_text()


def test_each_section_follows_its_declaration(tmp_path, capsys):
    # the fields of plan, schedule and run are the int and float parameters
    # of the call each configures, read with that type; one left out is
    # missing unless the call has a default, any other key is unknown, and
    # the echo holds every parameter, defaults included
    wrong = {int: 1.5, float: "0.5"}
    echoes = {}
    for section, call in [("plan", nr.plan), ("schedule", nr.Schedule), ("run", RunParams)]:
        data = paper_config_dict()
        if section == "schedule":
            del data["plan"]
            data["schedule"] = {"zeta": 20, "T": 38, "S": 1620}
        given = data[section]
        params = [p for p in inspect.signature(call, eval_str=True).parameters.values()
                  if p.annotation in wrong]
        assert set(given) <= {p.name for p in params}

        def exits_2(fields: dict) -> str:
            config = write_config(tmp_path, {**data, section: fields})
            assert main(["bounds", config, "--at", "1"]) == 2
            return capsys.readouterr().err

        for p in params:
            left_out = {k: v for k, v in given.items() if k != p.name}
            if p.default is p.empty:
                assert exits_2(left_out) == \
                    f"config error: {section}.{p.name}: required field is missing\n"
            else:
                echo = config_to_dict(resolve_config({**data, section: left_out}))
                assert echo[section][p.name] == p.default
            expected = "an integer" if p.annotation is int else "a number"
            assert exits_2({**given, p.name: wrong[p.annotation]}).startswith(
                f"config error: {section}.{p.name}: expected {expected}, got ")
        assert exits_2({**given, "extra": 1}) == f"config error: {section}.extra: unknown field\n"
        echoes[section] = config_to_dict(resolve_config(data))[section]
        assert echoes[section] == {p.name: given.get(p.name, p.default) for p in params}
    assert echoes == {"plan": {"zeta": 20, "epsilon": 0.5, "epsilon_N": 0.01, "max_t": 1000000},
                      "schedule": {"zeta": 20, "T": 38, "S": 1620},
                      "run": {"horizon": 3000, "runs": 10, "seed": 1008}}


def test_committed_configs_are_valid():
    paper = load_config(str(CONFIGS_DIR / "paper.json"))
    assert paper.model.m == 6
    assert paper.weights.rho == pytest.approx(2.0 / 3.0, abs=1e-10)
    smoke = load_config(str(CONFIGS_DIR / "smoke.json"))
    assert smoke.schedule.T == 3


def test_runs_must_fit_32_bit_run_indices():
    # runs 0 .. runs-1 key the draws in 32 bits: 2**32 runs fit, one more is
    # rejected when the config is built, not after 2**32 runs
    data = small_config_dict()
    data["run"]["runs"] = 2**32
    cfg = resolve_config(data)
    data["run"]["runs"] = 2**32 + 1
    with pytest.raises(ConfigError, match=r"^run\.runs: "):
        resolve_config(data)
    assert cfg.run.runs == 2**32
    with pytest.raises(ValueError, match="runs"):
        replace(cfg.run, runs=2**32 + 1)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sim_config_rejects_a_seed_beyond_64_bits(seed):
    cfg = resolve_config(small_config_dict())
    with pytest.raises(ValueError, match="seed"):
        replace(cfg.run, seed=seed)


def test_writeback_field_is_rejected(tmp_path, capsys):
    data = small_config_dict()
    data["run"]["writeback_mixed"] = True
    assert main(["simulate", write_config(tmp_path, data), "-o", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == "config error: run.writeback_mixed: unknown field\n"
    cfg = resolve_config(small_config_dict())
    with pytest.raises(TypeError):
        replace(cfg.run, writeback_mixed=True)


def test_plan_config_is_planned_when_resolved():
    cfg = load_config(str(CONFIGS_DIR / "paper.json"))
    assert cfg.schedule == cfg.planned.schedule() == nr.Schedule(zeta=20, T=38, S=1620)
    echo = config_to_dict(cfg)
    assert "schedule" not in echo and echo["plan"]["max_t"] == 10**6
    # a schedule config is not planned, and echoes its schedule
    smoke = load_config(str(CONFIGS_DIR / "smoke.json"))
    smoke_echo = config_to_dict(smoke)
    assert smoke.planned is None and smoke.plan is None and "plan" not in smoke_echo
    assert smoke_echo["schedule"] == {"zeta": 10, "T": 3, "S": 40}


def test_bad_field_is_reported_before_an_unreachable_plan(tmp_path, capsys):
    data = paper_config_dict()
    data["plan"]["epsilon"] = 1e-9
    data["run"]["seed"] = -1
    cfg = write_config(tmp_path, data)
    assert main(["plan", cfg, "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: run.seed: must fit in 64 bits\n"


def test_unreachable_plan_exits_3(tmp_path, capsys):
    data = paper_config_dict()
    data["plan"]["epsilon"] = 1e-9
    data["plan"]["max_t"] = 2000
    cfg = write_config(tmp_path, data)
    assert main(["plan", cfg]) == 3
    assert "never drops below" in capsys.readouterr().err
