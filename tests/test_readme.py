"""The README's library example and command lines run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np

from netrls.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_example_runs(monkeypatch):
    monkeypatch.chdir(ROOT)  # the example reads configs/ by a relative path
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the values its comments state
    result = namespace["result"]
    assert (result.T, result.S) == (38, 1620)
    assert abs(namespace["weights"].rho - 2 / 3) < 1e-12
    assert namespace["x"].shape == (1000, 6, 2) and namespace["x0"].shape == (1000, 2)
    assert namespace["y_hat"].shape == (500, 6, 2)
    # the config file describes the same run as the calls before it
    averaged, same = namespace["averaged"], namespace["same"]
    for column in ("local_err", "comm_err", "global_err", "comm_fired"):
        assert np.allclose(getattr(same, column), getattr(averaged, column), rtol=1e-12), column


def test_readme_command_lines_run(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.DOTALL).group(1)
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("netrls ")]
    assert [argv[1] for argv in commands] == ["plan", "simulate", "bounds"]
    # outputs land in tmp_path; configs/ is the repository's
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        args = [str(ROOT / arg) if arg.startswith("configs/") else arg for arg in argv[1:]]
        assert main(args) == 0, argv
