"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
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
