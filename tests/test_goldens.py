"""Every golden output byte for byte: under the default OpenBLAS kernel in
this process, and under forced kernels in child interpreters. The goldens
are listed once, in ``goldens.py``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netrls as nr

import goldens
from goldens import DATA_DIR, GOLDENS, run_golden


@pytest.mark.parametrize("golden", GOLDENS, ids=lambda g: g.file)
def test_golden_output(tmp_path, golden):
    produced, printed = run_golden(golden, tmp_path)
    assert produced == (DATA_DIR / golden.file).read_bytes()
    assert printed.splitlines()[:len(golden.printed)] == list(golden.printed)


@pytest.mark.parametrize("golden", [g for g in GOLDENS if g.argv[0] == "plan"],
                         ids=lambda g: g.file)
def test_plan_echo_is_a_fixed_point(tmp_path, golden):
    # planning the config that a plan golden echoes writes the bytes that
    # planning its input writes: the golden's T and S, and its echo of the
    # resolved arrays again
    produced, _ = run_golden(golden, tmp_path)
    expected = json.loads((DATA_DIR / golden.file).read_bytes())
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(expected["config"]))
    again, _ = run_golden(golden._replace(argv=("plan", str(echo))), tmp_path)
    assert again == produced
    replanned = json.loads(again)
    assert [replanned[k] for k in ("T", "S", "config")] == \
        [expected[k] for k in ("T", "S", "config")]


# each kernel that OPENBLAS_CORETYPE forces: the CPU feature it needs, and
# the name OpenBLAS reports for it. x86-64 OpenBLAS runs its older cores on
# the Prescott kernel and names it after the first of them, Katmai.
FORCED_KERNELS = {
    "Haswell": ("AVX2", "Haswell"),
    "Sandybridge": ("AVX", "Sandybridge"),
    "Prescott": ("SSE3", "Katmai"),
}

# run in the child: its core name, the goldens it does not reproduce
# (``goldens.differing``) and the digest of the 2x2 estimate pass
CHILD = """
import json, sys
from pathlib import Path
import goldens
print(json.dumps({"core": goldens.openblas_core(),
                  "differ": goldens.differing(Path(sys.argv[1])),
                  "errors": goldens.errors_digest()}))
"""


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def _skip_reason(kernel: str) -> str | None:
    if goldens.openblas_core() is None:
        return "numpy's BLAS exports no OpenBLAS core-name call"
    feature = FORCED_KERNELS[kernel][0]
    if not _cpu_features().get(feature):
        return f"this CPU lacks {feature}, which the {kernel} kernel needs"
    return None


@pytest.fixture(scope="module")
def kernel_children(tmp_path_factory) -> dict[str, subprocess.Popen]:
    """One child interpreter per forced kernel this machine runs, started together."""
    paths = [str(Path(nr.__file__).resolve().parent.parent), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH")]
    children = {
        kernel: subprocess.Popen(
            [sys.executable, "-c", CHILD, str(tmp_path_factory.mktemp(kernel))],
            env={**os.environ, "OPENBLAS_CORETYPE": kernel,
                 "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for kernel in FORCED_KERNELS if _skip_reason(kernel) is None}
    yield children
    for child in children.values():
        child.kill()
        child.communicate()


@pytest.mark.parametrize("kernel", list(FORCED_KERNELS))
def test_goldens_under_a_forced_openblas_kernel(kernel_children, kernel):
    reason = _skip_reason(kernel)
    if reason is not None:
        pytest.skip(reason)
    child = kernel_children[kernel]
    out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    # the 2x2 estimate pass has the bits of the default kernel's
    assert json.loads(out) == {"core": FORCED_KERNELS[kernel][1], "differ": [],
                               "errors": goldens.errors_digest()}


@pytest.mark.parametrize("missing", ["core-name-call", "cpu-feature"])
def test_forced_kernel_test_skips_without(monkeypatch, missing):
    if missing == "core-name-call":
        monkeypatch.setattr(goldens, "CORENAME_SYMBOLS", ("no_such_corename_call",))
        assert goldens.openblas_core() is None
        reason = "numpy's BLAS exports no OpenBLAS core-name call"
    else:
        monkeypatch.setattr(goldens, "openblas_core", lambda: "SkylakeX")
        monkeypatch.setitem(globals(), "_cpu_features", lambda: {})
        reason = "this CPU lacks AVX2, which the Haswell kernel needs"
    with pytest.raises(pytest.skip.Exception, match=reason):
        test_goldens_under_a_forced_openblas_kernel({}, "Haswell")
