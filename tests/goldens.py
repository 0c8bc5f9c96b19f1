"""The golden outputs: each ``netrls`` command line and the file under
``tests/data`` that pins its bytes.

``tests/test_goldens.py`` compares every entry under the default OpenBLAS
kernel, and again under forced kernels, each in a child interpreter, where
a plan golden's ``rho`` line is left out (``differing``). This module is
not a test file; both comparisons import it, and so do the CI steps that
record the OpenBLAS core type and compare the installed ``netrls`` with
every golden. ``errors_digest`` pins the engine's 2x2 estimate pass
under every kernel too.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
from pathlib import Path
from typing import NamedTuple

DATA_DIR = Path(__file__).parent / "data"
CONFIGS_DIR = Path(__file__).parent.parent / "configs"


class Golden(NamedTuple):
    """``netrls *argv`` and the golden file its output must equal.

    ``plan`` and ``simulate`` write their output to a path that
    ``run_golden`` appends as ``-o``; ``bounds`` prints it. ``printed`` holds
    the first lines a ``plan`` prints."""

    file: str
    argv: tuple[str, ...]
    printed: tuple[str, ...] = ()


def _data(name: str) -> str:
    return str(DATA_DIR / name)


PAPER = str(CONFIGS_DIR / "paper.json")
OVERRIDES = _data("golden_plan_overrides.json")

GOLDENS = (
    Golden("golden_trace.csv", ("simulate", _data("golden_config.json"))),
    # the paper's 2x2 theta on a 3-agent ring with a sinusoid mean: the 2x2
    # closed forms and the mean schedule
    Golden("golden_trace_2x2.csv", ("simulate", _data("golden_config_2x2.json"))),
    # 12 runs: the running sum over runs in index order
    Golden("golden_trace_runs.csv", ("simulate", _data("golden_config_runs.json"))),
    # unsorted, with duplicates, and every burn-in case
    Golden("golden_bounds_paper.txt",
           ("bounds", PAPER, "--at", "1620,5,100,5,1,13,12,137,138,3000")),
    # a nonzero mean's burn-in, sigma_x_lower != sigma_x_upper and every override
    Golden("golden_bounds_overrides.txt",
           ("bounds", OVERRIDES, "--at", "1,100,1000,5000,6000,20000")),
    Golden("golden_plan_result.json", ("plan", PAPER), (
        "consensus steps per phase: T = 38",
        "stopping time: S = 1620 (first communication at t = 140)",
        "mixing rate rho = 0.666666666667, period zeta = 20",
        "constants: C1 = 437.530754749, c1 = 39.1977625689, c2 = 72.4187019853, "
        "c3 = 784.924624831",
    )),
    # sinusoid mean, ring with self_weight, every bounds override, plan.max_t
    Golden("golden_plan_overrides_result.json", ("plan", OVERRIDES), (
        "consensus steps per phase: T = 16",
        "stopping time: S = 4890 (first communication at t = 1650)",
        "mixing rate rho = 0.4, period zeta = 15",
        "constants: C1 = 176.476443374, c1 = 18.08625, c2 = 26.4191681794, "
        "c3 = 1273.58672294",
    )),
    # the reference model on a 64-agent ring: a 64x64 weights echo
    Golden("golden_plan_ring64_result.json", ("plan", _data("golden_plan_ring64.json")), (
        "consensus steps per phase: T = 5803",
        "stopping time: S = 160 (first communication at t = 140)",
        "mixing rate rho = 0.996789817781, period zeta = 20",
        "constants: C1 = 437.530754749, c1 = 39.1977625689, c2 = 72.4187019853, "
        "c3 = 27344.5662917",
    )),
    # a constant mean: its vectors in the echo, its norm setting the burn-in
    Golden("golden_plan_constant_result.json", ("plan", _data("golden_plan_constant.json")), (
        "consensus steps per phase: T = 34",
        "stopping time: S = 5125 (first communication at t = 675)",
        "mixing rate rho = 0.654508497187, period zeta = 25",
        "constants: C1 = 211.357696142, c1 = 7.2559986334, c2 = 31.2398356838, "
        "c3 = 2992.29952849",
    )),
)

# a plan golden prints rho to 17 digits on this top-level line, and rho's
# last bits still follow the OpenBLAS kernel (ROADMAP item 2)
RHO_LINE = b'  "rho": '


def run_golden(golden: Golden, workdir: Path) -> tuple[bytes, str]:
    """The bytes ``netrls.cli.main`` produces for ``golden`` in this process,
    and what it printed: the file written into ``workdir`` for ``plan`` and
    ``simulate``, stdout for ``bounds``."""
    from netrls.cli import main

    command = golden.argv[0]
    out = workdir / golden.file
    argv = list(golden.argv) if command == "bounds" else [*golden.argv, "-o", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"netrls {' '.join(argv)} exited {code}")
    printed = stdout.getvalue()
    return (printed.encode() if command == "bounds" else out.read_bytes()), printed


def _without_rho(output: bytes) -> list[bytes]:
    return [line for line in output.splitlines() if not line.startswith(RHO_LINE)]


def differing(workdir: Path) -> list[str]:
    """The goldens whose output (its ``RHO_LINE`` left out) or printed
    lines, produced in this process, differ from the golden ones."""
    out = []
    for g in GOLDENS:
        produced, printed = run_golden(g, workdir)
        if (_without_rho(produced) != _without_rho((DATA_DIR / g.file).read_bytes())
                or printed.splitlines()[:len(g.printed)] != list(g.printed)):
            out.append(g.file)
    return out


# the core-name call of numpy's bundled OpenBLAS (scipy-openblas64 wheels),
# then of a plain OpenBLAS build
CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename")


def errors_digest() -> str:
    """The sha256 of ``simnet._errors`` over fixed, seeded, invertible 2x2
    lanes: an estimate pass's ``(steps, m + 1, 2, 2)`` stack and a phase
    call's ``(k, m, 2, 2)`` one, 4,070 lanes in all. The inputs are formed
    with no BLAS call, so the digest reads the engine's kernels alone."""
    import hashlib

    import numpy as np
    from netrls import simnet

    rng = np.random.default_rng(36)
    theta = rng.normal(size=(2, 2))
    digest = hashlib.sha256()
    for lanes in ((512, 7), (81, 6)):
        x = rng.normal(size=(*lanes, 4, 2))
        # four outer products per lane, summed entry by entry
        beta = (x[..., :, None] * x[..., None, :]).sum(axis=-3)
        flags = simnet.full_rank(beta)
        assert flags.all()
        errs = simnet._errors(4 * rng.normal(size=(*lanes, 2, 2)), beta, flags, theta)
        digest.update(errs.tobytes())
    return digest.hexdigest()


def openblas_core() -> str | None:
    """The kernel the OpenBLAS that numpy's linalg uses runs in this process,
    such as ``SkylakeX``, or None when that BLAS exports no core-name call."""
    from numpy.linalg import _umath_linalg

    # the extension's handle: dlsym searches its linked libraries too
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for symbol in CORENAME_SYMBOLS:
        corename = getattr(lib, symbol, None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None
