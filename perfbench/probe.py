"""Child-process probes for the benchmark; run.py starts them with src on PYTHONPATH.

    python3 perfbench/probe.py setup CONFIG
        Times ``import netrls`` plus ``load_config(CONFIG)`` in this fresh
        interpreter and prints ``{"setup_s": ...}``.

    python3 perfbench/probe.py commands ARGV_JSON
        Runs each argument list of the JSON list through ``netrls.cli.main``
        once, then prints the exit codes, captured stdout and the peak RSS of
        this process as one JSON line.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def setup(config_path: str) -> dict:
    start = time.perf_counter()
    import netrls  # noqa: F401  (the import is what is timed)
    from netrls.config import load_config

    load_config(config_path)
    return {"setup_s": time.perf_counter() - start}


def commands(argv_json: str) -> dict:
    from netrls import cli

    results = []
    for argv in json.loads(argv_json):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        results.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"results": results, "peak_rss_mb": peak}


if __name__ == "__main__":
    mode, arg = sys.argv[1], sys.argv[2]
    print(json.dumps(setup(arg) if mode == "setup" else commands(arg)))
