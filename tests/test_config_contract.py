"""The config contract as a property: any edit of a committed config runs,
exits 2 naming a field of the edited file (or the file), or exits 3 because
the plan's target is out of reach; nothing else reaches stderr."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path
from typing import get_args

from hypothesis import given, settings
from hypothesis import strategies as st

from netrls.cli import main
from netrls.model_gen import MeanSchedule

ROOT = Path(__file__).parent.parent
# the committed configs, not the plan results that echo them
CONFIGS = sorted(path for path in [*ROOT.glob("configs/*.json"), *ROOT.glob("tests/data/*.json")]
                 if not path.name.endswith("_result.json"))
# no case draws more agents, steps or runs than this, so none allocates much
CAP = 64
KINDS = [schedule.kind for schedule in get_args(MeanSchedule)]
# wrong types, extreme numbers and nested arrays, and a few plain values
# (copied, so that no edit of one case reaches the next)
VALUES = st.sampled_from(["1", True, None, {}, [], {"x": 1.0}, float("nan"), 1e308, -1e308,
                          2**64, -2**64, [[[1.0]]], [1.0, [2.0]], [1.0, 2.0], 0, -1, 0.5, 3,
                          "ring", *KINDS]).map(copy.deepcopy)


def _paths(value, path=()):
    """Every path into the JSON value ``value``, its own ``()`` first."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(draw, doc: dict) -> None:
    """One edit of ``doc``: delete a key, add one, swap the mean schedule's
    kind (for another, or for one of ``VALUES``), or put one of ``VALUES``
    in place of any value."""
    paths = list(_paths(doc))
    op = draw(st.sampled_from(["delete", "add", "kind", "value"]))
    if op == "delete":
        keyed = [path for path in paths if path and isinstance(path[-1], str)]
        if keyed:
            path = draw(st.sampled_from(keyed))
            del _at(doc, path[:-1])[path[-1]]
    elif op == "add":
        parent = draw(st.sampled_from([path for path in paths
                                       if isinstance(_at(doc, path), dict)]))
        names = sorted({p[-1] for p in paths if p and isinstance(p[-1], str)} | {"extra"})
        _at(doc, parent)[draw(st.sampled_from(names))] = draw(VALUES)
    elif op == "kind":
        model = doc.get("model")
        if isinstance(model, dict):
            mean = model.setdefault("mean_schedule", {})
            if isinstance(mean, dict):
                mean["kind"] = draw(st.one_of(st.sampled_from(KINDS), VALUES))
    elif len(paths) > 1:
        path = draw(st.sampled_from(paths[1:]))
        _at(doc, path[:-1])[path[-1]] = draw(VALUES)


def _names_a_field(doc, dotted: str) -> bool:
    """Whether ``dotted`` names a field of ``doc``: one it sets, or one
    left out of a section that it sets."""
    *sections, field = dotted.split(".")
    for key in sections:
        if not isinstance(doc, dict) or key not in doc:
            return False
        doc = doc[key]
    return isinstance(doc, dict)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_edit_of_a_committed_config_runs_or_names_its_fault(data):
    source = data.draw(st.sampled_from(CONFIGS), label="config")
    doc = json.loads(source.read_text(encoding="utf-8"))
    for key in ("horizon", "runs"):
        if key in doc.get("run", {}):
            doc["run"][key] = min(doc["run"][key], CAP)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        _mutate(data.draw, doc)
    command = data.draw(st.sampled_from(["plan", "simulate", "bounds"]), label="command")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        option = ["--at", "1,40,1000"] if command == "bounds" else ["-o", f"{tmp}/out"]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main([command, str(path), *option])

    err = err.getvalue()
    if code == 0:
        assert err == ""
    elif code == 2:
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        where = err[len("config error: "):].split(": ", 1)[0]
        assert where == str(path) or _names_a_field(doc, where), err
    else:
        assert code == 3 and err.startswith("error: error guarantee never drops below "), err
