"""Outside-in tracer for netrls: spans recorded without changing its source.

Each target function is replaced, while the tracer is installed, by a wrapper
at every place a caller looks it up: the defining module, every module that
did ``from ... import`` it (found by identity), or the owning class for a
method. Each binding gets its own wrapper tagged with the module that holds
it, so a span records which module made the call. A target that no longer
exists is listed in :attr:`Tracer.absent` and skipped; one that is never
called simply has no spans.

Spans stay in memory as ``(id, parent_id, name, caller, start, end, info)``
tuples; ``parent_id`` is -1 for a span with no traced caller.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "netrls"


@dataclass(frozen=True)
class Target:
    """A function to trace: ``qualname`` is ``func`` or ``Class.method``.

    ``info(args, kwargs, result)`` may extract a small record of the call;
    if the call's signature no longer fits, the info is ``None``.
    """

    name: str
    module: str
    qualname: str
    info: Callable | None = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        self.absent = []
        for target in self.targets:
            owner, fn = _resolve(target)
            if fn is None:
                self.absent.append(target.name)
            elif owner is not None:
                self._patch(owner, target.qualname.rsplit(".", 1)[1], target,
                            target.module.rsplit(".", 1)[-1])
            else:
                for modname, module in list(sys.modules.items()):
                    if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, attr, target, modname.rsplit(".", 1)[-1])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, target: Target, caller: str) -> None:
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, target, caller))

    def _wrap(self, fn, target: Target, caller: str):
        spans, stack, ids = self.spans, self._stack, self._ids
        name, info = target.name, target.info
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = None
            if info is not None:
                try:
                    extra = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    extra = None
            spans.append((sid, parent, name, caller, start, end, extra))
            return result

        return wrapper


def _resolve(target: Target):
    """Return ``(owning class or None, function)``; the function is ``None``
    when the target does not exist."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None, None
    *owners, attr = target.qualname.split(".")
    owner = module
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if owners:
        fn = vars(owner).get(attr) if isinstance(owner, type) else None
        return (owner, fn) if callable(fn) else (None, None)
    fn = getattr(module, attr, None)
    return None, (fn if callable(fn) else None)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[5] - s[4]
    return own


def write_spans(spans: list[tuple], path) -> None:
    """Write spans as CSV with times in nanoseconds from the first start."""
    origin = min((s[4] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,name,caller,start_ns,end_ns\n")
        for sid, parent, name, caller, start, end, _ in sorted(spans):
            fh.write(f"{sid},{parent},{name},{caller},"
                     f"{round((start - origin) * 1e9)},{round((end - origin) * 1e9)}\n")
