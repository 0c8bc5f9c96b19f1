"""The package's public surface: the modules' ``__all__`` lists, re-exported."""

from __future__ import annotations

from collections import Counter
from types import ModuleType

import netrls as nr
from netrls import bounds, consensus, model_gen, planner, simnet

MODULES = (bounds, consensus, model_gen, planner, simnet)


def test_each_public_name_is_declared_once_and_re_exported_as_is():
    # a star import would let a later module shadow an earlier one's name
    # without any error
    declared = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, count in declared.items() if count > 1] == []
    assert sorted(nr.__all__) == sorted(set(nr.__all__)) == sorted(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nr, name) is getattr(module, name), name
    # submodules are package attributes too, once anything imports them
    public = {name for name in dir(nr)
              if not name.startswith("_") and not isinstance(getattr(nr, name), ModuleType)}
    assert public == set(nr.__all__)
