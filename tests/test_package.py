"""The package's public surface: the modules' ``__all__`` lists, re-exported, and no
module importing another's private names."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
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


def test_no_module_imports_another_modules_private_name():
    # a private name is its module's own business; a module that needs one
    # of another's asks for a public name or an attribute of a public object
    crossings = []
    for path in sorted(Path(nr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "netrls"):
                crossings += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert crossings == []
