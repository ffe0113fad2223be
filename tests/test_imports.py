"""Every name a module of the package imports is used in that module.

The check reads the source with `ast` only. A name counts as used where it
appears as a name anywhere in the module, `if TYPE_CHECKING:` blocks
included, inside a string annotation, or, for the package's `__init__`, in
`__all__`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "attrep"


def _imports(tree):
    """(name, line) for each name an import binds; __future__ binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used(tree) -> set:
    used = _names(tree)
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list:
    """'line: name' for each imported name the source never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{line}: {name}" for name, line in _imports(tree) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_each_kind_of_use():
    source = """
from __future__ import annotations
import os.path
import numpy as np
from typing import TYPE_CHECKING
from .a import Quoted, Typed, Listed, Unused
from .b import Dead as Alias
if TYPE_CHECKING:
    from .c import Hidden
def f(x: "Quoted", y: list["Hidden"]) -> Typed:
    return np.zeros(os.path.sep)
__all__ = ["Listed"]
"""
    assert unused_imports(source) == ["6: Unused", "7: Alias"]
