"""Every name a module of the package imports is used in that module, every
private module-level name is referenced somewhere in the package, and no
module compares anything with a scheme name: only `stepper._SCHEMES`
decides what a scheme does.

The checks read the source with `ast` only. A name counts as used where it
appears as a name anywhere in the module, `if TYPE_CHECKING:` blocks
included, inside a string annotation, or, for the package's `__init__`, in
`__all__`. A private name counts as referenced where any module mentions it,
as a name, an attribute or an import, outside the definition that binds it.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from attrep.stepper import SCHEMES

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


def _private_definitions(tree):
    """(name, node) for each module-level function, class and assignment
    whose name is private (one leading underscore, not a dunder)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _mentions(node) -> Counter:
    """How often each name appears under node: as a name, an attribute or an import."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def unreferenced_privates(sources: dict) -> list:
    """'module: name' for each private module-level name that no module
    mentions outside the definition that binds it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_mentions(tree) for tree in trees.values()), Counter())
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if everywhere[name] <= _mentions(node)[name]
    ]


def test_every_private_name_is_referenced():
    # a private helper, table or constant that nothing reads is dead code
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_private_checker_sees_each_kind_of_reference():
    sources = {
        "a.py": """
_TABLE = {}
_DEAD = 1
def _helper():
    return _helper()
class _Used:
    pass
def public():
    return _TABLE, _Used
""",
        "b.py": """
from .a import _imported
import a
a._attribute
""",
        "c.py": """
def _imported():
    pass
_attribute = 2
""",
    }
    assert unreferenced_privates(sources) == ["a.py: _DEAD", "a.py: _helper"]


def name_comparisons(source: str, names) -> list:
    """'line: name', in line order, for each string constant among names
    inside an operand of a comparison (==, !=, in, is, ...)."""
    found = [
        (node.lineno, sub.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for sub in ast.walk(operand)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value in names
    ]
    return [f"{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scheme_name_is_compared(path):
    # a scheme's bound and update are its entry of stepper._SCHEMES
    assert name_comparisons(path.read_text(), SCHEMES) == []


def test_comparison_checker_sees_each_form():
    source = """
if cfg.scheme == "imex-diffusion":
    x = "explicit-upwind" != y
z = s in ("explicit-upwind", "other")
scheme: str = "explicit-upwind"
table = {"imex-diffusion": 1}
w = cfg.scheme == "other"
"""
    assert name_comparisons(source, SCHEMES) == ["2: imex-diffusion", "3: explicit-upwind", "4: explicit-upwind"]
