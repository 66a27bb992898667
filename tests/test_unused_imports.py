"""Every module-level import in the repository's Python trees is used.

Deleting code leaves its imports behind, and an import nothing reads still
costs its load time and misleads a reader about what a module depends on.
The trees are ``src/repro``, ``benchmarks/``, ``examples/``, ``perfbench/``
and ``tests/``.  For each module that is not a package ``__init__`` (those
import to re-export), every name a module-level ``import`` or ``from ...
import`` binds — including those under ``if TYPE_CHECKING:`` — must appear
in the module as a name, inside a string annotation, or in ``__all__``.  A
docstring or any other string does not count; ``from __future__`` imports
are exempt.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parents[1]
TREES = (SRC,) + tuple(
    REPO / name for name in ("benchmarks", "examples", "perfbench", "tests")
)


def _module_imports(body):
    """``(bound name, line)`` of every import in a module body, through
    module-level ``if``/``try`` blocks but not into functions or classes."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                yield from _module_imports(block)
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body)


def _annotations(tree):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used |= {
                    element.value
                    for element in ast.walk(node.value)
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                }
    return used


def unused_imports(root: Path) -> list[str]:
    """``path:line name`` of every unused module-level import under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        for name, line in _module_imports(tree.body):
            if name not in used:
                found.append(f"{path.relative_to(root.parent)}:{line} {name}")
    return found


def test_no_module_imports_an_unused_name():
    assert all(tree.is_dir() for tree in TREES)
    assert [found for tree in TREES for found in unused_imports(tree)] == []


def test_the_guard_sees_what_it_must_and_nothing_else(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("import os\n")
    (package / "mod.py").write_text(
        '"""Docs mention np and json."""\n'
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING, Mapping, Sequence\n"
        "import numpy as np\n"
        "import json\n"
        "import os.path\n"
        "from collections import OrderedDict as OD\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "    from fractions import Fraction\n"
        "__all__ = ['OD']\n"
        "def f(x: 'Decimal', y: Mapping) -> None:\n"
        "    return os.path.join('np', str(x))\n"
    )
    assert unused_imports(package) == [
        "pkg/mod.py:3 Sequence",
        "pkg/mod.py:4 np",
        "pkg/mod.py:5 json",
        "pkg/mod.py:10 Fraction",
    ]
