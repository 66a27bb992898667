"""Every name a ``repro`` package exports has a caller outside ``tests/``.

An exported name that only tests call is code the system does not need, and
its tests keep it alive.  For ``repro`` and each subpackage, every
``__all__`` entry must appear as a loaded name (``ast.Name``) or as the
attribute of an attribute access (``ast.Attribute``) in some ``.py`` file
under ``src/repro``, ``benchmarks/``, ``perfbench/`` or ``examples/``.
Imports, ``__all__`` strings, assignment targets and the ``def`` or
``class`` statement itself are not uses.

The check goes by name, not by binding: a same-named attribute anywhere
counts as a use (``np.__version__`` covers ``repro.__version__``).  So it can
miss a dead name, but it cannot flag a live one.  ``EXEMPT`` lists the names
kept without such a caller, each with its reason.
"""

import ast
import importlib
from pathlib import Path

import repro

from test_docs import PACKAGES

REPO = Path(repro.__file__).resolve().parents[2]
ROOTS = (REPO / "src" / "repro", REPO / "benchmarks", REPO / "perfbench", REPO / "examples")

#: Exported names kept without a caller outside ``tests/``, with the reason.
EXEMPT = {
    "hamming_similarity": "the packed engine's oracle: tests/test_quant_engine.py "
    "compares packed scores against it bitwise",
}


def _loaded_names(tree) -> set[str]:
    """Names a module reads: loaded ``ast.Name`` ids and ``ast.Attribute`` attrs."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def uncalled_exports(packages, roots, exempt=()) -> list[str]:
    """``package.name`` of every non-exempt ``__all__`` entry no file under
    ``roots`` reads."""
    used = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            used |= _loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    return [
        f"{package}.{name}"
        for package in packages
        for name in importlib.import_module(package).__all__
        if name not in used and name not in exempt
    ]


def test_every_exported_name_has_a_caller_outside_tests():
    assert uncalled_exports(PACKAGES, ROOTS, EXEMPT) == []


def test_the_guard_flags_a_name_only_tests_call(tmp_path, monkeypatch):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .mod import used, tested, oracle\n"
        "__all__ = ['used', 'tested', 'oracle']\n"
    )
    (package / "mod.py").write_text(
        "def used():\n    return 1\n"
        "def tested():\n    return used()\n"
        "def oracle():\n    return 2\n"
    )
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text(
        "from pkg import tested\n"
        "import pkg\n"
        "pkg.tested = None\n"
        "oracle = 'tested'\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from pkg import oracle, tested\n"
        "def test_it():\n    assert tested() == oracle() - 1\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    roots = (package, examples)
    assert uncalled_exports(["pkg"], roots, {"oracle": "a test oracle"}) == ["pkg.tested"]
    assert uncalled_exports(["pkg"], roots) == ["pkg.tested", "pkg.oracle"]
