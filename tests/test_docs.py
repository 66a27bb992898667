"""``docs/api.md`` names every exported name, and its index nothing else.

A shorter API reference must not silently drop a public name: for ``repro``
and each of its subpackages, every entry of ``__all__`` has to appear in
``docs/api.md`` as a whole word.  The other way round, a deleted name must
not linger: the closing *Index* section lists each package's ``__all__``
exactly.  And a signature heading must not drift from the code: every
``param=default`` a heading `` `Name(...)` `` shows for an exported callable
is a parameter of that callable, with that default.
"""

import importlib
import inspect
import pkgutil
import re
import time
from pathlib import Path

import numpy as np
import pytest

import repro

API_DOC = Path(__file__).resolve().parents[1] / "docs" / "api.md"

PACKAGES = ("repro",) + tuple(
    f"repro.{module.name}"
    for module in pkgutil.iter_modules(repro.__path__)
    if module.ispkg
)


def _index_line(text: str, package: str) -> set[str] | None:
    """The names the closing ``## Index`` lists for ``package``."""
    index = text[text.index("\n## Index\n") :]
    match = re.search(rf"^\* `{re.escape(package)}` — (.*)$", index, re.MULTILINE)
    return None if match is None else set(re.findall(r"`([^`]+)`", match.group(1)))


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_in_the_api_doc(package):
    text = API_DOC.read_text(encoding="utf-8")
    exported = importlib.import_module(package).__all__
    missing = [
        name
        for name in exported
        if not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", text)
    ]
    assert not missing, f"{package} exports names docs/api.md does not name: {missing}"
    listed = _index_line(text, package)
    assert listed == set(exported), (
        f"docs/api.md's index line for {package} differs from its __all__: "
        f"lists {sorted((listed or set()) - set(exported))} it does not export, "
        f"omits {sorted(set(exported) - (listed or set()))}"
    )


#: A signature heading: `` `Name(params)` `` or `` `Class.method(params)` ``.
SIGNATURE_HEADING = re.compile(r"^#+ `([A-Za-z_][\w.]*)\((.*)\)`", re.MULTILINE)


def _exported(dotted: str):
    """The object an exported name (or an attribute of one) names, else None."""
    head, *attributes = dotted.split(".")
    for package in PACKAGES:
        module = importlib.import_module(package)
        if head in module.__all__:
            found = getattr(module, head)
            for attribute in attributes:
                found = getattr(found, attribute)
            return found
    return None


def _shown_defaults(params: str) -> dict[str, str]:
    """The ``param=default`` pairs of a heading, split on top-level commas."""
    pieces, depth, current = [], 0, []
    for char in params:
        depth += (char in "([{") - (char in ")]}")
        if char == "," and depth == 0:
            pieces.append("".join(current))
            current = []
        else:
            current.append(char)
    pieces.append("".join(current))
    shown = {}
    for piece in pieces:
        name, equals, default = piece.partition("=")
        if equals:
            shown[name.strip()] = default.strip()
    return shown


def test_signature_headings_match_the_code():
    text = API_DOC.read_text(encoding="utf-8")
    checked, drift = 0, []
    for name, params in SIGNATURE_HEADING.findall(text):
        target = _exported(name)
        if not callable(target):
            continue
        parameters = inspect.signature(target).parameters
        for param, shown in _shown_defaults(params).items():
            checked += 1
            if param not in parameters:
                drift.append(f"{name}: no parameter {param!r}")
                continue
            expected = eval(shown, {"np": np, "time": time})
            actual = parameters[param].default
            if actual is inspect.Parameter.empty or not actual == expected:
                drift.append(f"{name}: {param}={shown}, the code has {actual!r}")
    assert checked, "no signature heading with a default was found"
    assert not drift, "docs/api.md signature headings drifted: " + "; ".join(drift)
