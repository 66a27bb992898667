"""``docs/api.md`` names every exported name, and its index nothing else;
``docs/gateway.md`` names every route the gateway answers, and nothing else.

A shorter API reference must not silently drop a public name: for ``repro``
and each of its subpackages, every entry of ``__all__`` has to appear in
``docs/api.md`` as a whole word.  The other way round, a deleted name must
not linger: the closing *Index* section lists each package's ``__all__``
exactly.  And a signature must not drift from the code: every
``param=default`` that a heading `` `Name(...)` ``, or a backticked
`` `name(...)` `` on a bullet, shows for an exported callable is a parameter
of that callable, with that default.  And the gateway's Endpoints table has
one row per (method, path) of its route table.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.gateway.app import _ROUTES

API_DOC = Path(__file__).resolve().parents[1] / "docs" / "api.md"
GATEWAY_DOC = API_DOC.with_name("gateway.md")

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


#: A heading naming `` `Name` ``, with `` `(params)` `` when it is a signature.
HEADING = re.compile(r"#+ `([A-Za-z_][\w.]*)(?:\((.*)\))?`")
#: A backticked signature: `` `name(params)` `` or `` `Class.method(params)` ``,
#: perhaps with `` -> return``; a default may hold one level of parentheses.
SIGNATURE = re.compile(r"`([A-Za-z_][\w.]*)\(((?:[^`()]|\([^`()]*\))*)\)(?: ->[^`]*)?`")


def _exported(dotted: str):
    """The object an exported name (or an attribute of one) names, else None."""
    head, *attributes = dotted.split(".")
    for package in PACKAGES:
        module = importlib.import_module(package)
        if head in module.__all__:
            found = getattr(module, head)
            for attribute in attributes:
                found = getattr(found, attribute, None)
            return found
    return None


def _documented_signatures(text: str):
    """``(callable, name, params)`` of every signature heading and every
    backticked signature that starts on a bullet's first line (a signature
    may wrap onto the next; prose below it is not read).  A bare name on a
    bullet is a method of the class the nearest heading or bullet above
    names, if that class has it, else an exported name."""
    owner, bullet, first = None, None, 0
    for line in text.splitlines() + [""]:
        if bullet is not None and line.startswith(" "):
            bullet += " " + line.strip()
            continue
        if bullet is not None:
            for match in SIGNATURE.finditer(bullet):
                if match.start() < first:
                    name, params = match.groups()
                    method = "." not in name and getattr(owner, name, None)
                    target = method or _exported(name)
                    owner = target if inspect.isclass(target) else owner
                    yield target, name, params
            bullet = None
        heading = HEADING.match(line)
        if heading:
            name, params = heading.groups()
            named = _exported(name.rpartition(".")[2])
            owner = named if inspect.isclass(named) else None
            if params is not None:
                yield _exported(name), name, params
        elif line.startswith("* "):
            bullet, first = line, len(line)


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


def _default(target, param: str):
    """A parameter's default; a dataclass field's ``default_factory``
    stands for its product."""
    if dataclasses.is_dataclass(target):
        field = {field.name: field for field in dataclasses.fields(target)}.get(param)
        if field is not None and field.default_factory is not dataclasses.MISSING:
            return field.default_factory()
    return inspect.signature(target).parameters[param].default


def test_signature_headings_match_the_code():
    text = API_DOC.read_text(encoding="utf-8")
    checked, drift = 0, []
    for target, name, params in _documented_signatures(text):
        if not callable(target):
            if _shown_defaults(params):
                drift.append(f"{name}: shows defaults but names nothing exported")
            continue
        parameters = inspect.signature(target).parameters
        for param, shown in _shown_defaults(params).items():
            checked += 1
            if param not in parameters:
                drift.append(f"{name}: no parameter {param!r}")
                continue
            expected = eval(shown, {"np": np, "time": time})
            actual = _default(target, param)
            if actual is inspect.Parameter.empty or not actual == expected:
                drift.append(f"{name}: {param}={shown}, the code has {actual!r}")
    assert checked, "no signature with a default was found"
    assert not drift, "docs/api.md signatures drifted: " + "; ".join(drift)


def test_the_gateway_endpoints_table_is_the_route_table():
    text = GATEWAY_DOC.read_text(encoding="utf-8")
    endpoints = text[text.index("\n## Endpoints\n") :].split("\n## ", 2)[1]
    documented = re.findall(r"^\| `([A-Z]+) (/\S*)` \|", endpoints, re.MULTILINE)
    routes = [(method, path) for path, methods in _ROUTES.items() for method in methods]
    assert sorted(documented) == sorted(routes)
