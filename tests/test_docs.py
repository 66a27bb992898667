"""``docs/api.md`` names every exported name, and its index nothing else.

A shorter API reference must not silently drop a public name: for ``repro``
and each of its subpackages, every entry of ``__all__`` has to appear in
``docs/api.md`` as a whole word.  The other way round, a deleted name must
not linger: the closing *Index* section lists each package's ``__all__``
exactly.
"""

import importlib
import pkgutil
import re
from pathlib import Path

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
