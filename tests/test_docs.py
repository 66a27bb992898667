"""Every name a package exports is named in ``docs/api.md``.

A shorter API reference must not silently drop a public name: for ``repro``
and each of its subpackages, every entry of ``__all__`` has to appear in
``docs/api.md`` as a whole word (the closing *Index* section lists them all).
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


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_in_the_api_doc(package):
    text = API_DOC.read_text(encoding="utf-8")
    missing = [
        name
        for name in importlib.import_module(package).__all__
        if not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", text)
    ]
    assert not missing, f"{package} exports names docs/api.md does not name: {missing}"
