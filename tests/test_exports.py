"""Every exported or re-exported name resolves to something."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import framewatt

MODULES = sorted(m.name for m in pkgutil.iter_modules(framewatt.__path__)
                 if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_resolves(name):
    module = importlib.import_module(f"framewatt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(framewatt.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    names += sorted(framewatt._CALIBRATE_NAMES)
    assert names
    assert [n for n in names if not hasattr(framewatt, n)] == []
