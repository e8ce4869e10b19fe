"""Every exported or re-exported name resolves to something."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
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
    # Each name in the package's lazy table is the object its module defines,
    # and is listed by dir().
    table = framewatt._NAMES
    assert table
    assert [n for n, m in table.items() if getattr(framewatt, n)
            is not getattr(importlib.import_module(f"framewatt.{m}"), n)] == []
    assert [n for n in table if n not in dir(framewatt)] == []


def _fresh(statement: str) -> list[str]:
    """The framewatt modules loaded after ``statement`` in a new interpreter."""
    script = (f"import sys; {statement}; "
              "print(*sorted(m for m in sys.modules if m.startswith('framewatt')))")
    env = {**os.environ, "PYTHONPATH": str(Path(framewatt.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def test_importing_the_core_module_loads_no_other_module():
    assert _fresh("import framewatt.core") == ["framewatt", "framewatt.core"]


def test_a_submodule_resolves_as_a_package_attribute():
    loaded = _fresh("import framewatt; framewatt.timeline.build_timeline")
    assert "framewatt.timeline" in loaded
    with pytest.raises(AttributeError, match="no attribute 'nowhere'"):
        framewatt.nowhere
