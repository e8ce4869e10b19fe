"""Every name imported from a framewatt module resolves, and what importing
a framewatt module loads."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import framewatt

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(framewatt.__path__)
                 if not m.name.startswith("_"))


def _imported(*dirs: str) -> list[tuple[str, str, str]]:
    """(importing file, framewatt module, name) of each ``from`` import of a
    framewatt module's name in the ``.py`` files under ``dirs``, including
    imports made inside functions."""
    found = []
    for d in dirs:
        for path in sorted((REPO / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ImportFrom) or not node.module:
                    continue
                if node.level:
                    module = node.module
                elif node.module.startswith("framewatt."):
                    module = node.module.removeprefix("framewatt.")
                else:
                    continue
                found += [(path.relative_to(REPO).as_posix(), module, alias.name)
                          for alias in node.names]
    return found


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_resolves(name):
    # No module keeps an __all__ list: a module's public surface is what its
    # callers import from it, and every such name must be defined there.
    module = importlib.import_module(f"framewatt.{name}")
    assert not hasattr(module, "__all__")
    used = [(path, n) for path, m, n in _imported("tools", "perfbench", "tests") if m == name]
    assert used
    assert [(path, n) for path, n in used if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    # A function-level import of a missing name fails only when the function
    # runs, so each of the package's own imports is checked here.
    used = _imported("src/framewatt")
    assert used
    assert [(path, m, n) for path, m, n in used
            if not hasattr(importlib.import_module(f"framewatt.{m}"), n)] == []


def _fresh(statement: str, prefix: str = "framewatt", *flags: str) -> list[str]:
    """The ``prefix`` modules loaded after ``statement`` in a new interpreter
    started with ``flags``."""
    script = (f"import sys; {statement}; "
              f"print(*sorted(m for m in sys.modules if m.startswith({prefix!r})))")
    env = {**os.environ, "PYTHONPATH": str(Path(framewatt.__file__).parents[1])}
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def test_importing_the_core_module_loads_no_other_module():
    assert _fresh("import framewatt.core") == ["framewatt", "framewatt.core"]


def test_importing_the_oracle_loads_no_builder_or_pricer_module():
    # The oracle cross-checks the builder and the pricer, so it imports
    # neither; -S keeps site's .pth hooks out of the module set.
    assert _fresh("import framewatt.oracle", "framewatt", "-S") == [
        "framewatt", "framewatt.core", "framewatt.cstates", "framewatt.oracle"]


def test_importing_the_cli_loads_no_package_resource_reader():
    # The built-in calibrations are read as plain files next to the package.
    # -S skips site, whose .pth hooks may import the reader in every process.
    assert "importlib.resources" not in _fresh("import framewatt.cli", "importlib", "-S")


def test_importing_the_cli_loads_no_rational_number_modules():
    # The burst wake-up share is an integer pair, so nothing loads fractions
    # or the decimal and numbers modules that fractions imports.  -S as above.
    assert {"fractions", "decimal", "numbers"}.isdisjoint(_fresh("import framewatt.cli", "", "-S"))


def test_a_submodule_resolves_as_a_package_attribute():
    # perfbench imports its submodules from the package itself; the import
    # system binds each as a package attribute, with no name table.
    loaded = _fresh("from framewatt import cstates, presets, scenarios; "
                    "import framewatt; framewatt.presets.video_config")
    assert {"framewatt.cstates", "framewatt.presets", "framewatt.scenarios"} <= set(loaded)
    with pytest.raises(AttributeError, match="no attribute 'nowhere'"):
        framewatt.nowhere
