"""Package hygiene checked with the standard library alone: the public
names resolve, no module imports a name it never uses, and numpy is the
only third-party package the library needs."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src").rglob("*.py"))
SOURCES = LIBRARY + sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("module", ["setpose", "setpose.nn_core"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, nor listed in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_scan_finds_a_planted_import():
    assert unused_imports("import json\nfrom os import path, sep\nprint(sep)\n") == [
        "json (line 1)", "path (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_library_imports_only_numpy_outside_the_standard_library():
    top_level = set()
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                top_level.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                top_level.add(node.module.split(".")[0])
    assert top_level - set(sys.stdlib_module_names) == {"numpy"}


def test_importing_every_module_loads_no_scipy():
    modules = sorted(".".join(p.relative_to(ROOT / "src").with_suffix("").parts)
                     .removesuffix(".__init__") for p in LIBRARY)
    code = ("import importlib, sys\n"
            f"for m in {modules!r}: importlib.import_module(m)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
