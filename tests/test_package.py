"""Package hygiene checked with the standard library alone: the public
names resolve, no module imports a name it never uses, every function and
class the library defines has a reader, every console script pyproject.toml
declares resolves, numpy is the only third-party package the library
needs, one function parses .npy bytes, one writes them and one commits a
store, and every name the benchmark's tracer patches exists."""

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
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


@pytest.mark.parametrize("module", ["setpose.nn_core"])
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


def unreferenced_definitions(library: list[str], readers: list[str]) -> list[str]:
    """Functions and classes defined in `library` (at any depth; dunders,
    which Python calls itself, excepted) whose name no source in `readers`
    reads as a variable or an attribute. A definition, an import and the
    strings of __all__ are not reads."""
    defined = {node.name for source in library for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return sorted(defined - read)


def test_reference_scan_finds_a_planted_definition():
    library = ("__all__ = ['dead', 'Idle']\n"
               "def dead(): pass\n"
               "def live(): pass\n"
               "class Idle:\n"
               "    def __init__(self): pass\n"
               "    def used(self): pass\n"
               "    def unused(self): pass\n")
    caller = "from lib import dead, live\nlive()\nobj.used()\n"
    assert unreferenced_definitions([library], [library, caller]) == [
        "Idle", "dead", "unused"]


def test_every_library_definition_has_a_reader():
    texts = [path.read_text() for path in SOURCES + BENCH]
    assert unreferenced_definitions([path.read_text() for path in LIBRARY], texts) == []


def library_calls(*attrs: str) -> list[str]:
    """"path:line" of every call in src/ of an attribute named one of attrs
    (np.lib.format.read_array, f.tofile, ...)."""
    return [f"{path.relative_to(ROOT)}:{node.lineno}" for path in LIBRARY
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in attrs]


def test_the_library_parses_npy_bytes_in_errors_read_npy_alone():
    """Datasets and checkpoints share one .npy parse, so its checks (no
    pickle, a header that parses and describes every byte) cannot drift
    apart between the two readers."""
    calls = library_calls("read_array")
    assert len(calls) == 1 and calls[0].startswith(os.path.join("src", "setpose",
                                                                 "errors.py:")), calls


def test_the_library_writes_npy_files_in_errors_write_npy_alone():
    """Datasets and checkpoints share one writer, which hashes what it
    writes, and neither is a zip: numpy's .npy header writer is called at
    one place in src/, in errors.py, no other numpy writer is called, and
    zipfile and io are imported nowhere."""
    calls = library_calls("save", "savez", "savez_compressed", "write_array",
                          "write_array_header_1_0", "write_array_header_2_0", "tofile")
    assert len(calls) == 1 and calls[0].startswith(os.path.join("src", "setpose",
                                                                 "errors.py:")), calls
    imported = [f"{path.relative_to(ROOT)}:{node.lineno}" for path in LIBRARY
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] in ("zipfile", "io") for alias in node.names)
                or isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] in ("zipfile", "io")]
    assert imported == []


def test_the_library_commits_stores_in_errors_write_store_alone():
    """Datasets and checkpoints share one commit: tempfile is imported and
    a path renamed only in errors.py, where write_store renames a new
    directory onto the store's path."""
    errors_py = os.path.join("src", "setpose", "errors.py:")
    calls = library_calls("rename")
    assert calls and all(call.startswith(errors_py) for call in calls), calls
    imported = [f"{path.relative_to(ROOT)}:{node.lineno}" for path in LIBRARY
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Import)
                and any(alias.name == "tempfile" for alias in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "tempfile"]
    assert len(imported) == 1 and imported[0].startswith(errors_py), imported


def tracer_literals() -> dict:
    """The module-level literals of perfbench/tracing.py, read without
    importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    return {target.id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name)
            and target.id in ("LAYER_FUNCTIONS", "BLOCK_LAYERS", "OP_METHODS")}


def test_every_name_the_benchmark_tracer_patches_exists():
    """The tracer wraps each of these by name, reading an owner's own
    __dict__ where it patches one owner; a missing name would otherwise
    show only in a traced benchmark run."""
    literals = tracer_literals()
    tensor = importlib.import_module("setpose.nn_core.tensor")
    model = importlib.import_module("setpose.model")
    rng = importlib.import_module("setpose.rng")
    missing = [f"{module}.{attr}" for module, attr, _ in literals["LAYER_FUNCTIONS"]
               if not callable(getattr(importlib.import_module(module), attr, None))]
    missing += [f"setpose.model.{name}" for name in literals["BLOCK_LAYERS"]
                if name not in vars(model)]
    missing += [f"Tensor.{name}" for name in [*literals["OP_METHODS"], "backward"]
                if name not in vars(tensor.Tensor)]
    missing += [name for owner, name in ((tensor, "concatenate"),
                                         (rng.PortableRng, "next_u64"))
                if name not in vars(owner)]
    assert missing == []


def test_every_declared_script_target_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for script, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), script


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
