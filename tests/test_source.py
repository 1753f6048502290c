"""Source hygiene: every name a module imports is used or re-exported, and
every name the benchmark's tracer wraps exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "staircase").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Imported names that the module neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_finds_leftovers():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .diagram import Diagram, exponents_upto as upto\n"
              "from .core import Order\n"
              "__all__ = ['Order']\n"
              "def f(d: Diagram):\n"
              "    return os.path.join\n")
    assert unused_imports(source) == ["upto"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


def test_every_name_the_tracer_wraps_resolves():
    # perfbench/spans.py wraps library names by string, so a rename or a
    # deletion in src/staircase must fail here, not only in a traced run.
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, (functions, classes) in spans.LAYERS.items():
        module = importlib.import_module(f"staircase.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
        for clsname, methods in classes.items():
            cls = getattr(module, clsname)
            for name in methods:
                assert name in cls.__dict__, f"{layer}.{clsname}.{name}"
