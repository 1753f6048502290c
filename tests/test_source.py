"""Source hygiene: every name a module imports is used or re-exported, every
name the benchmark's tracer wraps exists, and the command line loads only
the modules its command runs."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
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


def identifiers(path: Path) -> set[str]:
    """Every name a module binds, reads or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


# Mora's packed form: the merge kernel, the key packing and Poly's fields.
PACKED_FORM = {"_merge", "pack", "unpack", "unpack_all", "keys", "ints",
               "scale"}


def test_the_oracle_shares_no_code_with_the_engine_it_checks():
    # The oracle reads polynomials through `terms` and runs its own
    # elimination; of the engine's private names it uses only the record
    # base, the base's `_set` and the `_fields` its subclasses declare.
    src = ROOT / "src" / "staircase"
    engine = identifiers(src / "core.py") | identifiers(src / "standard_basis.py")
    private = {n for n in engine
               if n.startswith("_") and not n.startswith("__") and n != "_"}
    oracle = identifiers(src / "jet_oracle.py")
    assert oracle & PACKED_FORM == set()
    assert oracle & private == {"_Record", "_fields", "_set"}


def test_the_packed_key_layout_lives_in_core():
    # Order computes the length shift and the guard mask once; the divider
    # reads them and imports the cut, so no other module re-derives them.
    src = ROOT / "src" / "staircase"
    tree = ast.parse((src / "standard_basis.py").read_text())
    assert identifiers(src / "standard_basis.py") & {
        "FIELD_BITS", "FIELD_LIMIT", "_reach"} == set()
    defined = {f.name for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef)}
    assert defined & {"_guards", "_cut"} == set()
    multiplying = {path.name for path in src.glob("*.py")
                   for n in ast.walk(ast.parse(path.read_text()))
                   if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                   and "FIELD_BITS" in {getattr(n.left, "id", None),
                                        getattr(n.right, "id", None)}}
    assert multiplying == {"core.py"}


VALUE_METHODS = {"__eq__", "__hash__", "__setattr__", "__repr__"}


def test_value_semantics_are_written_once():
    # The record classes inherit theirs from core._Record; only Poly, which
    # equals scalars and leaves its cached `_terms` out, defines its own.
    owners = set()
    for path in (ROOT / "src" / "staircase").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(f, ast.FunctionDef) and f.name in VALUE_METHODS
                    for f in node.body):
                owners.add(f"{path.stem}.{node.name}")
    assert owners == {"core._Record", "core.Poly"}


# `from staircase import *` binds these names, the submodules among them.
PUBLIC_NAMES = sorted("""
    CoordChange CrossCheckReport DEFAULT_POOL_CEILING DEFAULT_WORK_BUDGET
    Diagram DimProbeReport DimProbeRow Exponent FlatnessReport FlatnessRow
    MapSpec MoraStep MoraTrace NoCertifiedBound Order PerturbationReport
    PerturbationSample Poly PoolLimitExceeded ProblemError ProblemFile Ring
    SBasis SPairRecord SourceNotCompleteIntersection SweepReport SweepRow
    TruncationBasis Verdict VerdictKind WorkBudgetExceeded core demo
    demo_ring determinacy determinacy_bound determinant diagram
    diagram_determinacy_check diagram_of_ideal dimension_semicontinuity_probe
    exp_add exp_divides exp_lcm exp_sub exponents_below exponents_upto
    fibre_ideal flat_ci jet_flatness_equivalence jet_ideal jet_oracle
    jet_sweep milnor_mu0 mora_normal_form oracle_cross_check parse_poly
    parse_problem perturbation_test presentation_rows problemfile
    random_coord_change regseq_axis_certificate regular_sequence
    standard_basis total_degree truncated_diagram truncated_quotient_dim
    truncated_series_generators unit_cleared_generators""".split())

IMPORT_PROBE = """
import contextlib, io, json, sys
LAZY = ("staircase.determinacy", "staircase.jet_oracle", "staircase.demo",
        "dataclasses", "hashlib")
from staircase import cli
report = {"after_import": [m for m in LAZY if m in sys.modules]}
with contextlib.redirect_stdout(io.StringIO()):
    report["diagram_exit"] = cli.main(["diagram", sys.argv[1]])
report["after_diagram"] = [m for m in LAZY if m in sys.modules]
import staircase
report["standard_basis"] = type(staircase.standard_basis).__name__
report["demo"] = staircase.demo.__name__  # imported on first access
names = {}
exec("from staircase import *", names)
report["star"] = sorted(n for n in names if n != "__builtins__")
print(json.dumps(report))
"""


def test_the_command_line_loads_only_what_its_command_runs(tmp_path):
    # In a fresh interpreter, since this session has loaded every module.
    problem = tmp_path / "two.txt"
    problem.write_text("ring x y\nideal I\n  x^2 + y^3\n  x*y\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(problem)],
                         env=env, capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    # hashlib (mostly OpenSSL) loads only when a file's digest is taken.
    assert report["after_import"] == []
    assert "hashlib" in report["after_diagram"]
    assert report["diagram_exit"] == 0
    assert "staircase.determinacy" not in report["after_diagram"]
    # The package's standard_basis is the function, not its submodule.
    assert report["standard_basis"] == "function"
    assert report["demo"] == "staircase.demo"
    assert report["star"] == PUBLIC_NAMES


def test_the_completion_has_no_off_switch():
    # The pair criteria run on every completion: standard_basis.py reads no
    # environment variable but its two resource limits, and neither the
    # completion nor its entry point takes a keyword to turn them off.
    module = importlib.import_module("staircase.standard_basis")
    tree = ast.parse((ROOT / "src" / "staircase" / "standard_basis.py")
                     .read_text())
    environment = {"environ", "environb", "getenv", "getenvb"}
    readers = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               for n in ast.walk(f)
               if getattr(n, "attr", getattr(n, "id", None)) in environment}
    assert readers == {"_resolve_limit"}
    limits = {module.POOL_CEILING_ENV, module.WORK_BUDGET_ENV}
    assert limits == {"STAIRCASE_POOL_CEILING", "STAIRCASE_WORK_BUDGET"}
    read = {n.args[0].id for n in ast.walk(tree) if isinstance(n, ast.Call)
            and getattr(n.func, "id", None) == "_resolve_limit"}
    assert read == {"POOL_CEILING_ENV", "WORK_BUDGET_ENV"}
    named = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
             and isinstance(n.value, str) and n.value.startswith("STAIRCASE_")}
    assert named == limits
    assert list(inspect.signature(module._complete).parameters) == [
        "gens", "ring", "length_cap"]
    assert list(inspect.signature(module.standard_basis).parameters) == [
        "gens", "ring", "length_cap"]


def test_the_hot_paths_build_nothing_their_callers_do_not_read():
    # Mora's loop keeps its scale and its log in integers: the Fractions,
    # MoraSteps and unpacked shifts of the trace are built on first read.
    tree = ast.parse((ROOT / "src" / "staircase" / "standard_basis.py")
                     .read_text())
    mora = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                and f.name == "mora_normal_form")
    loops = [n for n in ast.walk(mora) if isinstance(n, ast.While)]
    assert len(loops) == 1
    used = {getattr(n, "id", getattr(n, "attr", None))
            for n in ast.walk(loops[0])}
    assert used & {"Fraction", "MoraStep", "unpack", "unpack_all"} == set()
    # The key's weighted length bounds its exponent entries, so neither the
    # s-polynomials unpack their shifts nor does a Poly store a bound.
    spoly = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 and f.name == "_spoly")
    used = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(spoly)}
    assert used & {"unpack", "unpack_all"} == set()
    core = importlib.import_module("staircase.core")
    assert core.Poly.__slots__ == ("ring", "keys", "ints", "scale", "_terms")
    # The diagram queries walk the complement instead of scanning a box.
    diagram = ast.parse((ROOT / "src" / "staircase" / "diagram.py")
                        .read_text())
    imported = {a.name for n in ast.walk(diagram)
                if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    assert "product" not in imported


def test_the_window_cap_rescans_nothing():
    # The completion keeps its complement as elements enter: the cap it
    # reads after each one neither looks for axis powers nor walks the
    # complement of every initial exponent again.
    tree = ast.parse((ROOT / "src" / "staircase" / "standard_basis.py")
                     .read_text())
    complete = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                    and f.name == "_complete")
    window_cap = next(f for f in ast.walk(complete)
                      if isinstance(f, ast.FunctionDef)
                      and f.name == "window_cap")
    called = {getattr(n.func, "id", getattr(n.func, "attr", None))
              for n in ast.walk(window_cap) if isinstance(n, ast.Call)}
    assert called & {"covering_length", "axis_powers", "_complement"} == set()
