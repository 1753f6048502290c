"""Exact staircases of local polynomial ideals.

Diagrams of initial exponents, Mora standard bases, an independent linear
algebra oracle on jet windows, and certified verdicts for regular sequences,
flatness of map germs, and jet determinacy. All arithmetic is exact over the
rationals.
"""

from importlib import import_module

from .core import (
    CoordChange, Exponent, Order, Poly, Ring, determinant, exp_add,
    exp_divides, exp_lcm, exp_sub, total_degree,
)
from .diagram import Diagram, exponents_below, exponents_upto
from .problemfile import ProblemError, ProblemFile, parse_poly, parse_problem
from .standard_basis import (
    DEFAULT_POOL_CEILING, DEFAULT_WORK_BUDGET, MoraStep, MoraTrace,
    PoolLimitExceeded, SBasis, SPairRecord, WorkBudgetExceeded,
    diagram_of_ideal, mora_normal_form, standard_basis,
)

# Every file command needs the modules above. Only some commands run these,
# so each loads on the first read of it or of one of its names (PEP 562).
_LAZY = {
    "demo": ("demo_ring", "presentation_rows", "truncated_series_generators",
             "unit_cleared_generators"),
    "determinacy": (
        "DimProbeReport", "DimProbeRow", "FlatnessReport", "FlatnessRow",
        "MapSpec", "NoCertifiedBound", "PerturbationReport",
        "PerturbationSample", "SourceNotCompleteIntersection", "SweepReport",
        "SweepRow", "Verdict", "VerdictKind", "determinacy_bound",
        "diagram_determinacy_check", "dimension_semicontinuity_probe",
        "fibre_ideal", "flat_ci", "jet_flatness_equivalence", "jet_ideal",
        "jet_sweep", "milnor_mu0", "perturbation_test", "random_coord_change",
        "regseq_axis_certificate", "regular_sequence"),
    "jet_oracle": ("CrossCheckReport", "TruncationBasis", "oracle_cross_check",
                   "truncated_diagram", "truncated_quotient_dim"),
}

__all__ = [
    "core", "diagram", "problemfile", *_LAZY,
    "CoordChange", "Exponent", "Order", "Poly", "Ring", "determinant",
    "exp_add", "exp_divides", "exp_lcm", "exp_sub", "total_degree",
    "Diagram", "exponents_below", "exponents_upto",
    "ProblemError", "ProblemFile", "parse_poly", "parse_problem",
    "DEFAULT_POOL_CEILING", "DEFAULT_WORK_BUDGET", "MoraStep", "MoraTrace",
    "PoolLimitExceeded", "SBasis", "SPairRecord", "WorkBudgetExceeded",
    "diagram_of_ideal", "mora_normal_form", "standard_basis",
    *(name for names in _LAZY.values() for name in names),
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    # Not cached, so a name rebound in its module shows through here too.
    for module, names in _LAZY.items():
        if name in names:
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
