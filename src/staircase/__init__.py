"""Exact staircases of local polynomial ideals.

Diagrams of initial exponents, Mora standard bases, an independent linear
algebra oracle on jet windows, and certified verdicts for regular sequences,
flatness of map germs, and jet determinacy. All arithmetic is exact over the
rationals.
"""

from .core import (
    CoordChange,
    Exponent,
    Order,
    Poly,
    Ring,
    determinant,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    total_degree,
)
from .demo import (
    demo_ring,
    presentation_rows,
    truncated_series_generators,
    unit_cleared_generators,
)
from .determinacy import (
    DimProbeReport,
    DimProbeRow,
    FlatnessReport,
    FlatnessRow,
    MapSpec,
    NoCertifiedBound,
    PerturbationReport,
    PerturbationSample,
    SourceNotCompleteIntersection,
    SweepReport,
    SweepRow,
    Verdict,
    VerdictKind,
    determinacy_bound,
    diagram_determinacy_check,
    dimension_semicontinuity_probe,
    fibre_ideal,
    flat_ci,
    jet_flatness_equivalence,
    jet_ideal,
    jet_sweep,
    milnor_mu0,
    perturbation_test,
    random_coord_change,
    regseq_axis_certificate,
    regular_sequence,
)
from .diagram import Diagram, exponents_upto
from .jet_oracle import (
    CrossCheckReport,
    TruncationBasis,
    exponents_below,
    oracle_cross_check,
    truncated_diagram,
    truncated_quotient_dim,
)
from .problemfile import ProblemError, ProblemFile, parse_poly, parse_problem
from .standard_basis import (
    DEFAULT_POOL_CEILING,
    DEFAULT_WORK_BUDGET,
    MoraStep,
    MoraTrace,
    PoolLimitExceeded,
    SBasis,
    SPairRecord,
    WorkBudgetExceeded,
    diagram_of_ideal,
    mora_normal_form,
    standard_basis,
)

__version__ = "0.1.0"
