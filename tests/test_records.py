"""Value semantics of the library's record classes: equality, hashing, repr,
keyword construction with defaults, immutability and validation."""

from fractions import Fraction
from typing import NamedTuple

import pytest

from staircase import (
    CoordChange, CrossCheckReport, Diagram, DimProbeReport, DimProbeRow,
    FlatnessReport, FlatnessRow, MapSpec, MoraStep, MoraTrace, Order,
    PerturbationReport, PerturbationSample, ProblemFile, Ring, SBasis,
    SPairRecord, SweepReport, SweepRow, TruncationBasis, Verdict, VerdictKind,
)

RING = Ring(("x", "y"))
X, Y = RING.variable("x"), RING.variable("y")
YES = Verdict.yes({"dimension": 0})
ROW_FIELDS = {"mu": 5, "vertices": ((1, 0),), "window_vertices": ((1, 0),),
              "equal": True, "equal_upto_bound": True, "contains_base": True,
              "quotient_dimension": 1, "hilbert": (1, 0), "new_on_window": ()}
STEP_FIELDS = {"reducer": "r0", "shift": (1, 0), "coeff": Fraction(1)}


class Case(NamedTuple):
    cls: type
    fields: dict  # every field in declaration order
    change: tuple  # (field, another value) for a record that differs
    defaults: dict = {}  # the fields a keyword construction may omit
    hashable: bool = True
    hidden: tuple = ()  # fields that repr leaves out
    invalid: tuple = ()  # (fields to override, exception, message)


CASES = [
    Case(Order, {"weights": (1, 2)}, ("weights", (2, 1)),
         invalid=(({"weights": (0, 1)}, ValueError, "positive"),
                  ({"weights": (1.5,)}, TypeError, "integers"))),
    Case(Ring, {"variables": ("x", "y"), "order": Order((1, 1))},
         ("order", Order((1, 2))), defaults={"order": Order((1, 1))},
         invalid=(({"variables": ()}, ValueError, "at least one"),
                  ({"variables": ("x", "")}, ValueError, "nonempty"),
                  ({"variables": ("x", "x")}, ValueError, "unique"),
                  ({"order": Order((1,))}, ValueError, "arity"))),
    Case(CoordChange, {"matrix": ((Fraction(1), Fraction(0)),
                                  (Fraction(0), Fraction(1)))},
         ("matrix", ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))),
         invalid=(({"matrix": ()}, ValueError, "square"),
                  ({"matrix": ((1, 2), (2, 4))}, ValueError, "singular"),
                  ({"matrix": ((1.0,),)}, TypeError, "coefficients"))),
    Case(Diagram, {"arity": 2, "vertices": ((1, 0), (0, 2))},
         ("vertices", ((1, 0),)),
         invalid=(({"vertices": ((1,),)}, ValueError, "arity"),
                  ({"vertices": ((-1, 0),)}, ValueError, "nonnegative"),
                  ({"vertices": ((1, 0), (1, 1))}, ValueError, "antichain"),
                  ({"vertices": ((1.0, 0),)}, TypeError, "integers"))),
    Case(MapSpec, {"ring": RING, "relations": (X * Y,), "components": (X,)},
         ("components", (Y,)),
         invalid=(({"relations": (), "components": ()}, ValueError,
                   "at least one"),
                  ({"components": (Ring(("a",)).variable("a"),)}, ValueError,
                   "live in the ring"),
                  ({"components": (X + 1,)}, ValueError, "vanish"))),
    Case(ProblemFile, {"ring": RING, "ideals": {"I": (X,)}, "maps": {},
                       "options": {"seed": 3}}, ("options", {}),
         defaults={"ideals": {}, "maps": {}, "options": {}}, hashable=False),
    Case(Verdict, {"kind": VerdictKind.CERTIFIED_YES,
                   "certificate": {"dimension": 0}, "bound": None},
         ("bound", 4), defaults={"bound": None}, hashable=False),
    Case(FlatnessRow, {"mu": 3, "fixed_source": YES, "truncated_source": None,
                       "truncated_source_note": None},
         ("mu", 4), defaults={"truncated_source_note": None}, hashable=False),
    Case(FlatnessReport, {"baseline": YES, "rows": ()},
         ("baseline", Verdict.unknown(2)), hashable=False),
    Case(SweepRow, ROW_FIELDS, ("mu", 6)),
    Case(SweepReport, {"mu_min": 5, "mu_max": 5, "length_bound": 8,
                       "base_vertices": ((1, 0),), "base_dimension": 1,
                       "rows": (SweepRow(**ROW_FIELDS),), "stabilized_at": 5,
                       "summary": "s"},
         ("stabilized_at", None)),
    Case(DimProbeRow, {"mu": 2, "dimension": 1, "lower_ok": True},
         ("lower_ok", False)),
    Case(DimProbeReport, {"dimension": 1, "lower_bound": 0, "rows": (),
                          "first_match": None, "all_lower_ok": True},
         ("first_match", 2)),
    Case(PerturbationSample, {"index": 0, "kind": VerdictKind.CERTIFIED_NO,
                              "violation": True}, ("index", 1)),
    Case(PerturbationReport, {"property_name": "regseq", "mu": 3,
                              "baseline": VerdictKind.CERTIFIED_YES,
                              "samples": (), "violations": ()},
         ("violations", (0,))),
    Case(CrossCheckReport, {"agree": False, "first_difference": (0, 2),
                            "bound": 4, "oracle_vertices": ((0, 2),),
                            "basis_vertices": ()}, ("bound", 5)),
    Case(MoraStep, STEP_FIELDS, ("reducer", "p0")),
    Case(MoraTrace, {"ring": RING, "steps": (MoraStep(**STEP_FIELDS),),
                     "pooled_at": ()},
         ("pooled_at", (0,))),
    Case(SPairRecord, {"steps": 1, "reduced_to_zero": True,
                       "added_index": None, "skipped_coprime": False,
                       "skipped_chain": False},
         ("added_index", 2),
         defaults={"skipped_coprime": False, "skipped_chain": False}),
    Case(SBasis, {"basis": (X,), "diagram": Diagram(2, ((1, 0),)),
                  "trace": (SPairRecord(0, True, None, True),)},
         ("basis", (X + X ** 2,))),
    Case(TruncationBasis, {"ring": RING, "bound": 2,
                           "monomials": ((0, 0), (0, 1), (1, 0)),
                           "_index": {(0, 0): 0, (0, 1): 1, (1, 0): 2},
                           "_pivots": {}},
         ("_pivots", {1: {1: 1}}), hashable=False,
         hidden=("_index", "_pivots")),
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.cls.__name__)
def test_records_keep_their_value_semantics(case):
    cls, fields = case.cls, case.fields
    a, b = cls(**fields), cls(*fields.values())
    name, value = case.change
    other = cls(**{**fields, name: value})
    assert a == b and not a != b
    assert a != other and not a == other
    if not issubclass(cls, tuple):
        # Unlike a NamedTuple, a plain record equals nothing of another class.
        assert a != tuple(fields.values()) and a != object()
    if case.hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    shown = ", ".join(f"{n}={getattr(a, n)!r}" for n in fields
                      if n not in case.hidden)
    assert repr(a) == f"{cls.__name__}({shown})"
    required = {n: v for n, v in fields.items() if n not in case.defaults}
    made = cls(**required)
    assert {n: getattr(made, n) for n in case.defaults} == case.defaults
    with pytest.raises(AttributeError):
        setattr(a, name, value)
    assert getattr(a, name) == getattr(b, name)
    for override, error, message in case.invalid:
        with pytest.raises(error, match=message):
            cls(**{**fields, **override})
