"""The linear-algebra window engine and its agreement with the exact one."""

import random
from math import gcd

import pytest

from staircase import (
    Order,
    Ring,
    TruncationBasis,
    diagram_of_ideal,
    exponents_below,
    oracle_cross_check,
    parse_poly,
    truncated_diagram,
    truncated_quotient_dim,
    truncated_series_generators,
)
from helpers import random_ideal, random_ring, vanishing_poly

RING = Ring(("x", "y"))
X = RING.variable("x")
Y = RING.variable("y")


def test_exponents_below_unit_weights():
    assert exponents_below(Order((1, 1)), 2) == [(0, 0), (0, 1), (1, 0)]
    assert exponents_below(Order((1, 1)), 0) == []
    assert exponents_below(Order((1,)), 4) == [(0,), (1,), (2,), (3,)]


def test_exponents_below_weighted():
    assert exponents_below(Order((2, 1)), 3) == [(0, 0), (0, 1), (0, 2), (1, 0)]


def test_truncation_basis_pinned():
    gens = [X ** 2 + Y ** 3, X * Y]
    window = TruncationBasis.build(gens, 6)
    assert set(window.pivot_exponents()) == {
        e for e in exponents_below(RING.order, 6)
        if diagram_of_ideal(gens).contains(e)}
    assert truncated_quotient_dim(gens, 6) == 5
    assert truncated_diagram(gens, 6).vertices == ((1, 1), (2, 0), (0, 4))


def test_truncation_bound_validation():
    with pytest.raises(ValueError):
        TruncationBasis.build([X], 0)


def test_empty_and_unit_ideals():
    empty = truncated_diagram([], 4, ring=RING)
    assert empty.is_empty
    assert truncated_quotient_dim([], 4, ring=RING) == len(
        exponents_below(RING.order, 4))
    unit = truncated_diagram([RING.constant(1) + X], 4)
    assert unit.contains((0, 0))
    assert truncated_quotient_dim([RING.constant(1) + X], 4) == 0


def test_membership_mod_truncation():
    gens = [X ** 2, X * Y]
    window = TruncationBasis.build(gens, 5)
    assert window.contains_mod_truncation(X ** 2 + X * Y)
    assert window.contains_mod_truncation(X ** 3)
    assert not window.contains_mod_truncation(Y)
    assert not window.contains_mod_truncation(X + Y ** 2)


# Leads 2, 4 and 6 share factors, and the denominators decide which terms
# cancel: 4*x + y^2 + y^3 - 2*(2*x + 1/2*y^2) = y^3, so y^2 is no pivot.
RATIONAL_GENS = ["2*x + 1/2*y^2", "4*x + y^2 + y^3", "6*x*y - 1/3*y^3"]


def rational_ideal(rng, ring):
    """One to three generators without constant term, with fractions."""
    return [vanishing_poly(rng, ring, max_denominator=6)
            for _ in range(rng.randint(1, 3))]


def test_rows_are_primitive_integer_rows():
    rng = random.Random(304)
    ideals = [[parse_poly(t, RING) for t in RATIONAL_GENS]]
    for _ in range(20):
        ring = random_ring(rng, max_weight=3)
        ideals.append(rational_ideal(rng, ring))
    for gens in ideals:
        window = TruncationBasis.build(gens, 7)
        for lead, row in window._pivots.items():
            assert min(row) == lead
            assert all(type(v) is int and v for v in row.values())
            assert gcd(*row.values()) == 1


def test_rational_generators_with_shared_lead_factors_pinned():
    gens = [parse_poly(t, RING) for t in RATIONAL_GENS]
    assert TruncationBasis.build(gens, 5).pivot_exponents() == [
        (1, 0), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0), (0, 4),
        (1, 3), (2, 2), (3, 1), (4, 0)]
    assert diagram_of_ideal(gens).vertices == ((1, 0), (0, 3))


def test_membership_of_rational_polynomials():
    gens = [parse_poly(t, RING) for t in RATIONAL_GENS]
    window = TruncationBasis.build(gens, 5)
    for text, member in [("x + 1/4*y^2", True), ("1/2*x*y + 3/8*y^3", True),
                         ("x - 1/4*y^2", False), ("2/3*y^2 + x^4", False)]:
        assert window.contains_mod_truncation(parse_poly(text, RING)) is member


def test_pivots_equal_exact_staircase_on_random_ideals():
    rng = random.Random(301)
    for _ in range(30):
        ring = random_ring(rng)
        gens = random_ideal(rng, ring)
        bound = 6
        window = TruncationBasis.build(gens, bound)
        exact = diagram_of_ideal(gens)
        expected = {e for e in exponents_below(ring.order, bound)
                    if exact.contains(e)}
        assert set(window.pivot_exponents()) == expected


def test_pivots_equal_exact_staircase_on_weighted_rational_ideals():
    rng = random.Random(305)
    for _ in range(30):
        ring = random_ring(rng, max_weight=3)
        gens = rational_ideal(rng, ring)
        bound = 8
        window = TruncationBasis.build(gens, bound)
        exact = diagram_of_ideal(gens)
        expected = {e for e in exponents_below(ring.order, bound)
                    if exact.contains(e)}
        assert set(window.pivot_exponents()) == expected


def test_cross_check_agrees():
    rng = random.Random(302)
    for _ in range(40):
        ring = random_ring(rng)
        gens = random_ideal(rng, ring)
        report = oracle_cross_check(gens, 7)
        assert report.agree
        assert report.first_difference is None


# Cases of the random-ideals benchmark corpus (corpus seed 11) whose uncapped
# completion ran past any deadline; the vertices are the oracle's window.
FORMER_HANGS = [
    ("r3_15", (2, 1, 3), 8,
     ["2*x^2 + 3*x*y^2*z^2", "-4*y - 2*z + 3*x*z + 3*x^3*z",
      "4*x + 2*x*y^3 - 3*x^2*y^2 - 4*x*y*z^3"],
     ((0, 1, 0), (1, 0, 0))),
    ("r3_26", (1, 1, 1), 8,
     ["-4*x*z + 2*x^4*y", "x*z + y^2*z + 4*x^2*z + 4*x^4*z",
      "-4*z - 3*y*z^2 + 2*x*y^2"],
     ((0, 0, 1), (2, 2, 0), (1, 4, 0), (5, 1, 0))),
    ("r4_20", (1, 1, 1, 1), 6,
     ["3*y + 2*z^2*w", "4*y*z^2*w + 4*y^2*z^2 + 4*x*z*w^3 - 3*x^2*z*w^2",
      "-3*w^2 - 3*x*y - 4*x^2*y*z*w"],
     ((0, 1, 0, 0), (0, 0, 0, 2))),
    ("r4_25", (3, 3, 2, 1), 6,
     ["-3*y - 4*x*w^2 - x*y*w - 3*x*y^2*w^2",
      "3*z + 4*y*z*w^2 + x^2*y*z^2",
      "-y*z*w - 4*x*z*w + 3*x*y*w^3 - y^2*z*w^2", "4*x*z*w^2"],
     ((0, 0, 1, 0), (0, 1, 0, 0))),
]


@pytest.mark.parametrize("name,weights,bound,texts,vertices", FORMER_HANGS,
                         ids=[case[0] for case in FORMER_HANGS])
def test_cross_check_stays_inside_its_window(name, weights, bound, texts,
                                             vertices):
    ring = Ring(tuple("xyzw")[:len(weights)], order=Order(weights))
    report = oracle_cross_check([parse_poly(t, ring) for t in texts], bound)
    assert report.agree
    assert report.oracle_vertices == vertices
    assert report.basis_vertices == vertices


def test_cross_check_reports_only_window_vertices():
    gens = truncated_series_generators(RING, depth=28)
    report = oracle_cross_check(gens, 12)
    assert report.agree
    assert report.basis_vertices == ((3, 1), (2, 3))
    assert report.oracle_vertices == report.basis_vertices
    # The exact staircase has further vertices beyond the window.
    assert diagram_of_ideal(gens).vertices == ((3, 1), (2, 3), (1, 29), (0, 32))
