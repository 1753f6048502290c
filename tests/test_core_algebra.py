"""Exact arithmetic, the local order, jets, and coordinate changes."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from staircase import (
    CoordChange,
    Diagram,
    Order,
    Poly,
    Ring,
    determinant,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    mora_normal_form,
    total_degree,
)
from staircase.core import FIELD_BITS, FIELD_LIMIT
from helpers import is_canonical, random_poly, random_ring, random_tail

RING = Ring(("x", "y"))
X = RING.variable("x")
Y = RING.variable("y")


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(("x", "x"))
    with pytest.raises(ValueError):
        Ring(())
    with pytest.raises(ValueError):
        Ring(("x", "y"), order=Order((1,)))


def test_order_is_degree_first_then_lex():
    key = RING.order.pack
    assert key((0, 1)) < key((1, 0))
    assert key((1, 0)) < key((0, 2))
    assert key((2, 0)) == key((2, 0))
    assert (X + Y).initial_exponent() == (0, 1)


def test_weighted_order():
    ring = Ring(("x", "y"), order=Order((3, 1)))
    x = ring.variable("x")
    y = ring.variable("y")
    assert (x + y ** 2).initial_exponent() == (0, 2)
    assert ring.order.length((1, 2)) == 5


def test_order_length_checks_arity():
    # map() stops at the shorter tuple, so only the explicit check catches a
    # mismatch, in length and in the packed key alike.
    for order in (RING.order, Order((2, 3))):
        for exp in ((1, 2, 3), (1,)):
            with pytest.raises(ValueError):
                order.length(exp)
            with pytest.raises(ValueError):
                order.pack(exp)
    assert Order((2, 3)).pack((1, 2)) == (8 << 2 * FIELD_BITS
                                          | 1 << FIELD_BITS | 2)


def test_arithmetic_matches_hand_expansion():
    assert (X + Y) ** 2 == X ** 2 + 2 * X * Y + Y ** 2
    assert (X - Y) * (X + Y) == X ** 2 - Y ** 2
    half = Fraction(1, 2)
    assert half * X + half * X == X
    assert (X * 0).is_zero
    assert X ** 0 == RING.constant(1)
    assert -(X - Y) == Y - X


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        RING.constant(0.5)
    with pytest.raises(TypeError):
        X * 0.5


def test_float_exponents_weights_and_vertices_are_rejected():
    # int() would truncate each of these to a different, valid value.
    with pytest.raises(TypeError):
        Order((1.5, 2))
    with pytest.raises(TypeError):
        RING.monomial((1.7, 0))
    with pytest.raises(TypeError):
        Diagram(2, ((1.9, 0),))


def test_polynomials_are_immutable():
    with pytest.raises(AttributeError):
        X.terms = ()


def test_initial_data():
    f = X ** 3 * Y + X * Y ** 4 - X ** 3 * Y ** 2
    assert f.initial_exponent() == (3, 1)
    assert f.initial_coefficient() == 1
    assert max(sum(e) for e, _ in f.terms) == 5
    with pytest.raises(ValueError):
        RING.zero().initial_exponent()


def test_jet_pinned():
    f = X ** 3 * Y + X * Y ** 4 - X ** 3 * Y ** 2
    assert f.jet(4) == X ** 3 * Y
    assert f.jet(5) == f
    assert f.jet(0).is_zero
    with pytest.raises(ValueError):
        f.jet(-1)


def test_jet_properties_randomized():
    rng = random.Random(101)
    for _ in range(300):
        ring = random_ring(rng)
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        mu = rng.randint(0, 6)
        assert f.jet(mu).jet(mu) == f.jet(mu)
        assert (f * g).jet(mu) == (f.jet(mu) * g.jet(mu)).jet(mu)


def test_initial_exponent_ignores_deep_tails():
    rng = random.Random(102)
    for _ in range(200):
        ring = random_ring(rng)
        f = random_poly(rng, ring)
        mu = total_degree(f.initial_exponent())
        g = f + random_tail(rng, ring, mu + 1, mu + 3)
        assert f.jet(mu) == g.jet(mu)
        assert g.initial_exponent() == f.initial_exponent()


def test_initial_exponent_multiplicative_randomized():
    rng = random.Random(103)
    for _ in range(300):
        ring = random_ring(rng)
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        assert (f * g).initial_exponent() == exp_add(
            f.initial_exponent(), g.initial_exponent())


def _random_exp(rng, arity, max_degree=5):
    exp = [0] * arity
    for _ in range(rng.randint(0, max_degree)):
        exp[rng.randrange(arity)] += 1
    return tuple(exp)


def test_order_axioms_randomized():
    rng = random.Random(104)
    for _ in range(300):
        arity = rng.randint(1, 3)
        order = Order((1,) * arity)
        a = _random_exp(rng, arity)
        b = _random_exp(rng, arity)
        c = _random_exp(rng, arity)
        key = order.pack
        ka, kb, kc = key(a), key(b), key(c)
        assert (ka == kb) == (a == b)
        if ka <= kb <= kc:
            assert ka <= kc
        kac, kbc = key(exp_add(a, c)), key(exp_add(b, c))
        assert (kac < kbc, kac == kbc) == (ka < kb, ka == kb)
        assert key((0,) * arity) <= ka


def test_exponent_helpers():
    assert exp_add((1, 2), (3, 4)) == (4, 6)
    assert exp_sub((3, 4), (1, 2)) == (2, 2)
    with pytest.raises(ValueError):
        exp_sub((1, 0), (0, 1))
    assert exp_divides((1, 1), (2, 1))
    assert not exp_divides((2, 0), (1, 5))
    assert exp_lcm((2, 0), (1, 5)) == (2, 5)


def test_packed_keys_compare_and_add_as_exponents():
    rng = random.Random(208)
    for _ in range(200):
        arity = rng.randint(1, 3)
        order = Order(tuple(rng.randint(1, 5) for _ in range(arity)))
        near = (0, 1, 2, FIELD_LIMIT // 2 - 1)  # sums of two still fit
        a, b = (tuple(rng.choice(near) for _ in range(arity)) for _ in "ab")
        assert (order.pack(a) < order.pack(b)) == (
            (order.length(a), *a) < (order.length(b), *b))
        assert order.pack(a) + order.pack(b) == order.pack(exp_add(a, b))
        assert order.unpack(order.pack(a)) == a
        assert order.unpack_all([order.pack(a), order.pack(b)]) == [a, b]


def test_packing_refuses_what_does_not_fit_its_field():
    order = Order((1, 2))
    for exp in ((2 ** 64, 0), (0, FIELD_LIMIT), (-1, 0)):
        with pytest.raises(ValueError):
            order.pack(exp)
    top = FIELD_LIMIT - 1
    assert order.unpack(order.pack((top, top))) == (top, top)
    # Unpacking checks nothing, so the refusal must come before a key is
    # made: a field at FIELD_LIMIT would carry into its neighbour. Every
    # polynomial is packed, so the refusal comes when one is built.
    for exp in ((2 ** 64, 0), (0, FIELD_LIMIT)):
        with pytest.raises(ValueError):
            RING.monomial(exp)
    half = RING.monomial((0, FIELD_LIMIT // 2))
    with pytest.raises(ValueError):
        half * half
    # The product's weighted length passes the limit, but no entry does.
    other = RING.monomial((FIELD_LIMIT // 2, 0))
    assert (half * other).terms == (((FIELD_LIMIT // 2,) * 2, 1),)
    assert ((other + Y - other) * half).terms == (((0, FIELD_LIMIT // 2 + 1), 1),)


def test_packed_form_is_a_primitive_integer_part_and_a_scale():
    rng = random.Random(209)
    for _ in range(100):
        ring = random_ring(rng)
        p = random_poly(rng, ring).scaled(Fraction(rng.randint(-9, 9) or 1,
                                                   rng.randint(1, 9)))
        assert is_canonical(p)
        assert math.gcd(*p.ints) == 1
        assert p.terms is p.terms
        # The content normalization keeps the keys and the integer part up
        # to sign.
        normal = p.content_normalized()
        sign = 1 if p.ints[0] > 0 else -1
        assert (normal.keys, normal.ints, normal.scale) == (
            p.keys, [sign * c for c in p.ints], 1)
        assert [c for _, c in normal.terms] == normal.ints
    zero = RING.zero()
    assert is_canonical(zero) and (zero.keys, zero.scale) == ([], 1)
    assert is_canonical(X - X) and X - X == zero


@st.composite
def rational_polys(draw):
    """A nonzero polynomial with rational coefficients under a random
    weighted order."""
    arity = draw(st.integers(1, 3))
    ring = Ring(tuple("xyz")[:arity],
                order=Order(tuple(draw(st.integers(1, 3)) for _ in range(arity))))
    exponent = st.tuples(*[st.integers(0, 3)] * arity)
    coeff = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                      st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(exponent, coeff), min_size=1, max_size=5))
    p = Poly.from_terms(ring, pairs)
    if p.is_zero:
        p = ring.constant(1)
    return p, draw(st.integers(1, 9)), draw(st.integers(-9, 9).filter(bool))


@settings(max_examples=200, deadline=None)
@given(rational_polys())
def test_every_construction_gives_the_canonical_form(drawn):
    p, n, k = drawn
    ring = p.ring
    # Each term split in two, listed backwards.
    split = Poly.from_terms(ring, [t for e, c in reversed(p.terms)
                                   for t in ((e, c / 3), (e, 2 * c / 3))])
    monomials = ring.zero()
    for e, c in p.terms:
        monomials = monomials + ring.monomial(e) * c
    other = ring.variable(ring.variables[0]) ** n + k
    arithmetic = (p + other) * other - other * other - p * (other - 1)
    scaled = p.scaled(Fraction(k, n)).scaled(Fraction(n, k))
    # Mora cuts the deep multiple of x^n off at entry and returns the rest.
    cap = 1 + max(ring.order.length(e) for e, _ in p.terms)
    deep = ring.monomial((cap,) * ring.arity) * other
    remainder, _ = mora_normal_form(p + deep, [], length_cap=cap)
    normal = p.content_normalized().scaled(
        p.initial_coefficient() / p.content_normalized().initial_coefficient())
    for q in (split, monomials, arithmetic, scaled, remainder, normal):
        assert is_canonical(q)
        assert q == p and hash(q) == hash(p) and q.terms == p.terms


def test_content_normalization():
    f = 6 * X ** 2 + 9 * Y
    assert f.content_normalized() == 2 * X ** 2 + 3 * Y
    assert (-Y).content_normalized() == Y
    g = Fraction(1, 2) * X + Fraction(3, 4) * Y
    assert g.content_normalized() == 2 * X + 3 * Y


def test_pretty_pinned():
    f = X ** 3 * Y + X * Y ** 4 - X ** 3 * Y ** 2
    assert f.pretty() == "x^3*y + x*y^4 - x^3*y^2"
    assert RING.zero().pretty() == "0"
    assert (-X + Y ** 2 - 3 * X * Y).pretty() == "-x + y^2 - 3*x*y"
    assert RING.constant(Fraction(1, 2)).pretty() == "1/2"


def test_coord_change_substitution():
    change = CoordChange(((1, 1), (0, 1)))
    assert X.apply_coord_change(change) == X + Y
    assert Y.apply_coord_change(change) == Y
    assert (X * Y).apply_coord_change(change) == (X + Y) * Y
    with pytest.raises(ValueError):
        CoordChange(((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        CoordChange(((1, 0),))


def test_coord_change_multiplicative_randomized():
    rng = random.Random(105)
    for _ in range(100):
        ring = random_ring(rng)
        size = ring.arity
        while True:
            rows = tuple(tuple(Fraction(rng.randint(-3, 3))
                               for _ in range(size)) for _ in range(size))
            try:
                change = CoordChange(rows)
                break
            except ValueError:
                continue
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        left = (f * g).apply_coord_change(change)
        right = f.apply_coord_change(change) * g.apply_coord_change(change)
        assert left == right


def _permutation_determinant(rows):
    ring = rows[0][0].ring
    out = ring.zero()
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(1 for i in range(len(perm)) for j in range(i)
                         if perm[j] > perm[i])
        prod = ring.constant(1)
        for i, j in enumerate(perm):
            prod = prod * rows[i][j]
        out = out + (prod if inversions % 2 == 0 else -prod)
    return out


def test_determinant_pinned_and_against_permutation_expansion():
    const = RING.constant
    rows2 = ((const(1), const(2)), (const(3), const(4)))
    assert determinant(rows2) == const(-2)
    with pytest.raises(ValueError):
        determinant(((const(1), const(2)),))
    rng = random.Random(106)
    for _ in range(40):
        rows = tuple(
            tuple(random_poly(rng, RING, max_degree=2, max_terms=2,
                              zero_ok=True) for _ in range(3))
            for _ in range(3))
        assert determinant(rows) == _permutation_determinant(rows)
