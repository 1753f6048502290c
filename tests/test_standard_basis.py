"""Mora division and the completion loop behind exact staircases."""

import importlib
import os
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from staircase import (
    CoordChange,
    MoraTrace,
    Order,
    PoolLimitExceeded,
    Poly,
    Ring,
    TruncationBasis,
    WorkBudgetExceeded,
    diagram_of_ideal,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    exponents_below,
    mora_normal_form,
    random_coord_change,
    standard_basis,
    truncated_diagram,
    unit_cleared_generators,
)
from staircase.core import FIELD_LIMIT
from staircase.standard_basis import _spoly
from helpers import (
    is_canonical, random_ideal, random_poly, random_ring, random_tail,
    vanishing_poly,
)

RING = Ring(("x", "y"))
X = RING.variable("x")
Y = RING.variable("y")
RING3 = Ring(("x", "y", "z"))
X3, Y3, Z3 = (RING3.variable(v) for v in "xyz")
RING212 = Ring(("x", "y", "z"), order=Order((2, 1, 2)))
X212, Y212, Z212 = (RING212.variable(v) for v in "xyz")


def test_mora_pinned_unit_example():
    nf, trace = mora_normal_form(X ** 2, [X - X ** 2])
    assert nf.is_zero
    assert trace.unit == RING.constant(1) - X
    assert trace.pool_added == 1
    assert [step.reducer for step in trace.steps] == ["r0", "p0"]
    nf2, trace2 = mora_normal_form(X, [X - X ** 2])
    assert nf2.is_zero
    assert trace2.unit == RING.constant(1) - X


def test_mora_pinned_unit_along_a_pool_chain():
    # p1 joins the pool after p0 has moved the unit off 1, so its own unit
    # factor is that intermediate unit, not 1 and not the final one.
    nf, trace = mora_normal_form(-X * Y - X ** 2 * Y, [-1 - 4 * X ** 2])
    assert nf.is_zero
    assert trace.unit == 1 + 4 * X ** 2
    assert trace.pool_added == 2
    assert [step.reducer for step in trace.steps] == ["r0", "p0", "p0", "p1"]


def test_mora_validates_inputs():
    with pytest.raises(ValueError):
        mora_normal_form(X, [RING.zero()])
    other = Ring(("a",))
    with pytest.raises(ValueError):
        mora_normal_form(X, [other.variable("a")])


def test_mora_remainder_is_irreducible():
    rng = random.Random(201)
    for _ in range(80):
        ring = random_ring(rng)
        reducers = random_ideal(rng, ring)
        f = random_poly(rng, ring, max_degree=5)
        remainder, _ = mora_normal_form(f, reducers)
        if remainder.is_zero:
            continue
        lead = remainder.initial_exponent()
        assert not any(exp_divides(r.initial_exponent(), lead)
                       for r in reducers)


def _pool_unit_factors(trace):
    # Pool entry p_k is u_j * f modulo the reducers, j = pooled_at[k], and
    # u_j is the unit of the trace cut before step j.
    return [MoraTrace(trace.ring, trace.steps[:j],
                      tuple(i for i in trace.pooled_at if i < j)).unit
            for j in trace.pooled_at]


def test_mora_weak_normal_form_identity():
    rng = random.Random(202)
    chained = 0
    # Random reducers often hold a unit, and then every witness lies in the
    # ideal; vanishing reducers keep it proper, so only a right unit passes.
    for case in range(360):
        ring = random_ring(rng)
        if case < 60:
            reducers = random_ideal(rng, ring, max_degree=3)
        else:
            reducers = [vanishing_poly(rng, ring, max_degree=3)
                        for _ in range(rng.randint(1, 3))]
        f = random_poly(rng, ring, max_degree=4)
        remainder, trace = mora_normal_form(f, reducers)
        assert trace.unit.constant_term == 1
        if case >= 60:
            used = {step.reducer for step in trace.steps}
            chained += any(f"p{k}" in used and u != ring.constant(1)
                           for k, u in enumerate(_pool_unit_factors(trace)))
        witness = trace.unit * f - remainder
        if witness.is_zero:
            continue
        window = TruncationBasis.build(reducers, 9, ring=ring)
        assert window.contains_mod_truncation(witness)
    assert chained


@st.composite
def mora_inputs(draw):
    """f and reducers with rational coefficients under a random weighted
    order, and a length cap or none."""
    arity = draw(st.integers(1, 3))
    ring = Ring(tuple("xyz")[:arity],
                order=Order(tuple(draw(st.integers(1, 3)) for _ in range(arity))))
    exponent = st.tuples(*[st.integers(0, 3)] * arity)
    coeff = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                      st.integers(1, 4))
    poly = (st.lists(st.tuples(exponent, coeff), min_size=1, max_size=5)
            .map(lambda pairs: Poly.from_terms(ring, pairs))
            .filter(lambda p: not p.is_zero))
    reducers = draw(st.lists(poly, min_size=1, max_size=3))
    return draw(poly), reducers, draw(st.none() | st.integers(1, 10))


def _replay(f, reducers, trace, cap):
    """Rerun a Mora trace on dicts of Fraction coefficients, sharing no
    arithmetic with the library: each step subtracts coeff * x^shift times
    its reducer, or times the pooled intermediate p_k = h before step
    pooled_at[k], and keeps only terms below the cap. Returns the terms
    ascending in the order."""
    length = f.ring.order.length

    def key(e):
        return (length(e), *e)

    def below(p):
        return {e: c for e, c in p.terms if cap is None or length(e) < cap}

    h = below(f)
    inputs = [dict(g.terms) for g in reducers]
    pooled = []
    for i, step in enumerate(trace.steps):
        if len(pooled) < trace.pool_added and trace.pooled_at[len(pooled)] == i:
            pooled.append(dict(h))
        source = inputs if step.reducer.startswith("r") else pooled
        before = min(h, key=key)
        for e, c in source[int(step.reducer[1:])].items():
            e = exp_add(e, step.shift)
            if cap is None or length(e) < cap:
                h[e] = h.get(e, 0) - step.coeff * c
                if not h[e]:
                    del h[e]
        # Each step cancels the initial term.
        assert not h or key(min(h, key=key)) > key(before)
    assert len(pooled) == trace.pool_added
    return tuple(sorted(h.items(), key=lambda t: key(t[0])))


@settings(max_examples=300, deadline=None)
@given(mora_inputs())
# The step 2*(x + y^2) - (2x + 2y^3) leaves the content 2, which the scale
# must take up.
@example((X + Y ** 2, [2 * X + 2 * Y ** 3], None))
@example((X + Y ** 2, [2 * X + 2 * Y ** 3], 3))
# Three pool entries with coefficients swelling along the chain.
@example((-X * Y - X ** 2 * Y, [-1 - 4 * X ** 2], None))
def test_mora_trace_replays_to_the_remainder(inputs):
    f, reducers, cap = inputs
    fields = [(list(p.keys), list(p.ints), p.scale, p.top)
              for p in (f, *reducers)]
    try:
        remainder, trace = mora_normal_form(f, reducers, length_cap=cap)
    except WorkBudgetExceeded:
        return
    assert _replay(f, reducers, trace, cap) == remainder.terms
    assert is_canonical(remainder)
    if not remainder.is_zero:
        lead = remainder.initial_exponent()
        assert not any(exp_divides(r.initial_exponent(), lead)
                       for r in reducers)
    # The run left the stored fields of its inputs as they were.
    assert [(p.keys, p.ints, p.scale, p.top)
            for p in (f, *reducers)] == fields


def test_mora_refuses_exponents_past_the_packed_field():
    with pytest.raises(ValueError):
        mora_normal_form(RING.monomial((2 ** 64, 0)) + Y, [Y])
    with pytest.raises(ValueError):
        standard_basis([RING.monomial((2 ** 64, 0))])
    # The input fits, but x^(2^31 - 1) times the reducer's x*z would not,
    # and that term would stay in the remainder.
    f = RING3.monomial((FIELD_LIMIT - 1, 1, 0))
    with pytest.raises(ValueError):
        mora_normal_form(f, [Y3 + X3 * Z3])


def test_standard_basis_calls_mora_once_per_reduced_spair(monkeypatch):
    # perfbench counts Mora calls by wrapping the module's name, so the
    # completion must reach Mora through it for every s-pair it reduces:
    # all but the coprime skips and the s-polynomials that vanish.
    module = importlib.import_module("staircase.standard_basis")
    original = module.mora_normal_form
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "mora_normal_form", counting)
    rng = random.Random(210)
    total = 0
    for _ in range(40):
        ring = random_ring(rng)
        gens = random_ideal(rng, ring, max_degree=4)
        calls.clear()
        sb = standard_basis(gens)
        reduced = [r for r in sb.trace if not r.skipped_coprime
                   and not (r.steps == 0 and r.reduced_to_zero)]
        assert len(calls) == len(reduced)
        total += len(calls)
    assert total


def test_standard_basis_pinned_examples():
    sb = standard_basis([X ** 2 + Y ** 3, X * Y])
    assert sb.diagram.vertices == ((1, 1), (2, 0), (0, 4))
    sb2 = standard_basis([Y - X ** 2, Y ** 3])
    assert sb2.diagram.vertices == ((0, 1), (6, 0))
    assert any(b == X ** 6 for b in sb2.basis)
    g1, g2 = unit_cleared_generators(RING)
    sb3 = standard_basis([g1, g2])
    assert sb3.diagram.vertices == ((3, 1), (2, 3))
    assert standard_basis([X, Y]).diagram.vertices == ((0, 1), (1, 0))
    assert standard_basis([RING.constant(1) + X]).diagram.vertices == ((0, 0),)


def test_standard_basis_handles_degenerate_generators():
    empty = standard_basis([], ring=RING)
    assert empty.diagram.is_empty
    with_zero = standard_basis([RING.zero(), X])
    assert with_zero.diagram == standard_basis([X]).diagram
    assert standard_basis([2 * X]).basis == (X,)
    with pytest.raises(ValueError):
        standard_basis([])


def test_coprime_leads_are_skipped():
    sb = standard_basis([X ** 2, Y ** 3])
    assert sb.diagram.vertices == ((2, 0), (0, 3))
    assert any(record.skipped_coprime for record in sb.trace)


def test_every_spair_of_the_basis_reduces_to_zero():
    rng = random.Random(203)
    for _ in range(40):
        ring = random_ring(rng)
        gens = random_ideal(rng, ring, max_degree=4)
        sb = standard_basis(gens)
        basis = sb.basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                a = basis[i].initial_exponent()
                b = basis[j].initial_exponent()
                lcm = exp_lcm(a, b)
                fa = basis[i] * ring.monomial(exp_sub(lcm, a))
                gb = basis[j] * ring.monomial(exp_sub(lcm, b))
                s = (fa.scaled(1 / basis[i].initial_coefficient())
                     - gb.scaled(1 / basis[j].initial_coefficient()))
                if s.is_zero:
                    continue
                remainder, _ = mora_normal_form(s, list(basis))
                assert remainder.is_zero


def test_diagram_is_invariant_under_units_and_scaling():
    rng = random.Random(204)
    for _ in range(30):
        ring = random_ring(rng)
        gens = random_ideal(rng, ring, max_degree=3)
        base = diagram_of_ideal(gens)
        unit = ring.constant(1) + random_tail(rng, ring, 1, 2)
        scaled = [g.scaled(Fraction(rng.randint(1, 5))) for g in gens]
        assert diagram_of_ideal(scaled, ring=ring) == base
        assert diagram_of_ideal([unit * g for g in gens], ring=ring) == base


def test_initial_exponents_of_members_lie_in_the_diagram():
    rng = random.Random(205)
    for _ in range(40):
        ring = random_ring(rng)
        gens = random_ideal(rng, ring, max_degree=3)
        d = diagram_of_ideal(gens)
        member = ring.zero()
        for g in gens:
            member = member + random_poly(rng, ring, max_degree=2,
                                          zero_ok=True) * g
        if member.is_zero:
            continue
        assert d.contains(member.initial_exponent())


def test_deep_tails_finish_once_the_staircase_is_finite():
    # Ecart-driven division alone treadmills on these generators while the
    # coefficients swell; the finite-complement cap must shortcut the run.
    g1 = X ** 2 + Y ** 3 - 3 * X ** 6
    g2 = X * Y - 2 * X ** 6 + 2 * X ** 4 * Y ** 4 + 3 * X ** 6 * Y ** 2
    sb = standard_basis([g1, g2])
    assert sb.diagram.vertices == ((1, 1), (2, 0), (0, 4))
    assert sum(record.steps for record in sb.trace) <= 10
    deep = X ** 7 * Y - X ** 6 * Y ** 3
    nf, trace = mora_normal_form(
        deep, [X ** 2 + Y ** 3, X * Y, Y ** 4], length_cap=4)
    assert nf.is_zero
    assert not trace.steps


def test_pool_ceiling_explicit_env_and_default(monkeypatch):
    gens = [Y - X ** 2, Y ** 3]
    with pytest.raises(PoolLimitExceeded):
        standard_basis(gens, pool_ceiling=0)
    monkeypatch.setenv("STAIRCASE_POOL_CEILING", "0")
    with pytest.raises(PoolLimitExceeded):
        standard_basis(gens)
    assert standard_basis(gens, pool_ceiling=50).diagram.vertices == (
        (0, 1), (6, 0))
    monkeypatch.setenv("STAIRCASE_POOL_CEILING", "not a number")
    with pytest.raises(ValueError):
        standard_basis(gens)


def test_unit_times_monomial_generators_enter_as_the_monomial():
    # x*(4 + 2y^5) spans the ideal of x in the local ring.
    sb = standard_basis([X * (4 + 2 * Y ** 5)])
    assert sb.basis == (X,)
    assert sb.diagram.vertices == ((1, 0),)
    # x*(x + y) is no unit multiple: its initial term xy is not the
    # componentwise minimum x of its support.
    assert standard_basis([X * (X + Y)]).basis == (X * Y + X ** 2,)


def test_mora_treadmill_ends_in_the_work_budget(monkeypatch):
    # A unit reducer whose ecart never exceeds the intermediate's pools
    # nothing, so without a length cap the series grows without end.
    ring = Ring(("x", "y", "z"), order=Order((2, 1, 1)))
    x, y, z = (ring.variable(v) for v in "xyz")
    f = -1 - 2 * y * z - 2 * x * z - 4 * x ** 3
    reducers = [-3 + 3 * y - 6 * y ** 2 * z, -4 * y - y * z - 6 * x * z]
    with pytest.raises(WorkBudgetExceeded) as caught:
        mora_normal_form(f, reducers)
    assert caught.value.limit == 100000
    assert caught.value.rounds is None
    assert isinstance(caught.value, PoolLimitExceeded)
    # A length cap bounds the series, and the budget does not apply.
    monkeypatch.setenv("STAIRCASE_WORK_BUDGET", "0")
    mora_normal_form(f, reducers, length_cap=6)


def test_work_budget_env_and_uncertified_ideals(monkeypatch):
    # y*(x - y^2, x^2) has an infinite complement: it completes within the
    # default budget, but after a breach no capped round can certify it.
    gens = [X * Y - Y ** 3, X ** 2 * Y]
    assert standard_basis(gens).diagram.vertices == ((1, 1), (0, 5))
    monkeypatch.setenv("STAIRCASE_WORK_BUDGET", "0")
    with pytest.raises(WorkBudgetExceeded) as caught:
        standard_basis(gens)
    assert (caught.value.limit, caught.value.rounds) == (0, 8)
    assert "STAIRCASE_WORK_BUDGET" in str(caught.value)
    monkeypatch.setenv("STAIRCASE_WORK_BUDGET", str(10 ** 6))
    assert standard_basis(gens).diagram.vertices == ((1, 1), (0, 5))
    monkeypatch.setenv("STAIRCASE_WORK_BUDGET", "not a number")
    with pytest.raises(ValueError):
        standard_basis(gens)


def _invertible(rows) -> bool:
    try:
        CoordChange(rows)
    except ValueError:
        return False
    return True


@st.composite
def moved_m_primary_ideals(draw):
    """Pure powers x_i^a_i and one extra generator in linearly moved
    coordinates, with a length C past every vertex of the staircase.

    m^D lies in the ideal for D = sum(a_i - 1) + 1, so J_B does for
    B = D * max(w); a vertex's divisors lie outside, so it is shorter than
    C = B + max(w).
    """
    arity = draw(st.integers(2, 3))
    weights = tuple(draw(st.integers(1, 3)) for _ in range(arity))
    ring = Ring(tuple("xyz")[:arity], order=Order(weights))
    powers = [draw(st.integers(1, 3)) for _ in range(arity)]
    gens = [ring.monomial(tuple(a if j == i else 0 for j in range(arity)))
            for i, a in enumerate(powers)]
    exponent = st.tuples(*[st.integers(0, 3)] * arity)
    coeff = st.integers(-3, 3).filter(bool)
    gens.append(draw(st.lists(st.tuples(exponent, coeff), min_size=1,
                              max_size=3)
                     .map(lambda pairs: Poly.from_terms(ring, pairs))))
    row = st.tuples(*[st.integers(-2, 2)] * arity)
    rows = draw(st.tuples(*[row] * arity).filter(_invertible))
    change = CoordChange(rows)
    moved = [g.apply_coord_change(change) for g in gens]
    cover = (sum(a - 1 for a in powers) + 2) * max(weights)
    return ring, [g for g in moved if not g.is_zero], cover


@settings(max_examples=60, deadline=None)
@given(moved_m_primary_ideals())
# Every generator's initial term is a power of z, so the completion runs
# uncapped and breaches the zero budget.
@example((RING3, [X3 + Z3, Y3 + Z3, Z3 ** 2], 3))
# A capped round shows a covering length past its cap; returning it would
# miss the vertex (2,0,3).
@example((RING212, [(Y212 + Z212) ** 3, Y212 ** 2, (X212 + Y212) ** 3], 14))
def test_certified_fallback_gives_the_exact_diagram(ideal):
    ring, gens, cover = ideal
    # Capped past every vertex, the completion is exact.
    exact = standard_basis(gens, ring=ring, length_cap=cover).diagram
    with mock.patch.dict(os.environ, {"STAIRCASE_WORK_BUDGET": "0"}):
        assert standard_basis(gens, ring=ring).diagram == exact


def test_length_cap_validation_and_deep_generators():
    with pytest.raises(ValueError):
        standard_basis([X], length_cap=0)
    # Terms at or beyond the cap go before normalization, and a generator
    # left with none is dropped.
    sb = standard_basis([2 * X ** 2 + 4 * X ** 5, Y ** 4], length_cap=4)
    assert sb.basis == (X ** 2,)
    assert sb.diagram.vertices == ((2, 0),)


def test_capped_and_uncapped_engines_match_the_oracle():
    # The corpus of acceptance criterion 04, whose cross-check runs capped.
    rng = random.Random(2024)
    for _ in range(200):
        ring = random_ring(rng)
        gens = random_ideal(rng, ring)
        window = truncated_diagram(gens, 8)
        exact = diagram_of_ideal(gens)
        capped = standard_basis(gens, length_cap=8).diagram
        for e in exponents_below(ring.order, 8):
            assert exact.contains(e) == window.contains(e), (gens, e)
            assert capped.contains(e) == window.contains(e), (gens, e)


@st.composite
def weighted_ideals(draw):
    arity = draw(st.integers(1, 3))
    ring = Ring(tuple("xyz")[:arity],
                order=Order(tuple(draw(st.integers(1, 3)) for _ in range(arity))))
    exponent = st.tuples(*[st.integers(0, 3)] * arity)
    coeff = st.integers(-3, 3).filter(bool)
    gens = draw(st.lists(
        st.lists(st.tuples(exponent, coeff), min_size=1, max_size=3)
        .map(lambda pairs: Poly.from_terms(ring, pairs)), min_size=1, max_size=3))
    return ring, gens


@settings(max_examples=60, deadline=None)
@given(weighted_ideals(), st.integers(1, 7), st.integers(1, 3),
       st.integers(0, 2 ** 16))
def test_capped_window_equals_the_oracle_window(ideal, bound, extra, seed):
    ring, gens = ideal
    # The axis certificate sends such dense, coordinate-moved ideals to
    # capped Mora.
    change = random_coord_change(ring, random.Random(seed))
    moved = [g.apply_coord_change(change) for g in gens]
    assert (standard_basis(moved, ring=ring, length_cap=bound).diagram
            == truncated_diagram(moved, bound, ring=ring))
    capped = standard_basis(gens, ring=ring, length_cap=bound).diagram
    assert capped == truncated_diagram(gens, bound, ring=ring)
    wider = standard_basis(gens, ring=ring, length_cap=bound + extra).diagram
    for e in exponents_below(ring.order, bound):
        assert wider.contains(e) == capped.contains(e)


@st.composite
def spoly_pairs(draw):
    arity = draw(st.integers(1, 3))
    ring = Ring(tuple("xyz")[:arity],
                order=Order(tuple(draw(st.integers(1, 3)) for _ in range(arity))))
    exponent = st.tuples(*[st.integers(0, 3)] * arity)
    coeff = st.integers(-3, 3).filter(bool)
    poly = (st.lists(st.tuples(exponent, coeff), min_size=1, max_size=4)
            .map(lambda pairs: Poly.from_terms(ring, pairs))
            .filter(lambda p: not p.is_zero))
    return ring, draw(poly), draw(poly)


@settings(max_examples=300, deadline=None)
@given(spoly_pairs(), st.none() | st.integers(1, 12))
# The lcm (2, 1) reaches the cap, so both sides vanish.
@example((RING, X ** 2 + X ** 3, X * Y - Y ** 3), 3)
# Each shifted side has terms of lengths 3, 4 and 5; only those of length 3
# stay.
@example((RING, X + X * Y + Y ** 3 + X ** 4, Y + X ** 2 + X * Y ** 2 + Y ** 4), 4)
def test_capped_spoly_is_the_spoly_without_its_deep_terms(pair, cap):
    ring, f, g = pair
    a, b = f.initial_exponent(), g.initial_exponent()
    lcm = exp_lcm(a, b)
    full = (f * ring.monomial(exp_sub(lcm, a))).scaled(1 / f.initial_coefficient()) \
        - (g * ring.monomial(exp_sub(lcm, b))).scaled(1 / g.initial_coefficient())
    length = ring.order.length
    kept = tuple(t for t in full.terms if cap is None or length(t[0]) < cap)
    assert _spoly(f, g, cap) == Poly.from_terms(ring, kept)
    assert is_canonical(_spoly(f, g, cap))
    if cap is not None and length(lcm) >= cap:
        assert _spoly(f, g, cap).is_zero
    # A capped remainder keeps no term at or beyond the cap.
    if cap is not None:
        remainder, _ = mora_normal_form(f, [g], length_cap=cap)
        assert all(length(e) < cap for e, _ in remainder.terms)
