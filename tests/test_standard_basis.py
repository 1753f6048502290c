"""Mora division and the completion loop behind exact staircases."""

import importlib
import importlib.util
import os
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from staircase import (
    CoordChange,
    MoraStep,
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
from staircase.diagram import Diagram, covering_length
from staircase.standard_basis import _spoly, _unit_free
from helpers import (
    diagram_answers, is_canonical, random_exponent, random_ideal, random_poly,
    random_ring, random_tail, vanishing_poly,
)

RING = Ring(("x", "y"))
X = RING.variable("x")
Y = RING.variable("y")
RING3 = Ring(("x", "y", "z"))
X3, Y3, Z3 = (RING3.variable(v) for v in "xyz")
RING212 = Ring(("x", "y", "z"), order=Order((2, 1, 2)))
X212, Y212, Z212 = (RING212.variable(v) for v in "xyz")
RING221 = Ring(("x", "y", "z"), order=Order((2, 2, 1)))
X221, Y221, Z221 = (RING221.variable(v) for v in "xyz")


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


def test_mora_trace_builds_its_steps_on_first_read():
    # The pinned examples above, with their steps written out: the trace
    # Mora returns equals, hashes and prints as one built from these steps.
    one = Fraction(1)
    for f, reducers, steps, pooled_at, unit in [
            (X ** 2, [X - X ** 2],
             [("r0", (1, 0), one), ("p0", (1, 0), one)], (0,), 1 - X),
            (X, [X - X ** 2],
             [("r0", (0, 0), one), ("p0", (1, 0), one)], (0,), 1 - X),
            (-X * Y - X ** 2 * Y, [-1 - 4 * X ** 2],
             [("r0", (1, 1), one), ("p0", (1, 0), one),
              ("p0", (2, 0), Fraction(-5)), ("p1", (1, 0), -one)],
             (0, 2), 1 + 4 * X ** 2)]:
        _, trace = mora_normal_form(f, reducers)
        assert "steps" not in vars(trace)
        pinned = MoraTrace(RING, tuple(MoraStep(*s) for s in steps),
                           pooled_at)
        assert trace == pinned and hash(trace) == hash(pinned)
        assert "steps" in vars(trace)
        assert trace.steps == pinned.steps
        assert all(type(s.shift) is tuple and type(s.coeff) is Fraction
                   for s in trace.steps)
        assert trace.unit == pinned.unit == unit
        assert repr(trace) == repr(pinned)
        # Built, it stays an immutable value.
        with pytest.raises(AttributeError):
            trace.steps = ()
        assert trace == pinned and hash(trace) == hash(pinned)


def test_mora_picks_the_least_ecart_then_initial_key_then_earliest():
    # The first step's reducer: equal candidates go to the earliest, equal
    # ecarts to the smaller initial key (y comes before x), and a smaller
    # ecart wins over a smaller initial key.
    for f, reducers, first in [
            (X, [X + X ** 2, X + 2 * X ** 2], "r0"),
            (X * Y, [X + X ** 2, Y + Y ** 2], "r1"),
            (X * Y, [X + X ** 3, Y + Y ** 2], "r1")]:
        _, trace = mora_normal_form(f, reducers)
        assert trace.steps[0].reducer == first


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
    fields = [(list(p.keys), list(p.ints), p.scale)
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
    assert [(p.keys, p.ints, p.scale)
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


def test_shifts_whose_entries_fit_are_not_refused():
    # A reducer's bound plus a shift's largest entry reaches FIELD_LIMIT
    # here, but the two peak in different variables, so no exponent entry
    # of any step passes n = 2^30.
    n = FIELD_LIMIT // 2
    f, reducers = X * Y ** n, [X + X ** n]
    remainder, trace = mora_normal_form(f, reducers)
    assert remainder.is_zero
    assert [(s.reducer, s.shift) for s in trace.steps] == [
        ("r0", (0, n)), ("p0", (n - 1, 0))]
    assert _replay(f, reducers, trace, None) == remainder.terms
    # The s-polynomial of x + x^n and g = y^n + x*y^n shifts the first by
    # y^n: it is y^n*(x + x^n) less one step by x*g, replayed on dicts.
    g = Y ** n + X * Y ** n
    one_step = MoraTrace(RING, (MoraStep("r0", (1, 0), Fraction(1)),), ())
    lcm = RING.order.pack(exp_lcm(reducers[0].initial_exponent(),
                                  g.initial_exponent()))
    for cap in (None, 2 * n + 1, 2 * n):  # the last cuts x^n*y^n
        assert _spoly(reducers[0], g, lcm, cap).terms == _replay(
            Y ** n * reducers[0], [g], one_step, cap)


RING31 = Ring(("x", "y"), order=Order((3, 1)))
Y31 = RING31.variable("y")


def _shifted_sub(h: dict, c, shift, g: Poly) -> dict:
    """h - c*x^shift*g on exponent dicts, zero coefficients dropped."""
    out = dict(h)
    for e, v in g.terms:
        e = exp_add(e, shift)
        out[e] = out.get(e, 0) - c * v
        if not out[e]:
            del out[e]
    return out


def test_the_field_refusal_is_exact_under_weighted_orders():
    # Under weights (3,1), x^a*y^b has length 3a + b. A product, a Mora step
    # and an s-polynomial each make x^(3n), longer than FIELD_LIMIT with an
    # entry that fits: the check unpacks it, refuses nothing, and the result
    # is that of the same arithmetic on dicts.
    n = FIELD_LIMIT // 8

    def x(e):
        return RING31.monomial((e, 0))

    assert RING31.order.length((3 * n, 0)) > FIELD_LIMIT
    p, q = x(2 * n) + 2 * Y31, x(n) - 3 * Y31 ** 3
    product: dict = {}
    for e, c in p.terms:
        product = _shifted_sub(product, -c, e, q)
    assert dict((p * q).terms) == product
    g = Y31 + 5 * x(n)
    f = RING31.monomial((2 * n, 1))
    remainder, trace = mora_normal_form(f, [g])
    assert trace.steps == (MoraStep("r0", (2 * n, 0), Fraction(1)),)
    assert dict(remainder.terms) == _shifted_sub(dict(f.terms), 1,
                                                 (2 * n, 0), g)
    h = 2 * x(2 * n) - RING31.monomial((2 * n, 1))
    lcm = RING31.order.pack((2 * n, 1))
    assert dict(_spoly(g, h, lcm, None).terms) == _shifted_sub(
        _shifted_sub({}, -1, (2 * n, 0), g), Fraction(1, 2), (0, 1), h)
    # Here y^(2m) reaches FIELD_LIMIT, while the longest term, a shift of
    # x^(m-1), fits: each of the three refuses, naming the entry.
    m = FIELD_LIMIT // 2
    wide = Y31 + x(m - 1) + RING31.monomial((0, m))
    tall = RING31.monomial((0, m + 1))
    refused = f"exponent {FIELD_LIMIT} does not fit"
    with pytest.raises(ValueError, match=refused):
        wide * wide
    with pytest.raises(ValueError, match=refused):
        mora_normal_form(tall, [wide])
    with pytest.raises(ValueError, match=refused):
        _spoly(wide, tall, RING31.order.pack((0, m + 1)), None)


def test_standard_basis_calls_mora_once_per_reduced_spair(monkeypatch):
    # perfbench counts Mora calls by wrapping the module's name, so the
    # completion must reach Mora through it for every s-pair it reduces:
    # all but the coprime and chain skips and the s-polynomials that vanish.
    # Each record's step count is that of its Mora call's trace.
    module = importlib.import_module("staircase.standard_basis")
    original = module.mora_normal_form
    calls = []

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(len(result[1].steps))
        return result

    monkeypatch.setattr(module, "mora_normal_form", counting)
    rng = random.Random(210)
    ideals = [random_ideal(rng, random_ring(rng), max_degree=4)
              for _ in range(40)]
    # Its two added elements are remainders of two steps and of one.
    ideals.append([X ** 3 + X * Y ** 2 + Y ** 4, X ** 2 * Y + Y ** 3 + X ** 4])
    total = chain = added_steps = 0
    for gens in ideals:
        calls.clear()
        sb = standard_basis(gens)
        reduced = [r for r in sb.trace
                   if not r.skipped_coprime and not r.skipped_chain
                   and not (r.steps == 0 and r.reduced_to_zero)]
        assert calls == [r.steps for r in reduced]
        total += len(calls)
        chain += sum(r.skipped_chain for r in sb.trace)
        added_steps += sum(r.steps for r in reduced if not r.reduced_to_zero)
    assert total and chain and added_steps


def test_the_completion_keeps_the_covering_length_of_its_staircase(
        monkeypatch):
    # The completion walks its complement once and then only shrinks it as
    # elements enter. Every cap it hands Mora must still be the covering
    # length of the reducers' initial exponents computed from scratch, or
    # the caller's cap where that is lower, and every diagram it returns
    # must answer as the same diagram built afresh. The inputs are the
    # benchmark's Milnor germs, their budget breaches and capped rounds
    # included.
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    module = importlib.import_module("staircase.standard_basis")
    complete, mora = module._complete, module.mora_normal_form
    outer: list = []  # the length_cap of each completion running
    diagrams = []
    checked = 0

    def completing(gens, ring, length_cap):
        outer.append(length_cap)
        try:
            sb = complete(gens, ring, length_cap)
        finally:
            outer.pop()
        diagrams.append((sb.diagram, ring.order, length_cap))
        return sb

    def reducing(f, reducers, *, length_cap=None):
        nonlocal checked
        fresh = covering_length([g.initial_exponent() for g in reducers],
                                f.ring.order)
        assert length_cap == min((c for c in (fresh, outer[-1])
                                  if c is not None), default=None)
        checked += 1
        return mora(f, reducers, length_cap=length_cap)

    monkeypatch.setattr(module, "_complete", completing)
    monkeypatch.setattr(module, "mora_normal_form", reducing)
    for seed in (1, 7):
        for label, run, check in workloads.milnor_germs(seed):
            assert check(run()) is None, label
    finite = 0
    for d, order, _ in diagrams:
        fresh = Diagram(d.arity, d.vertices)
        assert diagram_answers(d, order) == diagram_answers(fresh, order)
        assert (d._outside is None) == (fresh.power_of_maximal() is None)
        finite += d._outside is not None
    assert checked > 1000 and finite >= 226  # one per germ at least
    assert any(cap is not None for _, _, cap in diagrams)


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


def _skips(sb):
    """(pairs formed, chain skips, coprime skips) of a completion."""
    return (len(sb.trace), sum(r.skipped_chain for r in sb.trace),
            sum(r.skipped_coprime for r in sb.trace))


# Initial terms x^2*z, y*z, x*y: see the first case below.
CHAIN_KEEPS_QUEUED = [X3 ** 2 * Z3 - 2 * X3 * Y3 ** 2 * Z3,
                      Y3 * Z3 + X3 ** 2 * Y3 - Y3 ** 4,
                      X3 * Y3 + 2 * Y3 ** 3 + X3 * Y3 * Z3]


def test_pair_criteria_pinned_examples():
    # When x*y enters, the queued pair (x^2*z, y*z) has the lcm x^2*y*z,
    # which x*y divides; lcm(x^2*z, x*y) equals it, so the pair stays. The
    # new pair (x^2*z, x*y) is dropped, since lcm(y*z, x*y) = x*y*z
    # properly divides its lcm. Dropping the queued pair too loses y^8.
    sb = standard_basis(CHAIN_KEEPS_QUEUED)
    assert sb.diagram.vertices == ((0, 1, 1), (1, 1, 0), (2, 0, 1), (0, 8, 0))
    assert _skips(sb) == (6, 1, 1)
    assert sb.diagram == truncated_diagram(CHAIN_KEEPS_QUEUED, 12)
    # Initial terms x*y, x*z, y*z: every pair has the lcm x*y*z. When y*z
    # enters, the queued pair (x*y, x*z) stays, and of the two new pairs of
    # equal lcm one is kept. Dropping both, as if equal lcms divided each
    # other properly, loses x^4.
    gens = [X3 * Y3, X3 * Z3 - X3 * Y3 * Z3 - X3 * Y3 ** 3, Y3 * Z3 + X3 ** 3]
    sb = standard_basis(gens)
    assert sb.diagram.vertices == ((0, 1, 1), (1, 0, 1), (1, 1, 0), (4, 0, 0))
    assert _skips(sb) == (6, 1, 1)
    assert sb.diagram == truncated_diagram(gens, 12)


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


def test_every_spair_of_a_capped_weighted_basis_reduces_to_zero():
    # The same check under weights and a length cap B, modulo the monomials
    # of length >= B; the pairs the criteria dropped are checked too.
    rng = random.Random(206)
    chain = 0
    for _ in range(40):
        ring = random_ring(rng, max_weight=3)
        gens = random_ideal(rng, ring, max_gens=4, max_degree=4)
        cap = rng.randint(2, 10)
        sb = standard_basis(gens, length_cap=cap)
        chain += sum(r.skipped_chain for r in sb.trace)
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
                remainder, _ = mora_normal_form(s, list(basis),
                                                length_cap=cap)
                assert remainder.is_zero
    assert chain


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


def test_pool_ceiling_env_and_default(monkeypatch):
    gens = [Y - X ** 2, Y ** 3]
    monkeypatch.delenv("STAIRCASE_POOL_CEILING", raising=False)
    assert standard_basis(gens).diagram.vertices == ((0, 1), (6, 0))
    monkeypatch.setenv("STAIRCASE_POOL_CEILING", "0")
    with pytest.raises(PoolLimitExceeded):
        standard_basis(gens)
    monkeypatch.setenv("STAIRCASE_POOL_CEILING", "50")
    assert standard_basis(gens).diagram.vertices == ((0, 1), (6, 0))
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
    # Seeded generators, half of them x^d times a unit, under random
    # weights, against the definition on unpacked exponents.
    rng = random.Random(541)
    kinds = set()
    for _ in range(300):
        ring = random_ring(rng, max_weight=3)
        f = random_poly(rng, ring, zero_ok=True)
        if rng.random() < 0.5:
            unit = ring.constant(rng.choice((-2, 1, 3))) + random_tail(
                rng, ring, 1, 3)
            f = ring.monomial(random_exponent(rng, ring.arity, 4)) * unit
        expected = f
        if not f.is_zero:
            d = f.initial_exponent()
            if tuple(map(min, zip(*ring.order.unpack_all(f.keys)))) == d:
                expected = ring.monomial(d)
        got = _unit_free(f)
        assert got == expected and is_canonical(got)
        kinds.add((f.is_zero, got == f, len(f.keys) > 1))
    assert {(False, False, True), (False, True, True)} <= kinds


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


def test_work_budget_measures_the_reduced_initial_coefficient(monkeypatch):
    # The largest intermediate result comes at the fifth step: two terms
    # with initial coefficient -48/3 = -16, of size 2 * (5 + 1) = 12 bits.
    # Unreduced it would measure 2 * (6 + 2) = 16 and breach a budget of 12.
    f, reducers = X * Y + 2 * X * Y ** 2, [Y - Fraction(1, 3) * X * Y ** 3]
    monkeypatch.setenv("STAIRCASE_WORK_BUDGET", "12")
    remainder, trace = mora_normal_form(f, reducers)
    assert remainder.is_zero and len(trace.steps) == 6
    assert trace.unit == 1 - Fraction(1, 3) * X * Y ** 2
    monkeypatch.setenv("STAIRCASE_WORK_BUDGET", "11")
    with pytest.raises(WorkBudgetExceeded):
        mora_normal_form(f, reducers)


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
def oracle_ideals(draw):
    """Two to four generators without constant term in two or three
    variables, under unit weights or weights in 1..3, and a window bound."""
    arity = draw(st.integers(2, 3))
    weights = draw(st.just((1,) * arity)
                   | st.tuples(*[st.integers(1, 3)] * arity))
    ring = Ring(tuple("xyz")[:arity], order=Order(weights))
    exponent = st.tuples(*[st.integers(0, 3)] * arity).filter(any)
    coeff = st.integers(-3, 3).filter(bool)
    gens = draw(st.lists(
        st.lists(st.tuples(exponent, coeff), min_size=1, max_size=3)
        .map(lambda pairs: Poly.from_terms(ring, pairs)), min_size=2, max_size=4))
    return ring, gens, draw(st.integers(1, 8))


@settings(max_examples=100, deadline=None)
@given(oracle_ideals())
@example((RING3, CHAIN_KEEPS_QUEUED, 9))
# The y-axis stays outside the staircase, so the uncapped completion ends
# in the resource error.
@example((RING221, [Z221 + X221 + Y221 * Z221, Z221 ** 2 + Y221 ** 3 * Z221,
                    Z221 ** 2 + X221 ** 2], 1))
def test_completions_under_the_pair_criteria_match_the_oracle(ideal):
    ring, gens, bound = ideal
    window = truncated_diagram(gens, bound, ring=ring)
    assert standard_basis(gens, ring=ring, length_cap=bound).diagram == window
    try:
        exact = standard_basis(gens, ring=ring).diagram
    except WorkBudgetExceeded:
        # An infinite complement past the work budget ends in the named
        # resource error, as in test_work_budget_env_and_uncertified_ideals.
        return
    for e in exponents_below(ring.order, bound):
        assert exact.contains(e) == window.contains(e), e


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
    packed = ring.order.pack(lcm)
    full = (f * ring.monomial(exp_sub(lcm, a))).scaled(1 / f.initial_coefficient()) \
        - (g * ring.monomial(exp_sub(lcm, b))).scaled(1 / g.initial_coefficient())
    length = ring.order.length
    kept = tuple(t for t in full.terms if cap is None or length(t[0]) < cap)
    assert _spoly(f, g, packed, cap) == Poly.from_terms(ring, kept)
    assert is_canonical(_spoly(f, g, packed, cap))
    if cap is not None and length(lcm) >= cap:
        assert _spoly(f, g, packed, cap).is_zero
    # A capped remainder keeps no term at or beyond the cap.
    if cap is not None:
        remainder, _ = mora_normal_form(f, [g], length_cap=cap)
        assert all(length(e) < cap for e, _ in remainder.terms)
