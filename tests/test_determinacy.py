"""Verdicts, fibre computations, jet bounds, sweeps, and perturbation runs."""

import random

import pytest

from staircase import (
    Diagram,
    MapSpec,
    NoCertifiedBound,
    Order,
    PoolLimitExceeded,
    Ring,
    SourceNotCompleteIntersection,
    Verdict,
    VerdictKind,
    determinacy_bound,
    diagram_determinacy_check,
    diagram_of_ideal,
    dimension_semicontinuity_probe,
    exp_divides,
    exponents_upto,
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
    truncated_diagram,
    truncated_series_generators,
)
from helpers import (
    random_exponent,
    random_ideal,
    random_ring,
    random_tail,
    vanishing_poly,
)

RING = Ring(("x", "y"))
X = RING.variable("x")
Y = RING.variable("y")


def test_verdict_helpers():
    yes = Verdict.yes({"a": 1})
    no = Verdict.no({})
    unknown = Verdict.unknown(12, {"trials": 8})
    assert yes.is_yes and not yes.is_no and not yes.is_unknown
    assert no.is_no and unknown.is_unknown
    assert yes.to_dict() == {"kind": "certified-yes", "certificate": {"a": 1}}
    assert unknown.to_dict() == {
        "kind": "unknown-at-bound",
        "certificate": {"trials": 8},
        "bound": 12,
    }
    assert VerdictKind("certified-no") is VerdictKind.CERTIFIED_NO


def test_map_spec_validation():
    with pytest.raises(ValueError):
        MapSpec(RING, (), ())
    with pytest.raises(ValueError):
        MapSpec(RING, (), (X + RING.constant(1),))
    with pytest.raises(ValueError):
        MapSpec(RING, (X * Y + RING.constant(2),), (X,))
    other = Ring(("u", "v"))
    with pytest.raises(ValueError):
        MapSpec(RING, (), (other.variable("u"),))
    m = MapSpec(RING, (X * Y,), (X + Y,))
    assert m.source_codim == 1
    assert m.target_dim == 1


def test_jet_ideal_pinned():
    assert jet_ideal([X ** 3], 2) == []
    f1, f2 = truncated_series_generators(depth=20)
    assert jet_ideal([f1, f2], 5) == [
        X ** 3 * Y + X * Y ** 4,
        X ** 2 * Y ** 3,
    ]
    assert jet_ideal([f1, f2], 50) == [f1, f2]


def test_regular_sequence_pinned():
    yes = regular_sequence([X ** 2 + Y ** 3, X * Y])
    assert yes.is_yes
    assert yes.certificate["quotient_dimension"] == 0
    assert yes.certificate["expected_dimension"] == 0

    no = regular_sequence([X * Y, X])
    assert no.is_no
    assert no.certificate["quotient_dimension"] == 1

    unit = regular_sequence([RING.constant(1) + X])
    assert unit.is_no
    assert unit.certificate["reason"] == "unit ideal"

    oversized = regular_sequence([X, Y, X * Y])
    assert oversized.is_no
    assert oversized.certificate["reason"] == (
        "more generators than the ambient dimension")

    assert regular_sequence([], ring=RING).is_yes
    assert regular_sequence([X, Y]).is_yes
    assert regular_sequence([RING.zero(), X]).is_no


def test_axis_certificate_pinned():
    yes = regseq_axis_certificate([X ** 2 + Y ** 3, X * Y], bound=8)
    assert yes.is_yes
    assert yes.certificate["axis_vertices"] == [[2, 0], [0, 4]]
    assert yes.certificate["trial"] == 0
    assert yes.certificate["matrix"] == [[1, 0], [0, 1]]

    unknown = regseq_axis_certificate([X * Y, X])
    assert unknown.is_unknown
    assert unknown.bound == 12
    assert unknown.certificate["trials"] == 8

    line = Ring(("x",))
    single = regseq_axis_certificate([line.variable("x")])
    assert single.is_yes
    assert single.certificate["axis_vertices"] == [[1]]

    assert regseq_axis_certificate([], ring=RING).is_yes
    assert regseq_axis_certificate([RING.zero(), X]).is_unknown
    assert regseq_axis_certificate([X, Y, X * Y]).is_unknown
    with pytest.raises(ValueError):
        regseq_axis_certificate([X], trials=0)
    with pytest.raises(ValueError):
        regseq_axis_certificate([X], bound=0)


def test_axis_certificate_implies_exact_regularity():
    rng = random.Random(401)
    for _ in range(25):
        ring = random_ring(rng)
        count = rng.randint(1, ring.arity)
        gens = []
        for i in range(count):
            v = ring.variable(ring.variables[i])
            gens.append(v ** rng.randint(1, 3) + random_tail(rng, ring, 4, 6))
        axis = regseq_axis_certificate(gens, trials=4, seed=17)
        if axis.is_yes:
            assert regular_sequence(gens).is_yes


def test_random_coord_change_is_seeded():
    a = random_coord_change(RING, random.Random(7))
    b = random_coord_change(RING, random.Random(7))
    assert a.matrix == b.matrix


def test_fibre_ideal_pinned():
    plain = MapSpec(RING, (), (X ** 2 + Y ** 3, X * Y))
    assert fibre_ideal(plain) == [X ** 2 + Y ** 3, X * Y]
    mixed = MapSpec(RING, (X * Y,), (X,))
    assert fibre_ideal(mixed) == [X * Y, X]
    relations_only = MapSpec(RING, (X * Y,), ())
    assert fibre_ideal(relations_only) == [X * Y]
    zero_relation = MapSpec(RING, (X * Y, RING.zero()), ())
    assert fibre_ideal(zero_relation) == [X * Y]


def test_flat_ci_pinned():
    assert flat_ci(MapSpec(RING, (), (X ** 2 + Y ** 3, X * Y))).is_yes

    bad = flat_ci(MapSpec(RING, (X * Y,), (X,)))
    assert bad.is_no
    assert bad.certificate["fibre_dimension"] == 1
    assert bad.certificate["expected_fibre_dimension"] == 0

    good = flat_ci(MapSpec(RING, (X * Y,), (X + Y,)))
    assert good.is_yes

    with pytest.raises(SourceNotCompleteIntersection):
        flat_ci(MapSpec(RING, (X ** 2, X * Y), (X,)))

    line = Ring(("x",))
    x = line.variable("x")
    squeezed = flat_ci(MapSpec(line, (), (x, x ** 2)))
    assert squeezed.is_no
    assert squeezed.certificate["expected_fibre_dimension"] == -1


def test_flat_ci_matches_regularity_over_smooth_source():
    rng = random.Random(402)
    for _ in range(25):
        ring = random_ring(rng)
        count = rng.randint(1, ring.arity)
        gens = [vanishing_poly(rng, ring) for _ in range(count)]
        germ = MapSpec(ring, (), tuple(gens))
        assert flat_ci(germ).is_yes == regular_sequence(gens, ring=ring).is_yes


def test_milnor_pinned():
    line = Ring(("x",))
    x = line.variable("x")
    assert milnor_mu0(MapSpec(line, (), (x ** 2,))) == 2
    assert milnor_mu0(MapSpec(RING, (), (X ** 2 + Y ** 3, X * Y))) == 5
    assert milnor_mu0(MapSpec(RING, (X * Y,), (X,))) is None


def test_determinacy_bound_pinned():
    line = Ring(("x",))
    x = line.variable("x")
    assert determinacy_bound(MapSpec(line, (), (x ** 2,))) == (2, "full")
    assert determinacy_bound(
        MapSpec(RING, (), (X ** 2 + Y ** 3, X * Y))) == (5, "full")
    assert determinacy_bound(MapSpec(RING, (), (X,))) == (1, "forward-only")
    with pytest.raises(NoCertifiedBound):
        determinacy_bound(MapSpec(RING, (X * Y,), (X,)))
    with pytest.raises(NoCertifiedBound):
        determinacy_bound(MapSpec(RING, (), (X * Y,)), trials=1)


def test_jet_flatness_equivalence_pinned():
    germ = MapSpec(RING, (), (X ** 2 + Y ** 3 + X ** 9, X * Y))
    report = jet_flatness_equivalence(germ, range(2, 7))
    assert report.baseline.is_yes
    kinds = [(row.mu, row.fixed_source.kind) for row in report.rows]
    assert kinds == [
        (2, VerdictKind.CERTIFIED_NO),
        (3, VerdictKind.CERTIFIED_YES),
        (4, VerdictKind.CERTIFIED_YES),
        (5, VerdictKind.CERTIFIED_YES),
        (6, VerdictKind.CERTIFIED_YES),
    ]
    for row in report.rows:
        assert row.truncated_source is not None
        assert row.truncated_source.kind == row.fixed_source.kind
        assert row.truncated_source_note is None


def test_jet_flatness_never_flat():
    report = jet_flatness_equivalence(MapSpec(RING, (X * Y,), (X,)), range(2, 5))
    assert report.baseline.is_no
    assert all(row.fixed_source.is_no for row in report.rows)


def test_jet_flatness_truncated_source_note():
    germ = MapSpec(RING, (X * Y,), (X + Y,))
    report = jet_flatness_equivalence(germ, range(1, 3))
    first, second = report.rows
    assert first.mu == 1
    assert first.fixed_source.is_yes
    assert first.truncated_source is None
    assert first.truncated_source_note
    assert second.truncated_source is not None
    assert second.truncated_source.is_yes


def test_diagram_determinacy_check_pinned():
    germ = MapSpec(RING, (), (X ** 2 + Y ** 3, X * Y))
    psi = (X ** 2 + Y ** 3 + Y ** 9, X * Y + X ** 8)
    assert diagram_determinacy_check(germ, psi)
    assert diagram_determinacy_check(germ, germ.components)
    with pytest.raises(ValueError):
        diagram_determinacy_check(germ, (X ** 2 + Y ** 3,))
    with pytest.raises(ValueError):
        diagram_determinacy_check(germ, (X ** 2 + Y ** 3 + Y ** 4, X * Y))
    with pytest.raises(ValueError):
        diagram_determinacy_check(MapSpec(RING, (X * Y,), (X,)), (X,))


def test_jet_sweep_stabilizes_on_monomial_pair():
    report = jet_sweep([X ** 2, Y ** 2], 1, 4)
    assert report.stabilized_at == 2
    assert report.summary == "observed stabilization at mu=2 within the range"
    assert report.base_vertices == ((0, 2), (2, 0))
    for row in report.rows:
        assert row.equal == (row.mu >= 2)
        assert row.vertices == row.window_vertices


def test_jet_sweep_principal_ideal_stabilizes_at_initial_length():
    report = jet_sweep([X ** 3 + Y ** 5], 1, 6)
    assert report.stabilized_at == 3
    assert [row.equal for row in report.rows] == [
        False, False, True, True, True, True]


def test_jet_sweep_family_not_stabilized():
    gens = list(truncated_series_generators(depth=20))
    report = jet_sweep(gens, 5, 8, length_bound=12)
    assert report.stabilized_at is None
    assert report.summary == "not stabilized in range"
    # Truncating the series at depth 20 leaves genuine deep vertices: the
    # generators factor as x*y*P and y^3*Q with P - Q = y^18, so x*y^21 and
    # then y^24 head actual elements of the truncated ideal.
    assert report.base_vertices == ((3, 1), (2, 3), (1, 21), (0, 24))
    assert report.base_dimension == 1
    first = report.rows[0]
    assert first.mu == 5
    assert (1, 6) in first.new_on_window
    assert not first.equal
    assert first.contains_base


def test_jet_sweep_validation_and_defaults():
    with pytest.raises(ValueError):
        jet_sweep([X], 3, 2)
    with pytest.raises(ValueError, match="length bound"):
        jet_sweep([X], 2, 4, length_bound=-1)
    assert jet_sweep([X], 2, 4).length_bound == 7
    assert jet_sweep([X], 2, 4, length_bound=0).rows[0].hilbert == (1,)


def test_jet_sweep_rows_match_diagram_queries_under_weights():
    rng = random.Random(411)
    cases = []
    for case in range(120):
        arity = rng.randint(1, 3 if case % 2 else 2)
        weights = tuple(rng.randint(1, 2) for _ in range(arity))
        ring = Ring(tuple("xyz")[:arity], order=Order(weights))
        if case % 2:
            gens = [vanishing_poly(rng, ring) for _ in range(rng.randint(1, 3))]
        else:
            # m1*p and m2*(p + deep tail): truncating the jets breaks the deep
            # cancellation, so jet staircases can gain points over the base.
            p = vanishing_poly(rng, ring, max_degree=3)
            m1, m2 = (ring.monomial(random_exponent(rng, arity, k)) for k in (2, 3))
            gens = [m1 * p, m2 * (p + random_tail(rng, ring, 3, 5))]
        cases.append((ring, gens, 1, rng.randint(2, 5)))
    # The series family on (x, y) and again on (z, w): each copy gains a
    # point at every mu, so one row gains several vertices at once, such as
    # (0,0,1,6) and (1,6,0,0) at mu=5.
    ring = Ring(("x", "y", "z", "w"))
    gens = []
    for a, b in (("x", "y"), ("z", "w")):
        a, b = ring.variable(a), ring.variable(b)
        f1 = a ** 3 * b + sum((a * b ** k for k in range(4, 12)), ring.zero())
        f2 = a ** 2 * b ** 3 + sum((b ** k for k in range(6, 13)), ring.zero())
        gens += [f1, f2]
    cases.append((ring, gens, 5, 7))
    gained_rows = lost_rows = multi_vertex_rows = 0
    for ring, gens, mu_min, mu_max in cases:
        arity = ring.arity
        report = jet_sweep(gens, mu_min, mu_max, ring=ring)
        bound = report.length_bound
        base = diagram_of_ideal(gens, ring=ring)
        # The oracle window reaches every exponent of total degree <= bound.
        top = bound * max(ring.order.weights) + 1
        for row in report.rows:
            exact = Diagram(arity, row.vertices)
            window = truncated_diagram(jet_ideal(gens, row.mu), top, ring=ring)
            assert row.window_vertices == tuple(
                v for v in window.vertices if sum(v) <= bound)
            # Brute force over the points, apart from the vertex rule.
            walk = [(exact.contains(e), base.contains(e))
                    for e in exponents_upto(arity, bound)]
            assert row.equal_upto_bound == all(a == b for a, b in walk)
            assert row.contains_base == all(a or not b for a, b in walk)
            gained = [e for e in exponents_upto(arity, bound)
                      if exact.contains(e) and not base.contains(e)]
            assert set(row.new_on_window) == {
                g for g in gained
                if not any(h != g and exp_divides(h, g) for h in gained)}
            gained_rows += bool(gained)
            lost_rows += not row.contains_base
            multi_vertex_rows += len(row.new_on_window) >= 2
    assert gained_rows and lost_rows
    assert multi_vertex_rows


def test_pool_ceiling_environment_reaches_the_determinacy_layer(monkeypatch):
    gens = (Y - X ** 2, Y ** 3)
    germ = MapSpec(RING, (), gens)
    monkeypatch.setenv("STAIRCASE_POOL_CEILING", "0")
    with pytest.raises(PoolLimitExceeded):
        regular_sequence(gens)
    with pytest.raises(PoolLimitExceeded):
        flat_ci(germ)
    with pytest.raises(PoolLimitExceeded):
        milnor_mu0(germ)
    monkeypatch.delenv("STAIRCASE_POOL_CEILING")
    assert regular_sequence(gens).is_yes
    assert flat_ci(germ).is_yes
    assert milnor_mu0(germ) == 6


def test_jet_staircases_contain_base_beyond_vertex_lengths():
    rng = random.Random(403)
    for _ in range(20):
        ring = random_ring(rng)
        gens = random_ideal(rng, ring)
        base = diagram_of_ideal(gens)
        bound = base.max_vertex_length()
        for mu in (bound, bound + 2):
            jet_diag = diagram_of_ideal(jet_ideal(gens, mu), ring=ring)
            assert all(jet_diag.contains(v) for v in base.vertices)
            assert jet_diag.equal_upto(base, mu)


def test_dimension_probe_pinned():
    report = dimension_semicontinuity_probe(
        [X ** 2 + Y ** 3, X * Y], range(2, 6))
    assert report.dimension == 0
    assert report.lower_bound == 0
    assert [(row.mu, row.dimension) for row in report.rows] == [
        (2, 1), (3, 0), (4, 0), (5, 0)]
    assert report.first_match == 3
    assert report.all_lower_ok


def test_dimension_probe_lower_bound_property():
    rng = random.Random(404)
    for _ in range(20):
        ring = random_ring(rng)
        count = rng.randint(1, ring.arity)
        gens = [vanishing_poly(rng, ring) for _ in range(count)]
        report = dimension_semicontinuity_probe(gens, range(1, 5), ring=ring)
        assert report.all_lower_ok
        assert report.dimension >= report.lower_bound


def test_perturbation_test_regular_family_is_stable():
    report = perturbation_test([X ** 2 + Y ** 3, X * Y], 5)
    assert report.baseline is VerdictKind.CERTIFIED_YES
    assert report.violations == ()
    assert len(report.samples) == 20

    coords = perturbation_test([X, Y], 1, samples=10, seed=3)
    assert coords.baseline is VerdictKind.CERTIFIED_YES
    assert coords.violations == ()


def test_perturbation_test_flat_ci_variant():
    report = perturbation_test(
        [X ** 2 + Y ** 3, X * Y], 5, samples=10, property_name="flat_ci")
    assert report.property_name == "flat_ci"
    assert report.baseline is VerdictKind.CERTIFIED_YES
    assert report.violations == ()


def test_perturbation_test_reports_changes_consistently():
    report = perturbation_test([X * Y, X], 3, samples=10)
    assert report.baseline is VerdictKind.CERTIFIED_NO
    expected = tuple(s.index for s in report.samples if s.violation)
    assert report.violations == expected
    for sample in report.samples:
        assert sample.violation == (sample.kind != report.baseline)


def test_perturbation_test_validation():
    with pytest.raises(ValueError):
        perturbation_test([X], 2, property_name="nope")
