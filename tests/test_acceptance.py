"""Acceptance runs: one printed PASS or FAIL line per criterion.

Each test announces its outcome on the real stdout even under capture, so a
plain pytest run of this module reads as a ten-line checklist. Failures
still fail the test; the line is informational.
"""

import random
from contextlib import contextmanager

import pytest

from staircase import (
    MapSpec,
    SourceNotCompleteIntersection,
    demo_ring,
    determinant,
    diagram_determinacy_check,
    diagram_of_ideal,
    exp_add,
    fibre_ideal,
    flat_ci,
    jet_ideal,
    jet_sweep,
    milnor_mu0,
    oracle_cross_check,
    presentation_rows,
    regseq_axis_certificate,
    regular_sequence,
    truncated_diagram,
    truncated_quotient_dim,
    truncated_series_generators,
    unit_cleared_generators,
)
from helpers import (
    random_exponent,
    random_ideal,
    random_poly,
    random_ring,
    random_tail,
    random_zero_dim_ideal,
    vanishing_poly,
)

RING = demo_ring()
X = RING.variable("x")
Y = RING.variable("y")


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _announce(number: int, description: str):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                status = "PASS" if ok else "FAIL"
                print(f"acceptance {number:02d}: {status}  {description}")

    return _announce


def test_criterion_01_new_vertex_in_every_jet_staircase(announce):
    with announce(1, "jet staircases of the series family gain (1, mu+1) "
                     "for mu in 5..10, confirmed by both engines"):
        gens = truncated_series_generators(depth=20)
        for mu in range(5, 11):
            jets = jet_ideal(gens, mu)
            exact = diagram_of_ideal(jets)
            window = truncated_diagram(jets, mu + 3)
            assert exact.contains((1, mu + 1))
            assert window.contains((1, mu + 1))


def test_criterion_02_unit_clearing_and_jet_agreement(announce):
    with announce(2, "unit clearing matches to depth 20, the full staircase "
                     "has no (1, k), and jet staircases agree only up to mu"):
        f1, f2 = truncated_series_generators(depth=20)
        g1, g2 = unit_cleared_generators()
        unit = RING.constant(1) - Y
        assert (unit * f1).jet(20) == g1
        assert (unit * f2).jet(20) == g2
        base = diagram_of_ideal([g1, g2])
        assert base.vertices == ((3, 1), (2, 3))
        assert all(not base.contains((1, k)) for k in range(51))
        for mu in range(5, 11):
            jet_diag = diagram_of_ideal(jet_ideal([f1, f2], mu))
            assert jet_diag.equal_upto(base, mu)
            assert jet_diag != base


def test_criterion_03_presentation_determinant(announce):
    with announce(3, "the presentation determinant equals x*y^(mu+1) "
                     "for mu in 5..10"):
        for mu in range(5, 11):
            det = determinant(presentation_rows(mu))
            assert det == X * Y ** (mu + 1)


def test_criterion_04_engines_agree_on_random_ideals(announce):
    with announce(4, "exact and window engines agree below length 8 "
                     "on 200 seeded random ideals"):
        rng = random.Random(2024)
        for _ in range(200):
            ring = random_ring(rng)
            gens = random_ideal(rng, ring)
            report = oracle_cross_check(gens, 8)
            assert report.agree, (gens, report.first_difference)


def test_criterion_05_equality_matches_complement_counts(announce):
    with announce(5, "staircase equality is equivalent to matching "
                     "complement counts on 100 seeded jet pairs"):
        rng = random.Random(2025)
        for case in range(100):
            ring = random_ring(rng)
            if case % 2:
                gens = random_ideal(rng, ring, max_degree=6)
            else:
                gens = random_zero_dim_ideal(rng, ring)
            base = diagram_of_ideal(gens)
            low = base.max_vertex_length()
            mu = rng.randint(low, low + 3)
            jet_diag = diagram_of_ideal(jet_ideal(gens, mu), ring=ring)
            bound = max(base.max_vertex_length(),
                        jet_diag.max_vertex_length()) + 1
            counts_agree = all(
                base.hilbert_samuel(k) == jet_diag.hilbert_samuel(k)
                for k in range(bound + 1))
            assert (base == jet_diag) == counts_agree


def test_criterion_06_exactness_from_power_bound(announce):
    with announce(6, "jet staircases are exact from the power-of-maximal "
                     "bound on 50 seeded finite-codimension ideals"):
        rng = random.Random(2026)
        for _ in range(50):
            ring = random_ring(rng)
            gens = random_zero_dim_ideal(rng, ring)
            base = diagram_of_ideal(gens)
            k = base.power_of_maximal()
            assert k is not None
            for mu in range(k, k + 4):
                assert diagram_of_ideal(jet_ideal(gens, mu), ring=ring) == base


def test_criterion_07_pinned_verdicts(announce):
    with announce(7, "pinned regularity and flatness verdicts come out "
                     "certified as expected"):
        assert regular_sequence([X ** 2 + Y ** 3, X * Y]).is_yes
        assert regular_sequence([X * Y, X]).is_no
        assert regseq_axis_certificate([X * Y, X]).is_unknown
        assert flat_ci(MapSpec(RING, (X * Y,), (X,))).is_no
        assert flat_ci(MapSpec(RING, (X * Y,), (X + Y,))).is_yes
        assert flat_ci(MapSpec(RING, (), (X ** 2 + Y ** 3, X * Y))).is_yes
        with pytest.raises(SourceNotCompleteIntersection):
            flat_ci(MapSpec(RING, (X ** 2, X * Y), (X,)))


def test_criterion_08_fibre_length_and_determinacy(announce):
    with announce(8, "the fibre of (x^2+y^3, x*y) has length 5 by three "
                     "counts and 20 deep perturbations keep its staircase"):
        germ = MapSpec(RING, (), (X ** 2 + Y ** 3, X * Y))
        assert milnor_mu0(germ) == 5
        fibre = fibre_ideal(germ)
        d = diagram_of_ideal(fibre)
        assert d.vertices == ((1, 1), (2, 0), (0, 4))
        assert d.complement_upto(10) == [
            (0, 0), (0, 1), (1, 0), (0, 2), (0, 3)]
        assert truncated_quotient_dim(fibre, 6) == 5
        rng = random.Random(88)
        for _ in range(20):
            psi = tuple(c + random_tail(rng, RING, 6, 8)
                        for c in germ.components)
            assert diagram_determinacy_check(germ, psi)


def test_criterion_09_sweep_honesty(announce):
    with announce(9, "the sweep reports no stabilization for the series "
                     "family and stabilization at 2 for (x^2, y^2)"):
        family = jet_sweep(list(truncated_series_generators(depth=20)), 5, 12,
                           length_bound=12)
        assert family.stabilized_at is None
        assert family.summary == "not stabilized in range"
        assert all(not row.equal for row in family.rows)
        pair = jet_sweep([X ** 2, Y ** 2], 1, 5)
        assert pair.stabilized_at == 2
        assert pair.summary == "observed stabilization at mu=2 within the range"
        assert all(row.equal for row in pair.rows if row.mu >= 2)


def test_criterion_10_invariance_and_property_loops(announce):
    with announce(10, "fibre dimension is coordinate-change invariant and "
                      "three 1000-case algebra property loops hold"):
        from staircase import random_coord_change

        rng = random.Random(3000)
        for _ in range(20):
            ring = random_ring(rng)
            relations = tuple(
                vanishing_poly(rng, ring) for _ in range(rng.randint(0, 1)))
            components = tuple(
                vanishing_poly(rng, ring) for _ in range(rng.randint(1, 2)))
            fibre = fibre_ideal(MapSpec(ring, relations, components))
            dim = diagram_of_ideal(fibre, ring=ring).quotient_dimension()
            for _ in range(10):
                change = random_coord_change(ring, rng)
                moved = [g.apply_coord_change(change) for g in fibre]
                assert diagram_of_ideal(
                    moved, ring=ring).quotient_dimension() == dim

        jet_rng = random.Random(3001)
        for _ in range(1000):
            ring = random_ring(jet_rng)
            f = random_poly(jet_rng, ring)
            g = random_poly(jet_rng, ring)
            mu = jet_rng.randint(0, 6)
            assert f.jet(mu).jet(mu) == f.jet(mu)
            assert (f * g).jet(mu) == (f.jet(mu) * g.jet(mu)).jet(mu)
            if not f.jet(mu).is_zero:
                assert max(sum(e) for e, _ in f.jet(mu).terms) <= mu

        order_rng = random.Random(3002)
        for _ in range(1000):
            ring = random_ring(order_rng)
            order = ring.order
            a = random_exponent(order_rng, ring.arity, 6)
            b = random_exponent(order_rng, ring.arity, 6)
            c = random_exponent(order_rng, ring.arity, 6)
            key = order.pack
            ka, kb, kc = key(a), key(b), key(c)
            assert (ka == kb) == (a == b)
            if ka <= kb <= kc:
                assert ka <= kc
            kac, kbc = key(exp_add(a, c)), key(exp_add(b, c))
            assert (kac < kbc, kac == kbc) == (ka < kb, ka == kb)
            assert key((0,) * ring.arity) <= ka

        inexp_rng = random.Random(3003)
        for _ in range(1000):
            ring = random_ring(inexp_rng)
            f = random_poly(inexp_rng, ring)
            g = random_poly(inexp_rng, ring)
            product = f * g
            assert product.initial_exponent() == exp_add(
                f.initial_exponent(), g.initial_exponent())
            assert product.initial_coefficient() == (
                f.initial_coefficient() * g.initial_coefficient())
