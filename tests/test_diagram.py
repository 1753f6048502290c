"""Staircase containers: membership, complements, dimension, stability."""

import random
from itertools import product

import pytest

from staircase import (
    Diagram,
    Order,
    exp_divides,
    exponents_below,
    exponents_upto,
)
from staircase.diagram import axis_powers, covering_length


def test_enumerators_are_ordered():
    assert exponents_upto(2, 2) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert exponents_upto(1, 3) == [(0,), (1,), (2,), (3,)]
    assert exponents_upto(2, -1) == []


def test_exponents_upto_is_the_unit_order_enumerator():
    for arity in range(1, 5):
        for bound in range(-2, 9):
            assert exponents_upto(arity, bound) == exponents_below(
                Order.unit(arity), bound + 1)


def test_vertices_must_form_an_antichain():
    with pytest.raises(ValueError):
        Diagram(2, ((1, 0), (2, 0)))
    with pytest.raises(ValueError):
        Diagram(2, ((1, 0, 0),))
    with pytest.raises(ValueError):
        Diagram(2, ((1, -1),))


def test_vertices_are_canonically_sorted():
    d = Diagram(2, ((0, 2), (2, 0)))
    e = Diagram(2, ((2, 0), (0, 2)))
    assert d == e
    assert d.vertices == ((0, 2), (2, 0))


def test_from_exponents_minimizes():
    d = Diagram.from_exponents([(2, 0), (3, 0), (2, 1), (0, 2)])
    assert d.vertices == ((0, 2), (2, 0))
    empty = Diagram.from_exponents([], arity=2)
    assert empty.is_empty
    with pytest.raises(ValueError):
        Diagram.from_exponents([])
    with pytest.raises(ValueError):
        Diagram.from_exponents([(1, 0), (1, 0, 0)])


def test_from_exponents_matches_minimal_elements():
    rng = random.Random(409)
    for _ in range(300):
        arity = rng.randint(1, 4)
        pts = [tuple(rng.randint(0, 4) for _ in range(arity))
               for _ in range(rng.randint(0, 12))]
        pts += rng.sample(pts, min(3, len(pts)))  # duplicates
        rng.shuffle(pts)
        minimal = {p for p in pts
                   if not any(q != p and exp_divides(q, p) for q in pts)}
        d = Diagram.from_exponents(pts, arity=arity)
        assert set(d.vertices) == minimal


def test_membership_and_complement():
    d = Diagram(2, ((2, 0), (0, 2)))
    assert d.contains((2, 0))
    assert d.contains((5, 7))
    assert not d.contains((1, 1))
    assert not d.contains((0, 0))
    assert d.complement_upto(3) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert Diagram(2, ()).complement_upto(1) == [(0, 0), (0, 1), (1, 0)]


def test_hilbert_samuel_counts_short_complement_points():
    d = Diagram(2, ((2, 0), (0, 2)))
    assert [d.hilbert_samuel(k) for k in range(-1, 4)] == [0, 1, 3, 4, 4]
    d2 = Diagram(2, ((2, 0), (1, 1), (0, 4)))
    assert d2.hilbert_samuel(4) == 5
    assert d2.hilbert_samuel(100) == 5


def test_quotient_dimension_cases():
    assert Diagram(2, ()).quotient_dimension() == 2
    assert Diagram(2, ((0, 0),)).quotient_dimension() == 0
    assert Diagram(2, ((2, 0), (0, 2))).quotient_dimension() == 0
    assert Diagram(2, ((1, 1),)).quotient_dimension() == 1
    assert Diagram(2, ((3, 1), (2, 3))).quotient_dimension() == 1
    assert Diagram(3, ((0, 0, 2),)).quotient_dimension() == 2
    assert Diagram(3, ((1, 1, 0), (0, 0, 2))).quotient_dimension() == 1


def test_max_vertex_length():
    d = Diagram(2, ((2, 0), (1, 1), (0, 4)))
    assert d.max_vertex_length() == 4
    with pytest.raises(ValueError):
        Diagram(2, ()).max_vertex_length()


def test_power_of_maximal_pinned():
    assert Diagram(2, ((2, 0), (0, 2))).power_of_maximal() == 3
    assert Diagram(2, ((2, 0), (1, 1), (0, 2))).power_of_maximal() == 2
    assert Diagram(2, ((2, 0), (1, 1), (0, 4))).power_of_maximal() == 4
    assert Diagram(2, ((0, 0),)).power_of_maximal() == 0
    assert Diagram(2, ((1, 0), (0, 1))).power_of_maximal() == 1
    assert Diagram(2, ((1, 1),)).power_of_maximal() is None
    assert Diagram(2, ()).power_of_maximal() is None


def test_power_of_maximal_is_sharp():
    rng = random.Random(107)
    for _ in range(100):
        arity = rng.randint(1, 3)
        vertices = set()
        for i in range(arity):
            power = rng.randint(1, 3)
            vertices.add(tuple(power if j == i else 0 for j in range(arity)))
        extra = tuple(rng.randint(0, 3) for _ in range(arity))
        points = list(vertices) + [extra]
        d = Diagram.from_exponents(points, arity=arity)
        k = d.power_of_maximal()
        assert k is not None
        sphere_in = all(d.contains(e) for e in exponents_upto(arity, k)
                        if sum(e) == k)
        assert sphere_in
        if k > 0:
            sphere_below = all(d.contains(e)
                               for e in exponents_upto(arity, k - 1)
                               if sum(e) == k - 1)
            assert not sphere_below


def test_covering_length_is_least_under_random_weights():
    rng = random.Random(211)
    for _ in range(150):
        arity = rng.randint(1, 3)
        order = Order(tuple(rng.randint(1, 3) for _ in range(arity)))
        powers = [rng.randint(1, 4) for _ in range(arity)]
        exps = [tuple(p if j == i else 0 for j in range(arity))
                for i, p in enumerate(powers)]
        exps += [tuple(rng.randint(0, 4) for _ in range(arity))
                 for _ in range(rng.randint(0, 3))]
        rng.shuffle(exps)
        d = Diagram.from_exponents(exps, arity=arity)
        # The complement lies below the axis powers, so this box holds it
        # together with exponents of every length up to past its longest.
        box = list(product(range(max(powers) + 2), repeat=arity))
        least = next(cap for cap in range(100) if all(
            d.contains(e) for e in box if order.length(e) >= cap))
        assert covering_length(exps, order) == least


def test_axis_powers_are_the_least_pure_powers_inside():
    rng = random.Random(409)
    for _ in range(150):
        arity = rng.randint(1, 3)
        exps = [tuple(rng.choice([0, 0, rng.randint(1, 4)])
                      for _ in range(arity))
                for _ in range(rng.randint(0, 4))]
        d = Diagram.from_exponents(exps, arity=arity)
        inside = [[p for p in range(5)
                   if d.contains(tuple(p if j == i else 0 for j in range(arity)))]
                  for i in range(arity)]
        assert axis_powers(exps, arity) == [min(ps, default=None) for ps in inside]


def test_hilbert_vector_matches_pointwise_counts():
    rng = random.Random(307)
    for _ in range(60):
        arity = rng.randint(1, 3)
        points = [tuple(rng.randint(0, 4) for _ in range(arity))
                  for _ in range(rng.randint(0, 4))]
        d = Diagram.from_exponents(points, arity=arity)
        k = rng.randint(-1, 9)
        vector = d.hilbert_vector(k)
        assert vector == [d.hilbert_samuel(j) for j in range(k + 1)]
        assert vector == [len(d.complement_upto(j)) for j in range(k + 1)]


def test_equal_upto():
    d = Diagram(2, ((2, 0), (0, 2)))
    e = Diagram(2, ((2, 0), (0, 2), (1, 1)))
    assert d.equal_upto(e, 1)
    assert not d.equal_upto(e, 2)
    assert d.equal_upto(d, 100)


def test_to_lists():
    d = Diagram(2, ((2, 0), (0, 2)))
    assert d.to_lists() == [[0, 2], [2, 0]]
