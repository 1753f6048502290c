"""Seeded random data and checks shared across the test files."""

import itertools
import math
import random
from fractions import Fraction

from staircase import Order, Poly, Ring


def random_exponent(rng: random.Random, arity: int, max_degree: int):
    degree = rng.randint(0, max_degree)
    exp = [0] * arity
    for _ in range(degree):
        exp[rng.randrange(arity)] += 1
    return tuple(exp)


def random_poly(rng: random.Random, ring: Ring, max_degree: int = 4,
                max_terms: int = 4, coeff_bound: int = 4,
                zero_ok: bool = False, max_denominator: int = 1) -> Poly:
    while True:
        count = rng.randint(0 if zero_ok else 1, max_terms)
        pairs = []
        for _ in range(count):
            coeff = 0
            while coeff == 0:
                coeff = rng.randint(-coeff_bound, coeff_bound)
            if max_denominator > 1:
                coeff = Fraction(coeff, rng.randint(1, max_denominator))
            pairs.append((random_exponent(rng, ring.arity, max_degree),
                          Fraction(coeff)))
        p = Poly.from_terms(ring, pairs)
        if zero_ok or not p.is_zero:
            return p


def random_ring(rng: random.Random, max_arity: int = 3,
                max_weight: int = 1) -> Ring:
    arity = rng.randint(1, max_arity)
    # Unit weights draw nothing, so seeded callers keep their streams.
    weights = (tuple(rng.randint(1, max_weight) for _ in range(arity))
               if max_weight > 1 else (1,) * arity)
    return Ring(tuple("xyz")[:arity], order=Order(weights))


def random_ideal(rng: random.Random, ring: Ring, max_gens: int = 3,
                 max_degree: int = 4) -> list[Poly]:
    return [random_poly(rng, ring, max_degree=max_degree)
            for _ in range(rng.randint(1, max_gens))]


def random_zero_dim_ideal(rng: random.Random, ring: Ring,
                          max_axis_power: int = 3,
                          extra_degree: int = 8) -> list[Poly]:
    """Always zero-dimensional: one pure power per axis plus random extras."""
    gens = []
    for i in range(ring.arity):
        power = rng.randint(1, max_axis_power)
        gens.append(ring.monomial(
            tuple(power if j == i else 0 for j in range(ring.arity))))
    for _ in range(rng.randint(0, 2)):
        gens.append(random_poly(rng, ring, max_degree=extra_degree))
    rng.shuffle(gens)
    return gens


def random_tail(rng: random.Random, ring: Ring, degree_low: int,
                degree_high: int, max_terms: int = 3,
                coeff_bound: int = 3) -> Poly:
    """Random polynomial supported in total degrees [degree_low, degree_high]."""
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(degree_low, degree_high)
        exp = [0] * ring.arity
        for _ in range(degree):
            exp[rng.randrange(ring.arity)] += 1
        coeff = 0
        while coeff == 0:
            coeff = rng.randint(-coeff_bound, coeff_bound)
        pairs.append((tuple(exp), Fraction(coeff)))
    return Poly.from_terms(ring, pairs)


def vanishing_poly(rng: random.Random, ring: Ring, max_degree: int = 4,
                   max_denominator: int = 1) -> Poly:
    """Random nonzero polynomial with zero constant term."""
    while True:
        p = random_poly(rng, ring, max_degree=max_degree,
                        max_denominator=max_denominator)
        p = p - ring.constant(p.constant_term)
        if not p.is_zero:
            return p


def is_canonical(p: Poly) -> bool:
    """The stored fields are the canonical form of p.terms: keys strictly
    ascending and packing the exponents, coprime nonzero integers, a
    positive scale (1 for zero)."""
    exps = [e for e, _ in p.terms]
    return (p.keys == sorted(set(p.keys))
            and p.keys == [p.ring.order.pack(e) for e in exps]
            and [p.scale * c for c in p.ints] == [c for _, c in p.terms]
            and all(p.ints) and math.gcd(*p.ints) in (0, 1)
            and p.scale > 0 and (p.keys or p.scale == 1))


def box_covering_length(exps, order: Order):
    """The covering length by a scan of the whole box below the least pure
    powers: one past the longest exponent there that no exponent of exps
    divides, None when some axis has no pure power (the zero exponent is a
    pure power of every axis)."""
    exps = [tuple(e) for e in exps]
    powers = []
    for i in range(order.arity):
        pure = [e[i] for e in exps
                if all(x == 0 for j, x in enumerate(e) if j != i)]
        if not pure:
            return None
        powers.append(min(pure))
    cap = 0
    for point in itertools.product(*(range(p) for p in powers)):
        if not any(all(a <= b for a, b in zip(v, point)) for v in exps):
            cap = max(cap, order.length(point) + 1)
    return cap


def diagram_answers(d, order: Order, top: int = 12):
    """Every query's answer on the diagram d: the bounded ones up to top,
    before and after `power_of_maximal` (which may keep its walk), and the
    covering length under order. A diagram a completion returned must give
    the answers of the same diagram built afresh."""
    def bounded():
        return [(d.hilbert_samuel(k), d.hilbert_vector(k), d.complement_upto(k))
                for k in range(-1, top + 1)]
    before = bounded()
    return (d.vertices, before, d.power_of_maximal(), bounded(),
            d._covering_length(order), d.quotient_dimension())
