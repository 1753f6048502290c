"""Staircase sets of exponents, stored by their finite vertex antichain.

A diagram is a subset G of N^m with G + N^m = G; it is determined by its
minimal elements under the componentwise order, and that antichain is the
stored data. Diagram queries measure unweighted total length; the exponent
enumerator, the covering length and `first_difference` take the order whose
length they use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, product
from typing import Iterable

from .core import Exponent, Order, _as_ints, exp_divides, total_degree

__all__ = [
    "Diagram",
    "axis_powers",
    "covering_length",
    "exponents_below",
    "exponents_upto",
    "first_difference",
]


def exponents_below(order: Order, bound: int) -> list[Exponent]:
    """Exponents of weighted length strictly below bound, order ascending."""
    rows: list[tuple[Exponent, int]] = [((), 0)] if bound > 0 else []
    for w in order.weights:
        rows = [(e + (k,), n + w * k)
                for e, n in rows for k in range((bound - 1 - n) // w + 1)]
    # The rows are lexicographically ascending, so splitting them stably by
    # length lists them ascending in the order's key (length, e1, ..., em).
    by_length: list[list[Exponent]] = [[] for _ in range(max(bound, 0))]
    for e, n in rows:
        by_length[n].append(e)
    return [e for bucket in by_length for e in bucket]


def exponents_upto(arity: int, bound: int) -> list[Exponent]:
    """All exponents of total degree at most bound, ascending in the unit order."""
    return exponents_below(Order.unit(arity), bound + 1)


def axis_powers(exps: Iterable[Exponent], arity: int) -> list[int | None]:
    """Least pure power of each axis among exps, None where there is none.

    The zero exponent is a pure power of every axis.
    """
    powers: list[int | None] = [None] * arity
    for e in exps:
        support = [i for i, x in enumerate(e) if x]
        if len(support) > 1:
            continue
        for i in support or range(arity):
            if powers[i] is None or e[i] < powers[i]:
                powers[i] = e[i]
    return powers


def covering_length(exps: Iterable[Exponent], order: Order) -> int | None:
    """Least L with every exponent of length >= L in the staircase of exps.

    Lengths are measured by the order. Returns None when some axis has no
    pure power among the exponents, i.e. when the staircase complement is
    infinite. Otherwise the complement lies in the box below the smallest
    pure powers, and L is one past the longest complement point there.
    """
    exps = list(exps)
    powers = axis_powers(exps, order.arity)
    if None in powers:
        return None
    cap = 0
    for point in product(*(range(p) for p in powers)):
        if not any(exp_divides(v, point) for v in exps):
            cap = max(cap, order.length(point) + 1)
    return cap


@dataclass(frozen=True)
class Diagram:
    arity: int
    vertices: tuple[Exponent, ...]

    def __post_init__(self):
        vs = tuple(_as_ints(v, "vertices") for v in self.vertices)
        for v in vs:
            if len(v) != self.arity:
                raise ValueError("vertex arity does not match the diagram")
            if any(x < 0 for x in v):
                raise ValueError("vertices must be nonnegative")
        vs = tuple(sorted(set(vs), key=lambda v: (total_degree(v), v)))
        for a in vs:
            for b in vs:
                if a != b and exp_divides(b, a):
                    raise ValueError("vertices must form an antichain")
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def from_exponents(
        cls, exps: Iterable[Exponent], arity: int | None = None
    ) -> "Diagram":
        """Diagram generated by a finite exponent set (minimal elements kept)."""
        pts = [tuple(e) for e in exps]
        if pts:
            found = len(pts[0])
            if any(len(p) != found for p in pts):
                raise ValueError("mixed exponent arities")
            if arity is None:
                arity = found
            elif arity != found:
                raise ValueError("exponent arity does not match the requested one")
        elif arity is None:
            raise ValueError("an empty exponent set needs an explicit arity")
        # A proper divisor has smaller total degree, so it is met first, and a
        # point is minimal unless a vertex kept before it divides it.
        vertices: list[Exponent] = []
        for p in sorted(set(pts), key=lambda p: (total_degree(p), p)):
            if not any(exp_divides(v, p) for v in vertices):
                vertices.append(p)
        return cls(arity, tuple(vertices))

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def contains(self, exp: Exponent) -> bool:
        exp = tuple(exp)
        if len(exp) != self.arity:
            raise ValueError("exponent arity does not match the diagram")
        return any(exp_divides(v, exp) for v in self.vertices)

    def complement_upto(self, bound: int) -> list[Exponent]:
        """Exponents outside the diagram of length <= bound, order ascending."""
        return [e for e in exponents_upto(self.arity, bound) if not self.contains(e)]

    def hilbert_vector(self, bound: int) -> list[int]:
        """[hilbert_samuel(k) for k in range(bound + 1)] from one enumeration."""
        counts = [0] * (bound + 1)
        for e in self.complement_upto(bound):
            counts[total_degree(e)] += 1
        return list(accumulate(counts))

    def hilbert_samuel(self, k: int) -> int:
        """Number of complement exponents of length at most k."""
        if k < 0:
            return 0
        return self.hilbert_vector(k)[k]

    def quotient_dimension(self) -> int:
        """Krull dimension of the monomial quotient attached to the diagram.

        Largest size of a variable subset T such that no vertex is supported
        inside T. The empty diagram gives the full arity; the diagram of the
        unit ideal (vertex at the origin) is clamped to 0, matching its empty
        complement.
        """
        if not self.vertices:
            return self.arity
        supports = [frozenset(i for i, e in enumerate(v) if e) for v in self.vertices]
        for size in range(self.arity, -1, -1):
            for subset in combinations(range(self.arity), size):
                t = frozenset(subset)
                if all(not s <= t for s in supports):
                    return size
        return 0

    def max_vertex_length(self) -> int:
        if not self.vertices:
            raise ValueError("the empty diagram has no vertices")
        return max(total_degree(v) for v in self.vertices)

    def power_of_maximal(self) -> int | None:
        """Least k with every exponent of length k inside, None if there is none."""
        return covering_length(self.vertices, Order.unit(self.arity))

    def equal_upto(self, other: "Diagram", bound: int) -> bool:
        """Membership agreement for every exponent of length at most bound."""
        return first_difference(self, other, Order.unit(self.arity), bound + 1) is None

    def to_lists(self) -> list[list[int]]:
        return [list(v) for v in self.vertices]


def first_difference(a: Diagram, b: Diagram, order: Order,
                     bound: int) -> Exponent | None:
    """Order-least exponent of length below bound in just one diagram, or None.

    It is a vertex of the diagram holding it: a proper divisor is shorter
    under positive weights, so it would come first and differ too.
    """
    if a.arity != b.arity:
        raise ValueError("diagrams have different arities")
    lacking = [v for mine, other in ((a, b), (b, a)) for v in mine.vertices
               if order.length(v) < bound and not other.contains(v)]
    return min(lacking, key=order.pack, default=None)
