"""Independent diagram oracle by exact linear algebra over truncated jets.

Fix a window bound N and work in the finite dimensional space spanned by the
monomials of weighted length below N. Every monomial multiple of a generator
whose initial exponent can land inside the window contributes a row; rows are
reduced with the pivot at the order-minimal position. Because the order is
length-first, tails beyond the window can never overtake an initial exponent
inside it, so the pivot set equals the window of the ideal's diagram of
initial exponents, with no recourse to division or completion arguments.
This route is deliberately disjoint from the standard basis engine and is
used to cross-validate it.

A row is a dict from window positions to integers. Each generator's
denominators are cleared and its content divided out once. A reduction step
clears the row's lead against the pivot row with two coprime cofactors,
b*row - a*pivot, and one content gcd makes the surviving row primitive:
fraction-free elimination in the manner of Bareiss (Math. Comp. 1968).
Membership input is scaled to a primitive integer row before it is reduced.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .core import Exponent, Poly, Ring, _Record, exp_add, resolve_ring
from .diagram import Diagram, exponents_below, first_difference
from .standard_basis import standard_basis

__all__ = [
    "TruncationBasis",
    "CrossCheckReport",
    "exponents_below",
    "truncated_diagram",
    "truncated_quotient_dim",
    "oracle_cross_check",
]


class TruncationBasis(_Record):
    """Echelonized row space of the generators' jets below a length bound.

    Pivot rows are primitive integer rows, not normalized at the pivot, and
    each pivot is the order-minimal nonzero position of its row, so the pivot
    exponents are initial exponents of ideal elements and conversely every
    initial exponent inside the window appears as a pivot. `build` fills the
    `_pivots` dict in place.
    """

    _fields = ("ring", "bound", "monomials", "_index", "_pivots")

    def __init__(self, ring: Ring, bound: int, monomials: tuple[Exponent, ...],
                 _index: dict[Exponent, int],
                 _pivots: dict[int, dict[int, int]]):
        self._set(ring=ring, bound=bound, monomials=monomials, _index=_index,
                  _pivots=_pivots)

    @classmethod
    def build(cls, gens, bound: int, *, ring: Ring | None = None) -> "TruncationBasis":
        gens, ring = resolve_ring(gens, ring)
        if bound < 1:
            raise ValueError("the truncation bound must be at least 1")
        order = ring.order
        monomials = exponents_below(order, bound)
        index = {e: i for i, e in enumerate(monomials)}
        basis = cls(ring, bound, tuple(monomials), index, {})
        length = order.length
        for g in gens:
            if g.is_zero:
                continue
            terms = _primitive_row(dict(g.terms)).items()
            head = length(g.initial_exponent())
            for shift in exponents_below(order, bound - head):
                row: dict[int, int] = {}
                for e, c in terms:
                    pos = index.get(exp_add(e, shift))
                    if pos is not None:
                        row[pos] = c
                basis._insert(row)
        return basis

    def _eliminate(self, row: dict[int, int]) -> dict[int, int]:
        """Reduce an integer row in place until its lead is no pivot: the
        result is a nonzero multiple of the row plus pivot rows."""
        pivots = self._pivots
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                break
            a, b = row[lead], pivot[lead]
            common = gcd(a, b)
            a, b = a // common, b // common
            if b != 1:
                for col in row:
                    row[col] *= b
            for col, val in pivot.items():
                new = row.get(col, 0) - a * val
                if new:
                    row[col] = new
                else:
                    del row[col]
        return row

    def _insert(self, row: dict[int, int]) -> int | None:
        row = self._eliminate(row)
        if not row:
            return None
        lead = min(row)
        self._pivots[lead] = _content_free(row)
        return lead

    def pivot_exponents(self) -> list[Exponent]:
        return [self.monomials[p] for p in sorted(self._pivots)]

    def nonpivot_count(self) -> int:
        return len(self.monomials) - len(self._pivots)

    def project(self, f: Poly) -> dict[int, Fraction]:
        """Coordinates of f inside the window; tail terms are dropped."""
        if f.ring != self.ring:
            raise ValueError("polynomial lives in a different ring")
        row: dict[int, Fraction] = {}
        for e, c in f.terms:
            pos = self._index.get(e)
            if pos is not None:
                row[pos] = c
        return row

    def contains_mod_truncation(self, f: Poly) -> bool:
        """Membership in the generated ideal modulo lengths >= bound."""
        return not self._eliminate(_primitive_row(self.project(f)))


def _content_free(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    content = gcd(*row.values())
    return row if content == 1 else {k: c // content for k, c in row.items()}


def _primitive_row(row: dict) -> dict:
    """The primitive integer row proportional to a rational row."""
    common = lcm(*(c.denominator for c in row.values()))
    return _content_free({k: c.numerator * (common // c.denominator)
                          for k, c in row.items()})


def truncated_diagram(gens, bound: int, *, ring: Ring | None = None) -> Diagram:
    """Window of the diagram of initial exponents below the length bound.

    Membership answers are exact for exponents whose length, weighted by the
    ring's order, is below `bound`; beyond the window the staircase may have
    further vertices.
    """
    basis = TruncationBasis.build(gens, bound, ring=ring)
    return Diagram.from_exponents(basis.pivot_exponents(), arity=basis.ring.arity)


def truncated_quotient_dim(gens, bound: int, *, ring: Ring | None = None) -> int:
    """Dimension of the quotient by the ideal plus all lengths >= bound.

    Equals the number of non-pivot monomials in the window, which is also the
    count of complement exponents of length below the bound.
    """
    return TruncationBasis.build(gens, bound, ring=ring).nonpivot_count()


class CrossCheckReport(NamedTuple):
    """Both engines' windows below `bound` and the first place they differ.

    `oracle_vertices` and `basis_vertices` are the vertices of weighted
    length below `bound` found by the oracle and by the capped Mora
    completion; vertices of the exact staircase at or beyond the bound are
    outside both windows.
    """

    agree: bool
    first_difference: Exponent | None
    bound: int
    oracle_vertices: tuple[Exponent, ...]
    basis_vertices: tuple[Exponent, ...]


def oracle_cross_check(gens, bound: int, *, ring: Ring | None = None) -> CrossCheckReport:
    """Compare the oracle window against the standard basis diagram.

    Both engines compute only inside the window of weighted length below
    `bound`: the standard basis side runs Mora with `length_cap=bound`,
    whose diagram is exact there, and the oracle code is independent of it.
    Any disagreement on an exponent inside the window indicates a defect in
    one of the two engines; the first offender in order position is reported.
    """
    gens, ring = resolve_ring(gens, ring)
    window = truncated_diagram(gens, bound, ring=ring)
    exact = standard_basis(gens, ring=ring, length_cap=bound).diagram
    first = first_difference(window, exact, ring.order, bound)
    return CrossCheckReport(
        agree=first is None,
        first_difference=first,
        bound=bound,
        oracle_vertices=window.vertices,
        basis_vertices=exact.vertices,
    )
