"""Staircase sets of exponents, stored by their finite vertex antichain.

A diagram is a subset G of N^m with G + N^m = G; it is determined by its
minimal elements under the componentwise order, and that antichain is the
stored data. Diagram queries measure unweighted total length; the exponent
enumerator, the covering length and `first_difference` take the order whose
length they use. The complement, the Hilbert-Samuel counts and the covering
length come from a walk over the complement, which visits no point of the
diagram but the first one inside along each axis. A bounded query walks
only below its bound. A finite complement, once known, is kept with the
diagram and read instead of walked: the completion that built the diagram
hands over the complement it kept, and `power_of_maximal` keeps its own
full walk. The completion keeps it in a `_ShrinkingComplement`, which walks
once, when the complement becomes finite, and afterwards only drops the
points that entering exponents divide.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from operator import itemgetter
from typing import Iterable, Sequence

from .core import Exponent, Order, _as_ints, _Record, exp_divides, total_degree

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


def _complement(exps: Sequence[Exponent], weights: tuple[int, ...],
                bound: int | None) -> list[tuple[Exponent, int]]:
    """The exponents outside the staircase of exps, each with its weighted
    length, lexicographically ascending: those shorter than bound, or all of
    them for bound None, which needs a finite complement.

    The complement is a down-set, so the walk extends points one axis at a
    time and stops along each axis at the first point inside; it visits no
    other point inside. Extending an outside prefix p (axes before i) by k
    on axis i lands inside exactly when an exponent that divides p, and is
    zero past axis i, has entry i at most k. Each point carries the
    exponents that divide its prefix.
    """
    if bound is not None and bound <= 0 or not all(map(any, exps)):
        return []  # no length fits, or the origin is inside
    # Each exponent with the index of its last nonzero entry.
    rows = [((), 0, [(v, max(j for j, x in enumerate(v) if x))
                     for v in exps])]
    final = len(weights) - 1
    for i, w in enumerate(weights):
        grown = []
        for e, n, vs in rows:
            stop = min((v[i] for v, last in vs if last <= i), default=None)
            if bound is not None:
                fits = (bound - 1 - n) // w + 1
                stop = fits if stop is None else min(stop, fits)
            if i == final:
                grown += [(e + (k,), n + w * k) for k in range(stop)]
            else:
                grown += [(e + (k,), n + w * k,
                           [p for p in vs if p[0][i] <= k])
                          for k in range(stop)]
        rows = grown
    return rows if weights else [((), 0)]


def covering_length(exps: Iterable[Exponent], order: Order) -> int | None:
    """Least L with every exponent of length >= L in the staircase of exps.

    Lengths are measured by the order. Returns None when some axis has no
    pure power among the exponents, i.e. when the staircase complement is
    infinite. Otherwise L is one past the longest point of the complement,
    which one walk over the complement finds.
    """
    exps = list(exps)
    if None in axis_powers(exps, order.arity):
        return None
    return max((n + 1 for _, n in _complement(exps, order.weights, None)),
               default=0)


def _by_length(exp: Exponent) -> tuple[int, Exponent]:
    return total_degree(exp), exp


class Diagram(_Record):
    _fields = ("arity", "vertices")
    # The finite complement as (point, total degree) rows, lexicographically
    # ascending, when it is known; not a field, so equality, hash and repr
    # do not see it.
    _outside: list[tuple[Exponent, int]] | None = None

    def __init__(self, arity: int, vertices: tuple[Exponent, ...]):
        vs = tuple(_as_ints(v, "vertices") for v in vertices)
        for v in vs:
            if len(v) != arity:
                raise ValueError("vertex arity does not match the diagram")
            if any(x < 0 for x in v):
                raise ValueError("vertices must be nonnegative")
        vs = tuple(sorted(set(vs), key=_by_length))
        for a in vs:
            for b in vs:
                if a != b and exp_divides(b, a):
                    raise ValueError("vertices must form an antichain")
        self._set(arity=arity, vertices=vs)

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
        # point is minimal unless a vertex kept before it divides it. The
        # vertices come out sorted and form an antichain, as __init__ would
        # make and check them; the entries are checked as __init__ does.
        vertices: list[Exponent] = []
        for p in sorted(set(pts), key=_by_length):
            if not any(exp_divides(v, p) for v in vertices):
                vertices.append(p)
        for v in vertices:
            _as_ints(v, "vertices")
            if any(x < 0 for x in v):
                raise ValueError("vertices must be nonnegative")
        diagram = cls.__new__(cls)
        diagram._set(arity=arity, vertices=tuple(vertices))
        return diagram

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def contains(self, exp: Exponent) -> bool:
        exp = tuple(exp)
        if len(exp) != self.arity:
            raise ValueError("exponent arity does not match the diagram")
        return any(exp_divides(v, exp) for v in self.vertices)

    def _rows(self, bound: int) -> list[tuple[Exponent, int]]:
        """The complement's (point, total degree) rows shorter than bound,
        lexicographically ascending: read off the kept complement, else
        walked below the bound."""
        if self._outside is None:
            return _complement(self.vertices, (1,) * self.arity, bound)
        return [row for row in self._outside if row[1] < bound]

    def complement_upto(self, bound: int) -> list[Exponent]:
        """Exponents outside the diagram of length <= bound, order ascending."""
        # Sorting the lexicographic rows stably by length gives the order.
        return [e for e, _ in sorted(self._rows(bound + 1), key=itemgetter(1))]

    def hilbert_vector(self, bound: int) -> list[int]:
        """[hilbert_samuel(k) for k in range(bound + 1)] from one enumeration."""
        counts = [0] * (bound + 1)
        for _, n in self._rows(bound + 1):
            counts[n] += 1
        return list(accumulate(counts))

    def hilbert_samuel(self, k: int) -> int:
        """Number of complement exponents of length at most k."""
        return len(self._rows(k + 1))

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
        """Least k with every exponent of length k inside, None if there is none.

        A finite complement walked here is kept for the later queries."""
        if self._outside is None:
            if None in axis_powers(self.vertices, self.arity):
                return None
            self._set(_outside=_complement(self.vertices, (1,) * self.arity,
                                           None))
        return max((n + 1 for _, n in self._outside), default=0)

    def _covering_length(self, order: Order) -> int | None:
        """covering_length(self.vertices, order), read off the kept
        complement when there is one."""
        if self._outside is None:
            return covering_length(self.vertices, order)
        return max((order.length(p) + 1 for p, _ in self._outside), default=0)

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


class _ShrinkingComplement:
    """The complement of a staircase that grows as exponents enter.

    While some axis has no pure power among the exponents the complement is
    infinite, and only the axes still lacking one are kept. The first
    `rows()` after the last axis gets one walks the complement; later
    exponents only drop the points they divide, since the complement can
    only shrink. `diagram()` hands the complement over with the diagram.
    """

    def __init__(self, order: Order):
        self.order = order
        self.exps: list[Exponent] = []
        self.lacking = set(range(order.arity))  # axes with no pure power
        self.outside: list[tuple[Exponent, int]] | None = None
        self.applied = 0  # exponents the kept rows account for

    def add(self, exp: Exponent) -> None:
        self.exps.append(exp)
        if self.lacking:
            support = [i for i, x in enumerate(exp) if x]
            if len(support) < 2:  # a pure power; the origin is one of each axis
                self.lacking.difference_update(support or range(len(exp)))

    def rows(self) -> list[tuple[Exponent, int]] | None:
        """The (point, weighted length) rows of the complement of every
        exponent added, lexicographically ascending, None while it is
        infinite."""
        if self.lacking:
            return None
        if self.outside is None:
            self.outside = _complement(self.exps, self.order.weights, None)
        elif self.applied < len(self.exps):
            entered = self.exps[self.applied:]
            self.outside = [row for row in self.outside if not any(
                exp_divides(e, row[0]) for e in entered)]
        self.applied = len(self.exps)
        return self.outside

    def length(self) -> int | None:
        """covering_length(exps, order) of every exponent added."""
        rows = self.rows()
        return None if rows is None else max((n + 1 for _, n in rows),
                                             default=0)

    def diagram(self) -> Diagram:
        """Diagram.from_exponents of every exponent added, which keeps
        their complement when it is finite."""
        diagram = Diagram.from_exponents(self.exps, arity=self.order.arity)
        rows = self.rows()
        if rows is not None:
            if self.order != Order.unit(self.order.arity):
                rows = [(p, total_degree(p)) for p, _ in rows]
            diagram._set(_outside=rows)
        return diagram
