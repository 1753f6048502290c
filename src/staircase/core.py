"""Exact sparse polynomial arithmetic over the rationals for local ring work.

Exponents are plain integer tuples. The term order compares the tuples
(weighted length, e1, ..., em) lexicographically and the *initial* term of a
polynomial is the order-minimal one, so the lowest part of a series carries
the leading data, as is usual for local rings. The same order also has a
packed form for Mora's inner loop: one integer per exponent, which compares
as the tuple does. Every value here is immutable
and every operation returns canonical form: terms strictly ascending in the
ring's order, no zero coefficients, all coefficients `fractions.Fraction`.
Floats are rejected outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, mul, sub
from typing import Iterable, Sequence

__all__ = [
    "Exponent",
    "Order",
    "Ring",
    "Poly",
    "CoordChange",
    "determinant",
    "total_degree",
    "exp_add",
    "exp_sub",
    "exp_divides",
    "exp_lcm",
    "resolve_ring",
]

Exponent = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# A packed key holds e1, ..., em in fixed-width fields below the weighted
# length. The top bit of each field is a guard that stays clear, so an
# exponent must be below FIELD_LIMIT, and a subtraction that borrows from a
# field shows in its guard bit.
FIELD_BITS = 32
FIELD_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD_MASK = (1 << FIELD_BITS) - 1


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(
        f"coefficients must be int or Fraction, not {type(value).__name__}"
    )


def total_degree(exp: Exponent) -> int:
    """Unweighted length of an exponent."""
    return sum(exp)


# The exponent helpers run once per term in Mora's inner loop, so they map
# `operator` functions over the tuples instead of looping in Python.


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    """Componentwise difference, defined only when b divides a."""
    out = tuple(map(sub, a, b))
    if out and min(out) < 0:
        raise ValueError(f"{b} does not divide {a}")
    return out


def exp_divides(a: Exponent, b: Exponent) -> bool:
    """True when x^a divides x^b, i.e. a <= b componentwise."""
    return len(a) == len(b) and all(map(le, a, b))


def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


@dataclass(frozen=True)
class Order:
    """Weighted-degree-first, then lexicographic, well-order on exponents.

    The sort key of an exponent b is (sum(w_i*b_i), b_1, ..., b_m) and smaller
    keys come first; the zero exponent is the global minimum.
    """

    weights: tuple[int, ...]

    def __post_init__(self):
        ws = tuple(int(w) for w in self.weights)
        if any(w < 1 for w in ws):
            raise ValueError("order weights must be positive integers")
        object.__setattr__(self, "weights", ws)

    @staticmethod
    def unit(arity: int) -> "Order":
        return Order((1,) * arity)

    @property
    def arity(self) -> int:
        return len(self.weights)

    def length(self, exp: Exponent) -> int:
        if len(exp) != len(self.weights):
            raise ValueError("exponent arity does not match the order")
        return sum(map(mul, self.weights, exp))

    def key(self, exp: Exponent):
        if len(exp) != len(self.weights):
            raise ValueError("exponent arity does not match the order")
        return (sum(map(mul, self.weights, exp)), *exp)

    def pack(self, exp: Exponent) -> int:
        """The key of exp as one integer: integers compare as keys do, and
        adding two packed keys packs the sum of the exponents while every
        field stays below FIELD_LIMIT. An exponent past it is refused."""
        packed = self.length(exp)
        for e in exp:
            if not 0 <= e < FIELD_LIMIT:
                raise ValueError(
                    f"exponent {e} does not fit a packed field "
                    f"(limit 2^{FIELD_BITS - 1})")
            packed = packed << FIELD_BITS | e
        return packed

    def unpack(self, packed: int) -> Exponent:
        """The exponent of one packed key; see `unpack_all`."""
        return self.unpack_all((packed,))[0]

    def unpack_all(self, keys) -> list[Exponent]:
        """The exponents of packed keys. Nothing is checked here: `pack`
        refuses an exponent that does not fit, and whoever adds packed keys
        must keep every field below FIELD_LIMIT."""
        shifts = range(FIELD_BITS * (len(self.weights) - 1), -1, -FIELD_BITS)
        return list(zip(*[[k >> s & _FIELD_MASK for k in keys]
                          for s in shifts]))


@dataclass(frozen=True)
class Ring:
    """A ring of convergent power series, handled through polynomial data.

    The order defaults to unit weights.
    """

    variables: tuple[str, ...]
    order: Order | None = None

    def __post_init__(self):
        names = tuple(str(v) for v in self.variables)
        if not names:
            raise ValueError("a ring needs at least one variable")
        if any(not n for n in names):
            raise ValueError("variable names must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        order = self.order if self.order is not None else Order.unit(len(names))
        if order.arity != len(names):
            raise ValueError("order arity does not match the variable count")
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "order", order)

    @property
    def arity(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def zero(self) -> "Poly":
        return Poly(self, ())

    def constant(self, value) -> "Poly":
        c = _as_fraction(value)
        if not c:
            return self.zero()
        return Poly(self, (((0,) * self.arity, c),))

    def monomial(self, exp: Exponent, coeff=1) -> "Poly":
        return Poly.from_terms(self, [(tuple(exp), coeff)])

    def variable(self, name: str) -> "Poly":
        i = self.var_index(name)
        exp = tuple(1 if j == i else 0 for j in range(self.arity))
        return self.monomial(exp)


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class Poly:
    """Immutable sparse polynomial with terms ascending in the ring's order."""

    # `_packed` caches the form Mora's inner loop runs on; see `_packed_form`.
    __slots__ = ("ring", "terms", "_packed")

    def __init__(self, ring: Ring, terms: tuple[tuple[Exponent, Fraction], ...]):
        # Trusted constructor: `terms` must already be canonical. Build with
        # Poly.from_terms or the Ring helpers otherwise.
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def from_terms(ring: Ring, pairs: Iterable[tuple[Exponent, object]]) -> "Poly":
        acc: dict[Exponent, Fraction] = {}
        arity = ring.arity
        for exp, coeff in pairs:
            exp = tuple(int(e) for e in exp)
            if len(exp) != arity:
                raise ValueError("exponent arity does not match the ring")
            if any(e < 0 for e in exp):
                raise ValueError("exponents must be nonnegative")
            c = _as_fraction(coeff)
            if not c:
                continue
            acc[exp] = acc.get(exp, _ZERO) + c
        key = ring.order.key
        items = tuple((e, acc[e]) for e in sorted(acc, key=key) if acc[e])
        return Poly(ring, items)

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> Fraction:
        if self.terms and not any(self.terms[0][0]):
            return self.terms[0][1]
        return _ZERO

    def initial_exponent(self) -> Exponent:
        """Order-minimal exponent of the support."""
        if not self.terms:
            raise ValueError("the zero polynomial has no initial exponent")
        return self.terms[0][0]

    def initial_coefficient(self) -> Fraction:
        if not self.terms:
            raise ValueError("the zero polynomial has no initial coefficient")
        return self.terms[0][1]

    def ecart(self) -> int:
        """Weighted-length spread between the top and the initial exponent."""
        if not self.terms:
            raise ValueError("the zero polynomial has no ecart")
        length = self.ring.order.length
        # Terms ascend length-first, so the last term has the largest length.
        return length(self.terms[-1][0]) - length(self.terms[0][0])

    def _packed_form(self) -> tuple[list[int], list[int], Fraction, int]:
        """(keys, ints, scale, top): self is scale * sum(ints[i] * x^e_i),
        where keys[i] is `Order.pack` of e_i, ascending, the ints are coprime
        integers, and top bounds every exponent entry. Computed on first use
        and kept, so a basis element is converted once; callers must not
        mutate the lists."""
        try:
            return self._packed
        except AttributeError:
            pass
        pack = self.ring.order.pack
        keys = [pack(e) for e, _ in self.terms]
        top = max((max(e, default=0) for e, _ in self.terms), default=0)
        den = math.lcm(*(c.denominator for _, c in self.terms))
        ints = [c.numerator * (den // c.denominator) for _, c in self.terms]
        content = math.gcd(*ints) or 1
        if content != 1:
            ints = [c // content for c in ints]
        form = (keys, ints, Fraction(content, den), top)
        object.__setattr__(self, "_packed", form)
        return form

    @staticmethod
    def _from_packed(ring: Ring, keys: list[int], ints: list[int],
                     scale: Fraction, top: int) -> "Poly":
        """The polynomial scale * sum(ints[i] * x^keys[i]), keeping that as
        its packed form. The keys must ascend, the ints must be coprime, and
        top must bound the exponent entries below FIELD_LIMIT."""
        num, den = scale.numerator, scale.denominator
        p = Poly(ring, tuple(zip(ring.order.unpack_all(keys),
                                 [Fraction(num * c, den) for c in ints])))
        object.__setattr__(p, "_packed", (keys, ints, scale, top))
        return p

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("polynomials live in different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        key = self.ring.order.key
        a, b = self.terms, other.terms
        # Each term is keyed once per merge, not once per comparison.
        ka = [key(e) for e, _ in a]
        kb = [key(e) for e, _ in b]
        out: list[tuple[Exponent, Fraction]] = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            ea, ca = a[i]
            eb, cb = b[j]
            if ea == eb:
                c = ca + cb if sign > 0 else ca - cb
                if c:
                    out.append((ea, c))
                i += 1
                j += 1
            elif ka[i] < kb[j]:
                out.append((ea, ca))
                i += 1
            else:
                out.append((eb, cb if sign > 0 else -cb))
                j += 1
        if i < na:
            out.extend(a[i:])
        if j < nb:
            if sign > 0:
                out.extend(b[j:])
            else:
                out.extend((e, -c) for e, c in b[j:])
        return Poly(self.ring, tuple(out))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, +1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._combine(self, -1)

    def __neg__(self):
        return Poly(self.ring, tuple((e, -c) for e, c in self.terms))

    def scaled(self, factor) -> "Poly":
        c = _as_fraction(factor)
        if not c:
            return self.ring.zero()
        return Poly(self.ring, tuple((e, c * v) for e, v in self.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms:
            for eb, cb in o.terms:
                e = exp_add(ea, eb)
                c = acc.get(e, _ZERO) + ca * cb
                if c:
                    acc[e] = c
                else:
                    acc.pop(e, None)
        key = self.ring.order.key
        return Poly(self.ring, tuple((e, acc[e]) for e in sorted(acc, key=key)))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take a nonnegative integer")
        result = self.ring.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _sub_shifted(self, coeff: Fraction, shift: Exponent, other: "Poly") -> "Poly":
        """self - coeff * x^shift * other, without re-sorting.

        Shifting preserves the order of terms, so the shifted copy of `other`
        is already canonical and a linear merge suffices. This is the inner
        step of Mora reduction.
        """
        shifted = tuple((exp_add(e, shift), c * coeff) for e, c in other.terms)
        return self._combine(Poly(self.ring, shifted), -1)

    def content_normalized(self) -> "Poly":
        """Scale by a rational so coefficients are coprime integers and the
        initial coefficient is positive. It goes through the packed form, so
        an exponent entry past FIELD_LIMIT is refused with ValueError."""
        if not self.terms:
            return self
        # The packed form's integer part is the answer up to sign, and the
        # result keeps it, so a standard basis element is packed once.
        keys, ints, _, top = self._packed_form()
        if ints[0] < 0:
            ints = [-c for c in ints]
        return Poly._from_packed(self.ring, keys, ints, _ONE, top)

    # ------------------------------------------------------------------
    # jets, evaluation, coordinate changes

    def jet(self, mu: int) -> "Poly":
        """Truncation keeping the terms of total degree at most mu."""
        if not isinstance(mu, int) or mu < 0:
            raise ValueError("jet order must be a nonnegative integer")
        return Poly(self.ring, tuple((e, c) for e, c in self.terms if sum(e) <= mu))

    def apply_coord_change(self, change: "CoordChange") -> "Poly":
        """Substitute x_i -> sum_j c_ij x_j on every variable."""
        ring = self.ring
        if change.size != ring.arity:
            raise ValueError("coordinate change size does not match the ring")
        images = []
        for row in change.matrix:
            pairs = []
            for j, c in enumerate(row):
                if c:
                    exp = tuple(1 if k == j else 0 for k in range(ring.arity))
                    pairs.append((exp, c))
            images.append(Poly.from_terms(ring, pairs))
        out = ring.zero()
        for exp, coeff in self.terms:
            piece = ring.constant(coeff)
            for i, e in enumerate(exp):
                if e:
                    piece = piece * (images[i] ** e)
            out = out + piece
        return out

    # ------------------------------------------------------------------
    # text form and plumbing

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        names = self.ring.variables
        parts = []
        for i, (exp, coeff) in enumerate(self.terms):
            mono = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(names, exp) if e
            )
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{_format_coeff(mag)}*{mono}"
            else:
                body = _format_coeff(mag)
            if i == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return self.pretty()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.terms))


def resolve_ring(gens, ring: Ring | None) -> tuple[tuple[Poly, ...], Ring]:
    """The generators as a tuple and their common ring.

    The ring defaults to that of the first generator; every generator must be
    a polynomial in it.
    """
    gens = tuple(gens)
    if ring is None:
        if not gens:
            raise ValueError("a ring is required when no generators are given")
        ring = gens[0].ring
    for g in gens:
        if not isinstance(g, Poly) or g.ring != ring:
            raise ValueError("generators must be polynomials in one ring")
    return gens, ring


def _fraction_matrix_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(rows)
    mat = [list(r) for r in rows]
    det = _ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return _ZERO
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col]:
                factor = mat[r][col] * inv
                for c in range(col, n):
                    mat[r][c] -= factor * mat[col][c]
    return det


@dataclass(frozen=True)
class CoordChange:
    """Invertible linear substitution on the variables."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(_as_fraction(c) for c in row) for row in self.matrix)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("coordinate change matrix must be square and nonempty")
        if not _fraction_matrix_det(rows):
            raise ValueError("coordinate change matrix is singular")
        object.__setattr__(self, "matrix", rows)

    @staticmethod
    def identity(n: int) -> "CoordChange":
        return CoordChange(
            tuple(
                tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
            )
        )

    @property
    def size(self) -> int:
        return len(self.matrix)


def determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square matrix of polynomials.

    Cofactor expansion along the first column; fine at the small sizes this
    engine meets (module presentations, trial matrices).
    """
    mat = [list(r) for r in rows]
    n = len(mat)
    if n == 0:
        raise ValueError("determinant of an empty matrix has no ambient ring")
    if any(len(r) != n for r in mat):
        raise ValueError("determinant needs a square matrix")
    ring = mat[0][0].ring
    for r in mat:
        for entry in r:
            if not isinstance(entry, Poly) or entry.ring != ring:
                raise ValueError("matrix entries must be polynomials in one ring")

    def expand(row: int, cols: tuple[int, ...]) -> Poly:
        if len(cols) == 1:
            return mat[row][cols[0]]
        acc = ring.zero()
        for pos, col in enumerate(cols):
            entry = mat[row][col]
            if entry.is_zero:
                continue
            rest = expand(row + 1, cols[:pos] + cols[pos + 1 :])
            piece = entry * rest
            acc = acc + piece if pos % 2 == 0 else acc - piece
        return acc

    return expand(0, tuple(range(n)))
