"""Exact sparse polynomial arithmetic over the rationals for local ring work.

Exponents are plain integer tuples. The term order compares the tuples
(weighted length, e1, ..., em) lexicographically and the *initial* term of a
polynomial is the order-minimal one, so the lowest part of a series carries
the leading data, as is usual for local rings.

A polynomial has one representation, a packed form (Monagan-Pearce,
Polynomial division using dynamic arrays, heaps, and packed exponent
vectors, CASC 2007). A term's key is one integer with the weighted length in
the top field and e_1..e_m in fixed-width fields below it, so comparing two
terms is one integer comparison, shifting a term is one addition, and
cutting at a length is a bisection. The coefficients are coprime integers
times one positive Fraction scale. The form is canonical: keys strictly
ascending, no zero integer, coprime integers and a positive scale, so equal
polynomials store equal fields. Sums, differences and Mora's steps run on
one merge, a*h - b*x^s*g with integer a and b; a product multiplies the
integer parts, which stay coprime by Gauss's lemma. Every exponent entry must
stay below FIELD_LIMIT (2^31): an entry past it is refused with ValueError
when the polynomial is built, never wrapped. `Poly.terms` lists the
(exponent, Fraction) pairs, built on first read.

Every value here is immutable. Floats are rejected outright, as
coefficients, exponents, order weights and diagram vertices.
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


def _as_ints(values, what: str) -> tuple[int, ...]:
    """values as a tuple, refusing anything but integers."""
    out = tuple(values)
    for v in out:
        if not isinstance(v, int):
            raise TypeError(f"{what} must be integers, not {type(v).__name__}")
    return out


def _fits(entry: int) -> int:
    """entry, refused with ValueError when it does not fit a packed field."""
    if entry >= FIELD_LIMIT:
        raise ValueError(f"exponent {entry} does not fit a packed field "
                         f"(limit 2^{FIELD_BITS - 1})")
    return entry


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
    keys come first; the zero exponent is the global minimum. `pack` makes
    that key one integer.
    """

    weights: tuple[int, ...]

    def __post_init__(self):
        ws = _as_ints(self.weights, "order weights")
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

    def pack(self, exp: Exponent) -> int:
        """The key of exp as one integer: integers compare as keys do, and
        adding two packed keys packs the sum of the exponents while every
        field stays below FIELD_LIMIT. An exponent past it is refused."""
        packed = self.length(exp)
        for e in exp:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            packed = packed << FIELD_BITS | _fits(e)
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
        return Poly(self, [], [], _ONE, 0)

    def constant(self, value) -> "Poly":
        return self.monomial((0,) * self.arity, value)

    def monomial(self, exp: Exponent, coeff=1) -> "Poly":
        return Poly.from_terms(self, [(exp, coeff)])

    def variable(self, name: str) -> "Poly":
        i = self.var_index(name)
        exp = tuple(1 if j == i else 0 for j in range(self.arity))
        return self.monomial(exp)


def _merge(hk: list[int], hc: list[int], a: int,
           gk: list[int], gc: list[int], b: int, shift: int,
           end: int) -> tuple[list[int], list[int]]:
    """a*h - b*x^shift*g[:end] on packed terms, zero sums dropped."""
    keys: list[int] = []
    ints: list[int] = []
    push_key, push_int = keys.append, ints.append
    i = j = 0
    nh = len(hk)
    if end:
        kg = gk[0] + shift
    while i < nh and j < end:
        kh = hk[i]
        if kh < kg:
            push_key(kh)
            push_int(a * hc[i])
            i += 1
            continue
        if kh == kg:
            c = a * hc[i] - b * gc[j]
            if c:
                push_key(kh)
                push_int(c)
            i += 1
        else:
            push_key(kg)
            push_int(-b * gc[j])
        j += 1
        if j < end:
            kg = gk[j] + shift
    if i < nh:
        keys += hk[i:]
        ints += hc[i:] if a == 1 else [a * c for c in hc[i:]]
    if j < end:
        keys += [k + shift for k in gk[j:end]]
        ints += [-b * c for c in gc[j:end]]
    return keys, ints


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class Poly:
    """Immutable sparse polynomial scale * sum(ints[i] * x^e_i).

    `keys[i]` is `Order.pack` of e_i, strictly ascending in the ring's order,
    the `ints` are nonzero and coprime, `scale` is a positive Fraction, and
    `top` bounds every exponent entry below FIELD_LIMIT: `from_terms` sets
    the largest entry, and arithmetic keeps a bound that cancellations and
    products may leave loose. It is not part of the value, so equality and
    hashing skip it. Zero has no keys and the scale 1. Callers must not
    mutate the lists.
    """

    __slots__ = ("ring", "keys", "ints", "scale", "top", "_terms")

    def __init__(self, ring: Ring, keys: list[int], ints: list[int],
                 scale: Fraction, top: int):
        # Trusted constructor: the fields must already be canonical. Build
        # with Poly.from_terms, the Ring helpers or Poly._of otherwise.
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "top", top)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def _of(ring: Ring, keys: list[int], ints: list[int], scale: Fraction,
            top: int) -> "Poly":
        """The canonical form of scale * sum(ints[i] * x^keys[i]), for
        strictly ascending keys and nonzero ints: the content and the sign
        of scale move from the ints into the scale."""
        content = math.gcd(*ints)
        if not content:
            return ring.zero()
        if scale.numerator < 0:
            content = -content
        if content != 1:
            ints = [c // content for c in ints]
            scale = scale * content
        return Poly(ring, keys, ints, scale, top)

    @staticmethod
    def from_terms(ring: Ring, pairs: Iterable[tuple[Exponent, object]]) -> "Poly":
        acc: dict[int, Fraction] = {}
        pack = ring.order.pack
        top = 0
        for exp, coeff in pairs:
            exp = _as_ints(exp, "exponents")
            key = pack(exp)
            c = _as_fraction(coeff)
            if c:
                acc[key] = acc.get(key, _ZERO) + c
                top = max(top, *exp)
        keys = sorted(k for k, c in acc.items() if c)
        den = math.lcm(*(acc[k].denominator for k in keys))
        ints = [acc[k].numerator * (den // acc[k].denominator) for k in keys]
        return Poly._of(ring, keys, ints, Fraction(1, den), top)

    # ------------------------------------------------------------------
    # inspection

    @property
    def terms(self) -> tuple[tuple[Exponent, Fraction], ...]:
        """(exponent, coefficient) pairs ascending in the ring's order,
        built on first read and kept."""
        try:
            return self._terms
        except AttributeError:
            pass
        num, den = self.scale.numerator, self.scale.denominator
        terms = tuple(zip(self.ring.order.unpack_all(self.keys),
                          [Fraction(num * c, den) for c in self.ints]))
        object.__setattr__(self, "_terms", terms)
        return terms

    @property
    def is_zero(self) -> bool:
        return not self.keys

    @property
    def constant_term(self) -> Fraction:
        if self.keys and not self.keys[0]:
            return self.scale * self.ints[0]
        return _ZERO

    def initial_exponent(self) -> Exponent:
        """Order-minimal exponent of the support."""
        if not self.keys:
            raise ValueError("the zero polynomial has no initial exponent")
        return self.ring.order.unpack(self.keys[0])

    def initial_coefficient(self) -> Fraction:
        if not self.keys:
            raise ValueError("the zero polynomial has no initial coefficient")
        return self.scale * self.ints[0]

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.keys:
            return self
        if not self.keys:
            return o
        # self + o = (o.scale/q) * (p*H + q*G) with p/q = self.scale/o.scale.
        r = self.scale / o.scale
        keys, ints = _merge(self.keys, self.ints, r.numerator,
                            o.keys, o.ints, -r.denominator, 0, len(o.keys))
        return Poly._of(self.ring, keys, ints, o.scale / r.denominator,
                        max(self.top, o.top))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + -self

    def __neg__(self):
        return Poly(self.ring, self.keys, [-c for c in self.ints], self.scale,
                    self.top)

    def scaled(self, factor) -> "Poly":
        c = _as_fraction(factor)
        if not c or not self.keys:
            return self.ring.zero()
        ints = self.ints if c > 0 else [-v for v in self.ints]
        return Poly(self.ring, self.keys, ints, self.scale * abs(c), self.top)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.keys or not o.keys:
            return self.ring.zero()
        acc: dict[int, int] = {}
        get = acc.get
        for ka, ca in zip(self.keys, self.ints):
            for kb, cb in zip(o.keys, o.ints):
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        keys = sorted(k for k, c in acc.items() if c)
        top = self.top + o.top
        if top >= FIELD_LIMIT:
            # The bound is loose when the entries peak in different
            # variables or terms cancelled. A field sum stays below 2^32,
            # so it never carries and unpacks whole.
            top = _fits(max(map(max, self.ring.order.unpack_all(keys))))
        # The integer parts are primitive, so their product is too.
        return Poly(self.ring, keys, [acc[k] for k in keys],
                    self.scale * o.scale, top)

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

    def content_normalized(self) -> "Poly":
        """Scale by a rational so coefficients are coprime integers and the
        initial coefficient is positive."""
        if not self.keys or (self.scale == 1 and self.ints[0] > 0):
            return self
        ints = self.ints if self.ints[0] > 0 else [-c for c in self.ints]
        return Poly(self.ring, self.keys, ints, _ONE, self.top)

    # ------------------------------------------------------------------
    # jets, evaluation, coordinate changes

    def jet(self, mu: int) -> "Poly":
        """Truncation keeping the terms of total degree at most mu."""
        if not isinstance(mu, int) or mu < 0:
            raise ValueError("jet order must be a nonnegative integer")
        exps = self.ring.order.unpack_all(self.keys)
        kept = [i for i, e in enumerate(exps) if sum(e) <= mu]
        return Poly._of(self.ring, [self.keys[i] for i in kept],
                        [self.ints[i] for i in kept], self.scale, self.top)

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
        return (self.ring == other.ring and self.keys == other.keys
                and self.ints == other.ints and self.scale == other.scale)

    def __hash__(self):
        return hash((self.ring, tuple(self.keys), tuple(self.ints),
                     self.scale))


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
