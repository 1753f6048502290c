"""Standard bases for local orders via Mora normal form with ecart selection.

The order puts low terms first, so the leading (initial) term of an element
is its order-minimal one and plain division need not terminate: dividing x by
x - x^2 keeps producing higher tails. Mora's remedy is to reduce only the
initial term, to pick among the applicable reducers one of minimal ecart
(top degree minus initial degree, measured in the order's weights), and to
throw the current intermediate result into the reducer pool whenever the
chosen reducer's ecart exceeds its own. Each such self-reduction multiplies
the input by a unit of the local ring, which the trace rebuilds exactly from
the recorded steps on first access. For polynomial input the procedure
terminates; a configurable pool ceiling turns pathological blowups into a
clean resource error instead of a hang, and so does a work budget on the
size of the intermediate result while no length cap bounds it.

The Buchberger-style completion processes s-pairs in ascending lcm order and
skips pairs with coprime initial exponents; both are sound for these orders.
Once the partial staircase already has a finite complement, every term whose
weighted length clears that complement lies in the ideal, so reductions may
delete such terms outright. The completion passes that bound to the divider,
which defuses the coefficient blowups deep tails would otherwise cause. The
cap cuts before the merge: the divider shifts only the part of a reducer that
lands below it, and the completion builds only the part of an s-polynomial
below it, so no deep term is ever computed. Deleting terms commutes with
shifting, scaling and subtracting, so the results are those of cutting after.

When the uncapped completion outgrows the work budget before its staircase
has a finite complement, it restarts with a length cap B and certifies the
capped result by the highest corner (Greuel-Pfister, A Singular Introduction
to Commutative Algebra, 1.7): if the capped staircase covers every monomial
of length L and L + max(w) <= B, then J_B lies in m*J_L, so J_L lies in the
ideal by Nakayama, the cap changes nothing, and the capped basis is a
standard basis of the ideal itself. An ideal whose complement is infinite
never certifies and ends in the resource error.

Mora's loop and the s-polynomials read and build the packed form that `Poly`
stores (see `core`), and the cap is a bisection on its keys. A step forms
a*h - b*x^s*g with integer a and b that cancel the initial term, divides out
the content with one gcd, and folds a and the content into the scale. The
values are exact throughout, so remainders, traces and the work budget's
measure are those of the same steps in Fraction arithmetic.
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .core import (
    FIELD_BITS, FIELD_LIMIT, Exponent, Poly, Ring, _fits, _merge, exp_add,
    exp_lcm, resolve_ring,
)
from .diagram import Diagram, covering_length

__all__ = [
    "DEFAULT_POOL_CEILING",
    "DEFAULT_WORK_BUDGET",
    "POOL_CEILING_ENV",
    "WORK_BUDGET_ENV",
    "PoolLimitExceeded",
    "WorkBudgetExceeded",
    "MoraStep",
    "MoraTrace",
    "SPairRecord",
    "SBasis",
    "mora_normal_form",
    "standard_basis",
    "diagram_of_ideal",
]

DEFAULT_POOL_CEILING = 10000
POOL_CEILING_ENV = "STAIRCASE_POOL_CEILING"
DEFAULT_WORK_BUDGET = 100000
WORK_BUDGET_ENV = "STAIRCASE_WORK_BUDGET"
# Capped rounds that may pass without a certified highest corner before the
# work budget's resource error is raised.
_CERTIFY_ROUNDS = 8


class PoolLimitExceeded(RuntimeError):
    """A Mora resource limit was crossed, by default the pool ceiling.

    The reducer pool raises it directly; WorkBudgetExceeded refines it with
    its own message. The command line reports both with exit code 3.
    """

    def __init__(self, limit: int, message: str | None = None):
        super().__init__(
            message or f"reducer pool exceeded the ceiling of {limit}; "
                       f"raise {POOL_CEILING_ENV} to allow more"
        )
        self.limit = limit


class WorkBudgetExceeded(PoolLimitExceeded):
    """Uncapped Mora work outgrew the budget, and no capped round certified.

    `rounds` is the number of capped rounds that ran without a certified
    highest corner, or None when the budget ran out in a bare normal form.
    """

    def __init__(self, limit: int, rounds: int | None = None):
        super().__init__(
            limit,
            f"Mora work exceeded the budget of {limit}"
            + ("" if rounds is None else
               f" and {rounds} capped rounds certified no highest corner")
            + f"; raise {WORK_BUDGET_ENV} to run uncapped longer"
        )
        self.rounds = rounds


def _resolve_limit(env_name: str, default: int,
                   explicit: int | None = None) -> int:
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(env_name)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{env_name} must be an integer, got {env!r}"
            ) from None
    return default


@dataclass(frozen=True)
class MoraStep:
    reducer: str
    shift: Exponent
    coeff: Fraction


@dataclass(frozen=True)
class MoraTrace:
    """Reduction log: one entry per cancelled initial term.

    `pooled_at[k]` is the index of the step at which the intermediate result
    p_k joined the reducer pool. `unit` is the unit u of the local ring with
    u*f - remainder in the ideal generated by the reducers; it stays 1 unless
    intermediate results were used as reducers, and it is rebuilt from the
    recorded steps on first access.
    """

    ring: Ring
    steps: tuple[MoraStep, ...]
    pooled_at: tuple[int, ...]

    @property
    def pool_added(self) -> int:
        return len(self.pooled_at)

    @cached_property
    def unit(self) -> Poly:
        # u_0 = 1, and step i by p_k sets u_{i+1} = u_i - x^shift*coeff*u_j with
        # j = pooled_at[k], since p_k is u_j*f modulo the input reducers. Only
        # the u_j some pool entry needs are kept. Initial exponents grow
        # strictly along a reduction chain, so a pooled intermediate always
        # divides with a nonzero shift and the constant term of the unit
        # survives.
        joined = {f"p{k}": j for k, j in enumerate(self.pooled_at)}
        kept = dict.fromkeys(self.pooled_at)
        unit = self.ring.constant(1)
        for i, step in enumerate(self.steps):
            if i in kept:
                kept[i] = unit
            if step.reducer in joined:
                assert any(step.shift), "pooled reducer used with trivial shift"
                unit = unit - (self.ring.monomial(step.shift, step.coeff)
                               * kept[joined[step.reducer]])
        return unit


@dataclass(slots=True)
class _Entry:
    """A reducer in Mora's pool, in packed form: the polynomial is
    scale * sum(ints[i] * x^keys[i]), and top bounds its exponent entries."""

    keys: list[int]
    ints: list[int]
    scale: Fraction
    top: int
    ecart: int
    label: str


def _primitive(ints: list[int]) -> tuple[list[int], int]:
    """ints divided by their content, and the content (0 for no ints)."""
    content = gcd(*ints)
    if content > 1:
        ints = [c // content for c in ints]
    return ints, content


def mora_normal_form(
    f: Poly, reducers, *,
    pool_ceiling: int | None = None,
    length_cap: int | None = None,
) -> tuple[Poly, MoraTrace]:
    """Weak normal form of f against the reducers.

    Returns (remainder, trace). Either the remainder is zero or its initial
    exponent is divisible by no reducer's initial exponent; in all cases
    trace.unit * f is congruent to the remainder modulo the reducer ideal.

    A length_cap B deletes every term of weighted length at least B before
    it appears: the input is cut once, and each step subtracts only the part
    of the shifted reducer below B. So the normal form is computed modulo
    J_B, the ideal of monomials of length >= B. Either the caller guarantees
    that J_B already lies in the reducer ideal (the completion loop
    certifies this from the partial staircase), and the result is exact, or
    the caller computes in the quotient by J_B on purpose, as
    `standard_basis` does when given a length_cap.

    Without a length_cap nothing bounds the intermediate result, so after
    each step its size, terms times the bits of the initial coefficient, is
    held to the work budget ($STAIRCASE_WORK_BUDGET, else
    DEFAULT_WORK_BUDGET); past it WorkBudgetExceeded is raised. An exponent
    entry that reaches FIELD_LIMIT (2^31) is refused with ValueError.
    """
    reducers = list(reducers)
    ring = f.ring
    for g in reducers:
        if not isinstance(g, Poly) or g.ring != ring:
            raise ValueError("reducers must be polynomials in the same ring")
        if g.is_zero:
            raise ValueError("zero polynomials cannot be reducers")
    ceiling = _resolve_limit(POOL_CEILING_ENV, DEFAULT_POOL_CEILING,
                             pool_ceiling)
    budget = (None if length_cap is not None else
              _resolve_limit(WORK_BUDGET_ENV, DEFAULT_WORK_BUDGET))
    unpack = ring.order.unpack
    # Packed keys carry the weighted length above `low` bits of exponent
    # fields, so a key below B << low is a term shorter than B.
    low = FIELD_BITS * ring.arity
    guards = sum(FIELD_LIMIT << (FIELD_BITS * i) for i in range(ring.arity))
    pool = [_Entry(g.keys, g.ints, g.scale, g.top,
                   (g.keys[-1] >> low) - (g.keys[0] >> low), f"r{i}")
            for i, g in enumerate(reducers)]
    keys, ints, scale, top = f.keys, f.ints, f.scale, f.top
    if length_cap is not None and keys and keys[-1] >= length_cap << low:
        end = bisect_left(keys, length_cap << low)
        ints, content = _primitive(ints[:end])
        keys, scale = keys[:end], scale * content
    steps: list[MoraStep] = []
    pooled_at: list[int] = []
    while keys:
        lead = keys[0]
        # x^e divides x^lead exactly when no field of (lead | guards) - e
        # borrows from its guard bit.
        probe = lead | guards
        # The least (ecart, initial key) wins, ties going to the earliest.
        chosen = None
        for entry in pool:
            if (probe - entry.keys[0]) & guards == guards and (
                    chosen is None
                    or (entry.ecart, entry.keys[0])
                    < (chosen.ecart, chosen.keys[0])):
                chosen = entry
        if chosen is None:
            break
        h_ecart = (keys[-1] >> low) - (lead >> low)
        if chosen.ecart > h_ecart:
            if len(pool) >= ceiling:
                raise PoolLimitExceeded(ceiling)
            pool.append(_Entry(keys, ints, scale, top, h_ecart,
                               f"p{len(pooled_at)}"))
            pooled_at.append(len(steps))
        shift = lead - chosen.keys[0]
        shift_exp = unpack(shift)
        top = max(top, _fits(chosen.top + max(shift_exp)))
        hc0, gc0, gs = ints[0], chosen.ints[0], chosen.scale
        steps.append(MoraStep(chosen.label, shift_exp, Fraction(
            scale.numerator * hc0 * gs.denominator,
            scale.denominator * gc0 * gs.numerator)))
        # h = (scale/a) * (a*h' - b*x^shift*g'), where h' and g' are the
        # integer parts: a*hc0 = b*gc0 cancels the initial term.
        d = gcd(hc0, gc0)
        a, b = gc0 // d, hc0 // d
        end = len(chosen.keys)
        if length_cap is not None:
            end = bisect_left(chosen.keys, (length_cap - (shift >> low)) << low)
        keys, ints = _merge(keys, ints, a, chosen.keys, chosen.ints, b,
                            shift, end)
        ints, content = _primitive(ints)
        scale = Fraction(scale.numerator * content, scale.denominator * a)
        if budget is not None and ints:
            c = Fraction(scale.numerator * ints[0], scale.denominator)
            size = len(ints) * (c.numerator.bit_length()
                                + c.denominator.bit_length())
            if size > budget:
                raise WorkBudgetExceeded(budget)
    remainder = Poly._of(ring, keys, ints, scale, top)
    assert remainder.is_zero or all(
        ((keys[0] | guards) - entry.keys[0]) & guards != guards
        for entry in pool)
    return remainder, MoraTrace(ring, tuple(steps), tuple(pooled_at))


@dataclass(frozen=True)
class SPairRecord:
    steps: int
    reduced_to_zero: bool
    added_index: int | None
    skipped_coprime: bool = False


@dataclass(frozen=True)
class SBasis:
    """A standard basis together with its staircase and the completion log.

    After a work budget breach, `basis` and `trace` are those of the capped
    round that certified the highest corner: the trace holds only that
    round's s-pairs, not those of the breached uncapped attempt or of the
    earlier capped rounds.
    """

    basis: tuple[Poly, ...]
    diagram: Diagram
    trace: tuple[SPairRecord, ...]


def _spoly(f: Poly, g: Poly, cap: int | None) -> Poly:
    """The s-polynomial of f and g without its terms of length >= cap."""
    ring = f.ring
    low = FIELD_BITS * ring.arity
    fk, fc, gk, gc = f.keys, f.ints, g.keys, g.ints
    lcm = ring.order.pack(exp_lcm(f.initial_exponent(), g.initial_exponent()))
    sf, sg = lcm - fk[0], lcm - gk[0]
    top = max(_fits(f.top + max(ring.order.unpack(sf))),
              _fits(g.top + max(ring.order.unpack(sg))))
    end_f, end_g = len(fk), len(gk)
    if cap is not None:
        end_f = bisect_left(fk, (cap - (sf >> low)) << low)
        end_g = bisect_left(gk, (cap - (sg >> low)) << low)
    # x^sf*f/lc(f) - x^sg*g/lc(g) = (a*x^sf*F - b*x^sg*G) / (a*lc(F)), where
    # F and G are the integer parts and a*lc(F) = b*lc(G).
    d = gcd(fc[0], gc[0])
    a, b = gc[0] // d, fc[0] // d
    keys, ints = _merge([k + sf for k in fk[:end_f]], fc[:end_f], a,
                        gk, gc, b, sg, end_g)
    return Poly._of(ring, keys, ints, Fraction(1, a * fc[0]), top)


def _unit_free(f: Poly) -> Poly:
    """x^d when f is x^d times a unit, which spans the same local ideal.

    f is x^d*u with u(0) != 0 exactly when its initial exponent d is the
    componentwise minimum of its support.
    """
    if f.is_zero:
        return f
    d = f.initial_exponent()
    if tuple(map(min, zip(*f.ring.order.unpack_all(f.keys)))) != d:
        return f
    return f.ring.monomial(d)


def standard_basis(
    gens, *, ring: Ring | None = None, pool_ceiling: int | None = None,
    length_cap: int | None = None,
) -> SBasis:
    """Complete the generators to a standard basis and read off the staircase.

    Without a length_cap the returned diagram is exactly the set of initial
    exponents of the ideal the generators span. With a length_cap B the
    result is a standard basis of I + J_B, where J_B is the ideal of
    monomials of weighted length >= B; for a length-first order in(I + J_B)
    and in(I) agree below length B, so the diagram is exact below the cap,
    and every reduction runs in the finite window below B and terminates.
    The basis omits the monomials of J_B, which enter only through the cap,
    so every vertex of that diagram is shorter than B. A generator x^d*u
    with u a unit enters as x^d. Zero generators are dropped, also those
    that the cap empties; basis elements are content normalized; s-pairs are
    processed ascending by lcm so reruns are reproducible.

    Without a length_cap, Mora runs under the work budget (see
    `mora_normal_form`) until the staircase has a finite complement. On a
    breach the completion reruns capped, from B = 1 + max(w): a round whose
    staircase covers length L with L + max(w) <= B certifies the highest
    corner and is returned, a round that shows L moves B to L + max(w), and
    one that shows none moves B up by max(w). After _CERTIFY_ROUNDS (8) rounds
    without a certificate WorkBudgetExceeded is raised.
    """
    gens, ring = resolve_ring(gens, ring)
    if length_cap is not None and length_cap < 1:
        raise ValueError("the length cap must be at least 1")
    gens = [_unit_free(f) for f in gens]
    if length_cap is not None:
        return _complete(gens, ring, pool_ceiling, length_cap)
    try:
        return _complete(gens, ring, pool_ceiling, None)
    except WorkBudgetExceeded as exc:
        budget = exc.limit
    step = max(ring.order.weights)
    cap = 1 + step
    for _ in range(_CERTIFY_ROUNDS):
        sb = _complete(gens, ring, pool_ceiling, cap)
        corner = covering_length(sb.diagram.vertices, ring.order)
        if corner is not None and corner + step <= cap:
            return sb
        cap = cap + step if corner is None else corner + step
    raise WorkBudgetExceeded(budget, _CERTIFY_ROUNDS)


def _complete(gens: list[Poly], ring: Ring, pool_ceiling: int | None,
              length_cap: int | None) -> SBasis:
    """The completion loop of `standard_basis`, capped or under the budget."""
    basis: list[Poly] = []
    for f in gens:
        # Terms ascend length-first, so those below the cap are a prefix.
        end = len(f.keys) if length_cap is None else bisect_left(
            f.keys, length_cap << FIELD_BITS * ring.arity)
        if end:
            basis.append(Poly._of(ring, f.keys[:end], f.ints[:end], f.scale,
                                  f.top).content_normalized())
    inexps: list[Exponent] = [b.initial_exponent() for b in basis]
    records: list[SPairRecord] = []
    pack = ring.order.pack
    heap: list[tuple[int, int, int]] = []

    def push_pairs(j: int) -> None:
        for i in range(j):
            heapq.heappush(heap, (pack(exp_lcm(inexps[i], inexps[j])), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    def window_cap() -> int | None:
        # With a finite complement, a monomial of length >= the covering
        # length reduces forever inside the staircase, so it converges to an
        # ideal element by Krull intersection and dividers may delete it
        # exactly. The caller's length_cap deletes J_B on purpose.
        caps = (covering_length(inexps, ring.order), length_cap)
        return min((c for c in caps if c is not None), default=None)

    cap = window_cap()
    while heap:
        _, i, j = heapq.heappop(heap)
        lcm = exp_lcm(inexps[i], inexps[j])
        if lcm == exp_add(inexps[i], inexps[j]):
            records.append(SPairRecord(0, True, None, True))
            continue
        s = _spoly(basis[i], basis[j], cap)
        if s.is_zero:
            records.append(SPairRecord(0, True, None))
            continue
        remainder, trace = mora_normal_form(
            s, basis, pool_ceiling=pool_ceiling, length_cap=cap)
        if remainder.is_zero:
            records.append(SPairRecord(len(trace.steps), True, None))
            continue
        remainder = remainder.content_normalized()
        basis.append(remainder)
        inexps.append(remainder.initial_exponent())
        new_index = len(basis) - 1
        records.append(SPairRecord(len(trace.steps), False, new_index))
        push_pairs(new_index)
        cap = window_cap()
    diagram = Diagram.from_exponents(inexps, arity=ring.arity)
    return SBasis(tuple(basis), diagram, tuple(records))


def diagram_of_ideal(gens, *, ring: Ring | None = None) -> Diagram:
    """Exact diagram of initial exponents of the ideal the generators span."""
    return standard_basis(gens, ring=ring).diagram
