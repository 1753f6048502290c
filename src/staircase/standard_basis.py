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
forms them by Gebauer and Moeller's update (J. Symbolic Comput. 6, 1988), the
pair criteria that Singular's local `std` uses beside the highest-corner
test. When an element t enters, a queued pair (i, j) whose lcm in(t)
divides is dropped unless lcm(i, t) or lcm(j, t) equals it (the chain
criterion). Of the new pairs (i, t), one whose lcm another's properly
divides is dropped, and of those with equal lcm one is kept, none if one of
them has coprime initial exponents, whose s-polynomial reduces to zero. An
element whose initial exponent in(t) divides forms no later pairs, but stays
a reducer. All of this is sound for these orders.
Once the partial staircase already has a finite complement, every term whose
weighted length clears that complement lies in the ideal, so reductions may
delete such terms outright. The completion passes that bound to the divider,
which defuses the coefficient blowups deep tails would otherwise cause. The
completion walks that complement once, when the last axis gets a pure power;
an element that enters afterwards only drops the points its initial exponent
divides, since the complement can only shrink. The diagram it returns carries
the complement, so the diagram's queries read it instead of walking. The
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
stores, and cut at the cap, through the layout that `core` keeps. A step forms
a*h - b*x^s*g with integer a and b that cancel the initial term, divides out
the content with one gcd, and folds a and the content into the scale. The
loop keeps the scale as a reduced integer pair (numerator, denominator),
with one gcd per step, and builds a Fraction only for the remainder. The
work budget measures the terms times the bits of the reduced initial
coefficient, which one more gcd gives. Each step is logged as its reducer's
label, its packed shift and the integer numerator and denominator of its
coefficient; the trace builds MoraSteps from that log on first read. The
values are exact throughout, so remainders, traces and the work budget's
measure are those of the same steps in Fraction arithmetic.
"""

from __future__ import annotations

import heapq
import os
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from math import gcd
from typing import NamedTuple

from .core import (
    Exponent, Poly, Ring, _cut, _merge, _Record, exp_lcm, resolve_ring,
)
from .diagram import Diagram, _ShrinkingComplement

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


def _resolve_limit(env_name: str, default: int) -> int:
    env = os.environ.get(env_name)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{env_name} must be an integer, got {env!r}"
            ) from None
    return default


class MoraStep(NamedTuple):
    reducer: str
    shift: Exponent
    coeff: Fraction


class MoraTrace(_Record):
    """Reduction log: one entry per cancelled initial term.

    `pooled_at[k]` is the index of the step at which the intermediate result
    p_k joined the reducer pool. `unit` is the unit u of the local ring with
    u*f - remainder in the ideal generated by the reducers; it stays 1 unless
    intermediate results were used as reducers. Mora logs each step as its
    reducer's label, the packed shift and the coefficient's numerator and
    denominator; `steps` builds the MoraSteps from that log on first read,
    and `unit` builds from `steps`, so a caller that only counts steps
    builds neither. Traces are immutable values.
    """

    _fields = ("ring", "steps", "pooled_at")

    def __init__(self, ring: Ring, steps: tuple[MoraStep, ...],
                 pooled_at: tuple[int, ...]):
        self._set(ring=ring, steps=steps, pooled_at=pooled_at)

    @classmethod
    def _logged(cls, ring: Ring, log: tuple[tuple[str, int, int, int], ...],
                pooled_at: tuple[int, ...]) -> "MoraTrace":
        """The trace of Mora's log, whose steps are built on first read."""
        trace = cls.__new__(cls)
        trace._set(ring=ring, _log=log, pooled_at=pooled_at)
        return trace

    @cached_property
    def steps(self) -> tuple[MoraStep, ...]:
        unpack = self.ring.order.unpack
        return tuple(MoraStep(label, unpack(shift), Fraction(num, den))
                     for label, shift, num, den in self._log)

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


def _primitive(ints: list[int]) -> tuple[list[int], int]:
    """ints divided by their content, and the content (0 for no ints)."""
    content = gcd(*ints)
    if content > 1:
        ints = [c // content for c in ints]
    return ints, content


def mora_normal_form(
    f: Poly, reducers, *, length_cap: int | None = None,
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
    entry past the packed field (2^31 and up) is refused with ValueError.
    """
    reducers = list(reducers)
    ring = f.ring
    for g in reducers:
        if not isinstance(g, Poly) or g.ring != ring:
            raise ValueError("reducers must be polynomials in the same ring")
        if g.is_zero:
            raise ValueError("zero polynomials cannot be reducers")
    ceiling = _resolve_limit(POOL_CEILING_ENV, DEFAULT_POOL_CEILING)
    budget = (None if length_cap is not None else
              _resolve_limit(WORK_BUDGET_ENV, DEFAULT_WORK_BUDGET))
    order = ring.order
    low, guards = order.length_shift, order.guards  # see core.Order
    # A pool entry is (ecart, initial key, position, label, keys, ints, sn,
    # sd): the polynomial is sn/sd * sum(ints[i] * x^keys[i]). The first
    # three fields lead so that the least entry is Mora's choice: least
    # ecart, then least initial key, then the earliest. Positions are
    # unique, so no comparison reaches the lists. Each step's `core._cut`
    # refuses exponent entries past the field.
    pool = [((g.keys[-1] >> low) - (g.keys[0] >> low), g.keys[0], i, f"r{i}",
             g.keys, g.ints, g.scale.numerator, g.scale.denominator)
            for i, g in enumerate(reducers)]
    keys, ints, scale = f.keys, f.ints, f.scale
    end = _cut(order, keys, 0, length_cap)
    if end < len(keys):
        ints, content = _primitive(ints[:end])
        keys, scale = keys[:end], scale * content
    sn, sd = scale.numerator, scale.denominator
    log: list[tuple[str, int, int, int]] = []
    pooled_at: list[int] = []
    while keys:
        lead = keys[0]
        probe = lead | guards
        chosen = None
        for entry in pool:
            if (probe - entry[1]) & guards == guards and (
                    chosen is None or entry < chosen):
                chosen = entry
        if chosen is None:
            break
        g_ecart, g_lead, _, label, g_keys, g_ints, gn, gd = chosen
        h_ecart = (keys[-1] >> low) - (lead >> low)
        if g_ecart > h_ecart:
            if len(pool) >= ceiling:
                raise PoolLimitExceeded(ceiling)
            pool.append((h_ecart, lead, len(pool), f"p{len(pooled_at)}",
                         keys, ints, sn, sd))
            pooled_at.append(len(log))
        shift = lead - g_lead
        end = _cut(order, g_keys, shift, length_cap)
        hc0, gc0 = ints[0], g_ints[0]
        log.append((label, shift, sn * hc0 * gd, sd * gc0 * gn))
        # h = (sn/sd/a) * (a*h' - b*x^shift*g'), where h' and g' are the
        # integer parts: a*hc0 = b*gc0 cancels the initial term.
        d = gcd(hc0, gc0)
        a, b = gc0 // d, hc0 // d
        keys, ints = _merge(keys, ints, a, g_keys, g_ints, b, shift, end)
        ints, content = _primitive(ints)
        sn, sd = sn * content, sd * a
        d = gcd(sn, sd)
        sn, sd = sn // d, sd // d
        if budget is not None and ints:
            n = sn * ints[0]
            d = gcd(n, sd)
            size = len(ints) * ((n // d).bit_length()
                                + (sd // d).bit_length())
            if size > budget:
                raise WorkBudgetExceeded(budget)
    remainder = Poly._of(ring, keys, ints, Fraction(sn, sd))
    assert remainder.is_zero or all(
        ((keys[0] | guards) - entry[1]) & guards != guards
        for entry in pool)
    return remainder, MoraTrace._logged(ring, tuple(log), tuple(pooled_at))


class SPairRecord(NamedTuple):
    """One s-pair of the completion: the Mora steps that reduced it, whether
    it added nothing to the basis, and the index of what it added.

    A pair that a criterion drops is not reduced: it is recorded with no
    steps as reduced to zero, with `skipped_coprime` when its initial
    exponents are coprime, whichever criterion drops it, and with
    `skipped_chain` otherwise.
    """

    steps: int
    reduced_to_zero: bool
    added_index: int | None
    skipped_coprime: bool = False
    skipped_chain: bool = False


class SBasis(NamedTuple):
    """A standard basis together with its staircase and the completion log.

    `trace` holds one record per s-pair the completion formed, reduced or
    dropped by a criterion. An element that a later one makes redundant
    forms no pairs with the elements after it, but stays in `basis`.
    After a work budget breach, `basis` and `trace` are those of the capped
    round that certified the highest corner: the trace holds only that
    round's s-pairs, not those of the breached uncapped attempt or of the
    earlier capped rounds.
    """

    basis: tuple[Poly, ...]
    diagram: Diagram
    trace: tuple[SPairRecord, ...]


def _spoly(f: Poly, g: Poly, lcm: int, cap: int | None) -> Poly:
    """The s-polynomial of f and g without its terms of length >= cap.

    `lcm` is the packed key of the lcm of their initial exponents, as the
    completion's s-pair queue holds it."""
    ring, order = f.ring, f.ring.order
    fk, fc, gk, gc = f.keys, f.ints, g.keys, g.ints
    sf, sg = lcm - fk[0], lcm - gk[0]
    end_f, end_g = _cut(order, fk, sf, cap), _cut(order, gk, sg, cap)
    # x^sf*f/lc(f) - x^sg*g/lc(g) = (a*x^sf*F - b*x^sg*G) / (a*lc(F)), where
    # F and G are the integer parts and a*lc(F) = b*lc(G).
    d = gcd(fc[0], gc[0])
    a, b = gc[0] // d, fc[0] // d
    keys, ints = _merge([k + sf for k in fk[:end_f]], fc[:end_f], a,
                        gk, gc, b, sg, end_g)
    return Poly._of(ring, keys, ints, Fraction(1, a * fc[0]))


def _unit_free(f: Poly) -> Poly:
    """x^d when f is x^d times a unit, which spans the same local ideal.

    f is x^d*u with u(0) != 0 exactly when x^d, its initial term, divides
    every term, which the guard test of `core.Order` reads off the keys.
    """
    if f.is_zero:
        return f
    lead, guards = f.keys[0], f.ring.order.guards
    if any(((k | guards) - lead) & guards != guards for k in f.keys):
        return f
    return Poly(f.ring, [lead], [1], Fraction(1))


def standard_basis(
    gens, *, ring: Ring | None = None, length_cap: int | None = None,
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
        return _complete(gens, ring, length_cap)
    try:
        return _complete(gens, ring, None)
    except WorkBudgetExceeded as exc:
        budget = exc.limit
    step = max(ring.order.weights)
    cap = 1 + step
    for _ in range(_CERTIFY_ROUNDS):
        sb = _complete(gens, ring, cap)
        corner = sb.diagram._covering_length(ring.order)
        if corner is not None and corner + step <= cap:
            return sb
        cap = cap + step if corner is None else corner + step
    raise WorkBudgetExceeded(budget, _CERTIFY_ROUNDS)


def _complete(gens: list[Poly], ring: Ring, length_cap: int | None) -> SBasis:
    """The completion loop of `standard_basis`, capped or under the budget."""
    basis: list[Poly] = []
    for f in gens:
        end = _cut(ring.order, f.keys, 0, length_cap)
        if end:
            basis.append(Poly._of(ring, f.keys[:end], f.ints[:end],
                                  f.scale).content_normalized())
    inexps: list[Exponent] = [b.initial_exponent() for b in basis]
    records: list[SPairRecord] = []
    pack, guards = ring.order.pack, ring.order.guards
    heap: list[tuple[int, int, int]] = []
    live: list[int] = []  # the elements that still form pairs
    coprime_skip = SPairRecord(0, True, None, skipped_coprime=True)
    chain_skip = SPairRecord(0, True, None, skipped_chain=True)

    def enter(t: int) -> None:
        # Gebauer and Moeller's update as basis[t] enters. Packed keys add as
        # exponents do, and a proper divisor of an lcm is a shorter term with
        # a smaller key, so sorting the new pairs puts such divisors first.
        lead = basis[t].keys[0]
        lcms = [pack(exp_lcm(e, inexps[t])) for e in inexps[:t]]
        queued = len(heap)
        heap[:] = [(lcm, i, j) for lcm, i, j in heap
                   if ((lcm | guards) - lead) & guards != guards
                   or lcm == lcms[i] or lcm == lcms[j]]
        records.extend([chain_skip] * (queued - len(heap)))
        heapq.heapify(heap)
        minimal: list[int] = []
        for lcm, group in groupby(sorted((lcms[i], i) for i in live),
                                  key=lambda pair: pair[0]):
            indices = [i for _, i in group]
            coprime = [lcm == basis[i].keys[0] + lead for i in indices]
            kept = None
            if all(((lcm | guards) - m) & guards != guards for m in minimal):
                minimal.append(lcm)
                if not any(coprime):
                    kept = indices[0]
                    heapq.heappush(heap, (lcm, kept, t))
            records.extend(coprime_skip if c else chain_skip
                           for i, c in zip(indices, coprime) if i != kept)
        live[:] = [i for i in live
                   if ((basis[i].keys[0] | guards) - lead) & guards != guards]
        live.append(t)

    outside = _ShrinkingComplement(ring.order)
    for t in range(len(basis)):
        enter(t)
        outside.add(inexps[t])

    def window_cap() -> int | None:
        # With a finite complement, a monomial of length >= the covering
        # length reduces forever inside the staircase, so it converges to an
        # ideal element by Krull intersection and dividers may delete it
        # exactly. The caller's length_cap deletes J_B on purpose.
        caps = (outside.length(), length_cap)
        return min((c for c in caps if c is not None), default=None)

    cap = window_cap()
    while heap:
        lcm, i, j = heapq.heappop(heap)
        s = _spoly(basis[i], basis[j], lcm, cap)
        if s.is_zero:
            records.append(SPairRecord(0, True, None))
            continue
        remainder, trace = mora_normal_form(s, basis, length_cap=cap)
        if remainder.is_zero:
            records.append(SPairRecord(len(trace._log), True, None))
            continue
        remainder = remainder.content_normalized()
        basis.append(remainder)
        inexps.append(remainder.initial_exponent())
        new_index = len(basis) - 1
        records.append(SPairRecord(len(trace._log), False, new_index))
        enter(new_index)
        outside.add(inexps[new_index])
        cap = window_cap()
    return SBasis(tuple(basis), outside.diagram(), tuple(records))


def diagram_of_ideal(gens, *, ring: Ring | None = None) -> Diagram:
    """Exact diagram of initial exponents of the ideal the generators span."""
    return standard_basis(gens, ring=ring).diagram
