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
clean resource error instead of a hang.

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
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import (
    Exponent, Poly, Ring, exp_add, exp_divides, exp_lcm, exp_sub, resolve_ring,
)
from .diagram import Diagram, covering_length

__all__ = [
    "DEFAULT_POOL_CEILING",
    "POOL_CEILING_ENV",
    "PoolLimitExceeded",
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


class PoolLimitExceeded(RuntimeError):
    """The Mora reducer pool outgrew the configured ceiling."""

    def __init__(self, limit: int):
        super().__init__(
            f"reducer pool exceeded the ceiling of {limit}; "
            f"raise {POOL_CEILING_ENV} to allow more"
        )
        self.limit = limit


def _resolve_ceiling(explicit: int | None) -> int:
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(POOL_CEILING_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{POOL_CEILING_ENV} must be an integer, got {env!r}"
            ) from None
    return DEFAULT_POOL_CEILING


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
                unit = unit._sub_shifted(step.coeff, step.shift,
                                         kept[joined[step.reducer]])
        return unit


@dataclass(frozen=True)
class _Reducer:
    poly: Poly
    inexp: Exponent
    lead: Fraction
    ecart: int
    label: str
    index: int


def _below(p: Poly, shift: Exponent, cap: int | None) -> Poly:
    """The terms of p that x^shift moves below length cap, unshifted.

    Terms ascend length-first, so they form a prefix; the scan runs from the
    tail, where the deep terms are.
    """
    if cap is None:
        return p
    length = p.ring.order.length
    limit = cap - length(shift)
    terms = p.terms
    end = len(terms)
    while end and length(terms[end - 1][0]) >= limit:
        end -= 1
    if end == len(terms):
        return p
    return Poly(p.ring, terms[:end])


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
    """
    reducers = list(reducers)
    ring = f.ring
    for g in reducers:
        if not isinstance(g, Poly) or g.ring != ring:
            raise ValueError("reducers must be polynomials in the same ring")
        if g.is_zero:
            raise ValueError("zero polynomials cannot be reducers")
    ceiling = _resolve_ceiling(pool_ceiling)
    order = ring.order
    key = order.key
    pool = [
        _Reducer(g, g.initial_exponent(), g.initial_coefficient(),
                 g.ecart(), f"r{i}", i)
        for i, g in enumerate(reducers)
    ]
    h = _below(f, (0,) * ring.arity, length_cap)
    steps: list[MoraStep] = []
    pooled_at: list[int] = []
    while not h.is_zero:
        hexp = h.initial_exponent()
        chosen = None
        chosen_rank = None
        for entry in pool:
            if exp_divides(entry.inexp, hexp):
                rank = (entry.ecart, key(entry.inexp), entry.index)
                if chosen is None or rank < chosen_rank:
                    chosen, chosen_rank = entry, rank
        if chosen is None:
            break
        h_ecart = h.ecart()
        if chosen.ecart > h_ecart:
            if len(pool) >= ceiling:
                raise PoolLimitExceeded(ceiling)
            pool.append(
                _Reducer(h, hexp, h.initial_coefficient(), h_ecart,
                         f"p{len(pooled_at)}", len(pool))
            )
            pooled_at.append(len(steps))
        shift = exp_sub(hexp, chosen.inexp)
        coeff = h.initial_coefficient() / chosen.lead
        # h lies below the cap, so cutting the shifted reducer is enough;
        # its initial term lands on hexp and survives the cut.
        h = h._sub_shifted(coeff, shift, _below(chosen.poly, shift, length_cap))
        steps.append(MoraStep(chosen.label, shift, coeff))
    assert h.is_zero or all(
        not exp_divides(entry.inexp, h.initial_exponent()) for entry in pool
    )
    return h, MoraTrace(ring, tuple(steps), tuple(pooled_at))


@dataclass(frozen=True)
class SPairRecord:
    steps: int
    reduced_to_zero: bool
    added_index: int | None
    skipped_coprime: bool = False


@dataclass(frozen=True)
class SBasis:
    """A standard basis together with its staircase and the completion log."""

    basis: tuple[Poly, ...]
    diagram: Diagram
    trace: tuple[SPairRecord, ...]


def _spoly(f: Poly, g: Poly, cap: int | None) -> Poly:
    """The s-polynomial of f and g without its terms of length >= cap."""
    a, b = f.initial_exponent(), g.initial_exponent()
    lcm = exp_lcm(a, b)
    sa, sb = exp_sub(lcm, a), exp_sub(lcm, b)
    inv = 1 / f.initial_coefficient()
    fa = Poly(f.ring, tuple(
        (exp_add(e, sa), inv * c) for e, c in _below(f, sa, cap).terms))
    return fa._sub_shifted(1 / g.initial_coefficient(), sb, _below(g, sb, cap))


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
    so every vertex of that diagram is shorter than B. Zero generators are
    dropped, also those that the cap empties; basis elements are content
    normalized; s-pairs are processed ascending by lcm so reruns are
    reproducible.
    """
    gens, ring = resolve_ring(gens, ring)
    if length_cap is not None and length_cap < 1:
        raise ValueError("the length cap must be at least 1")
    basis: list[Poly] = [
        g.content_normalized()
        for g in (_below(f, (0,) * ring.arity, length_cap) for f in gens)
        if not g.is_zero]
    inexps: list[Exponent] = [b.initial_exponent() for b in basis]
    records: list[SPairRecord] = []
    order_key = ring.order.key
    heap: list[tuple[tuple, int, int]] = []

    def push_pairs(j: int) -> None:
        for i in range(j):
            lcm = exp_lcm(inexps[i], inexps[j])
            heapq.heappush(heap, (order_key(lcm), i, j))

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
