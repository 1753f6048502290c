"""Certificates for regular sequences, flatness of map germs, and jet bounds.

Verdicts are three-valued. CertifiedYes and CertifiedNo carry a reproducible
certificate (dimensions, staircase vertices, seeds, trial data); searches
that merely fail to find a witness return UnknownAtBound and never claim a
negative. The flatness test follows the fibre-dimension route: a map germ
from a complete intersection V(h) in K^m to K^n is flat at the origin exactly
when the fibre ideal (h, phi) cuts dimension (m - s) - n, and when that fibre
is finite its length mu0 bounds how deep a jet must agree with the map before
the answer is forced.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .core import (
    CoordChange, Exponent, Poly, Ring, _Record, resolve_ring, total_degree,
)
from .diagram import Diagram, axis_powers
from .standard_basis import diagram_of_ideal, standard_basis

__all__ = [
    "VerdictKind",
    "Verdict",
    "MapSpec",
    "SourceNotCompleteIntersection",
    "NoCertifiedBound",
    "jet_ideal",
    "regular_sequence",
    "random_coord_change",
    "regseq_axis_certificate",
    "fibre_ideal",
    "flat_ci",
    "milnor_mu0",
    "determinacy_bound",
    "FlatnessRow",
    "FlatnessReport",
    "jet_flatness_equivalence",
    "diagram_determinacy_check",
    "SweepRow",
    "SweepReport",
    "jet_sweep",
    "DimProbeRow",
    "DimProbeReport",
    "dimension_semicontinuity_probe",
    "PerturbationSample",
    "PerturbationReport",
    "perturbation_test",
]


class VerdictKind(str, Enum):
    CERTIFIED_YES = "certified-yes"
    CERTIFIED_NO = "certified-no"
    UNKNOWN_AT_BOUND = "unknown-at-bound"


class Verdict(NamedTuple):
    kind: VerdictKind
    certificate: dict
    bound: int | None = None

    @staticmethod
    def yes(certificate: dict) -> "Verdict":
        return Verdict(VerdictKind.CERTIFIED_YES, certificate)

    @staticmethod
    def no(certificate: dict) -> "Verdict":
        return Verdict(VerdictKind.CERTIFIED_NO, certificate)

    @staticmethod
    def unknown(bound: int, certificate: dict | None = None) -> "Verdict":
        return Verdict(VerdictKind.UNKNOWN_AT_BOUND, certificate or {}, bound)

    @property
    def is_yes(self) -> bool:
        return self.kind is VerdictKind.CERTIFIED_YES

    @property
    def is_no(self) -> bool:
        return self.kind is VerdictKind.CERTIFIED_NO

    @property
    def is_unknown(self) -> bool:
        return self.kind is VerdictKind.UNKNOWN_AT_BOUND

    def to_dict(self) -> dict:
        out = {"kind": self.kind.value, "certificate": self.certificate}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


class SourceNotCompleteIntersection(ValueError):
    """The relations are not certified to cut a complete intersection."""


class NoCertifiedBound(RuntimeError):
    """Neither the finite-fibre nor the certified-flat route yields a bound."""


class MapSpec(_Record):
    """A polynomial map germ V(relations) -> K^n at the origin of K^m.

    `components` are the n coordinate functions; both relations and
    components must vanish at the origin. Map germs are immutable values.
    """

    _fields = ("ring", "relations", "components")

    def __init__(self, ring: Ring, relations: tuple[Poly, ...],
                 components: tuple[Poly, ...]):
        relations, components = tuple(relations), tuple(components)
        if not relations and not components:
            raise ValueError("a map germ needs at least one relation or component")
        for p in relations + components:
            if not isinstance(p, Poly) or p.ring != ring:
                raise ValueError("relations and components must live in the ring")
            if p.constant_term:
                raise ValueError("relations and components must vanish at the origin")
        self._set(ring=ring, relations=relations, components=components)

    @property
    def source_codim(self) -> int:
        return len(self.relations)

    @property
    def target_dim(self) -> int:
        return len(self.components)


def jet_ideal(gens, mu: int) -> list[Poly]:
    """Jets of the generators, zero results dropped."""
    out = []
    for g in gens:
        j = g.jet(mu)
        if not j.is_zero:
            out.append(j)
    return out


def regular_sequence(gens, *, ring: Ring | None = None) -> Verdict:
    """Decide regularity of the sequence by the exact quotient dimension.

    A sequence of s elements is regular exactly when the quotient has
    dimension m - s. The unit ideal and oversized sequences are rejected
    outright; the empty sequence is regular.
    """
    gens, ring = resolve_ring(gens, ring)
    m = ring.arity
    s = len(gens)
    if s > m:
        return Verdict.no({
            "reason": "more generators than the ambient dimension",
            "generators": s,
            "ambient_dimension": m,
        })
    d = diagram_of_ideal([g for g in gens if not g.is_zero], ring=ring)
    if d.contains((0,) * m):
        return Verdict.no({"reason": "unit ideal", "vertices": d.to_lists()})
    dim = d.quotient_dimension()
    certificate = {
        "quotient_dimension": dim,
        "expected_dimension": m - s,
        "vertices": d.to_lists(),
    }
    if dim == m - s:
        return Verdict.yes(certificate)
    return Verdict.no(certificate)


_ENTRY_BOUND = 5


def random_coord_change(ring: Ring, rng: random.Random) -> CoordChange:
    """Seeded random invertible integer matrix acting on the variables."""
    size = ring.arity
    while True:
        rows = tuple(
            tuple(Fraction(rng.randint(-_ENTRY_BOUND, _ENTRY_BOUND))
                  for _ in range(size))
            for _ in range(size)
        )
        try:
            return CoordChange(rows)
        except ValueError:
            continue


def regseq_axis_certificate(gens, *, trials: int = 8, seed: int = 0,
                            bound: int = 12,
                            ring: Ring | None = None) -> Verdict:
    """Search for pure-power staircase vertices on the first s axes.

    Trial 0 keeps the coordinates; later trials apply seeded random integer
    changes. Each trial reads the window of weighted length at most `bound`
    from a Mora completion capped at bound + 1, which is exact there; its
    vertices are shorter than bound + 1, so each axis's least pure-power
    vertex is read off them. Finding a pure power of each of the first s
    axes inside the window certifies the quotient dimension is at most
    m - s, hence the sequence is regular; the certificate is
    self-validating. Absence of a witness is only ever UnknownAtBound, never
    a negative.
    """
    gens, ring = resolve_ring(gens, ring)
    if trials < 1:
        raise ValueError("at least one trial is required")
    if bound < 1:
        raise ValueError("the search bound must be at least 1")
    s = len(gens)
    m = ring.arity
    if s == 0:
        return Verdict.yes({"axis_vertices": [], "trial": 0, "seed": seed,
                            "matrix": [], "bound": bound})
    if s > m:
        return Verdict.unknown(bound, {
            "reason": "more generators than axes", "trials": 0, "seed": seed})
    nonzero = [g for g in gens if not g.is_zero]
    if len(nonzero) < s:
        return Verdict.unknown(bound, {
            "reason": "zero generator in the sequence", "trials": 0, "seed": seed})
    rng = random.Random(seed)
    for trial in range(trials):
        change = (CoordChange.identity(m) if trial == 0
                  else random_coord_change(ring, rng))
        moved = [g.apply_coord_change(change) for g in nonzero]
        window = standard_basis(moved, ring=ring, length_cap=bound + 1).diagram
        powers = axis_powers(window.vertices, m)[:s]
        if None not in powers:
            # A vertex at the origin puts the first power of each axis inside.
            axes = [[max(p, 1) if i == axis else 0 for i in range(m)]
                    for axis, p in enumerate(powers)]
            matrix = [[int(c) if c.denominator == 1 else str(c) for c in row]
                      for row in change.matrix]
            return Verdict.yes({
                "axis_vertices": axes,
                "trial": trial,
                "seed": seed,
                "matrix": matrix,
                "bound": bound,
            })
    return Verdict.unknown(bound, {"trials": trials, "seed": seed})


def fibre_ideal(m: MapSpec) -> list[Poly]:
    """Generators of the special fibre: the graph ideal evaluated at base zero.

    The graph of phi inside K^n x K^m is cut by the relations together with
    y_j - phi_j; setting the target coordinates y to zero leaves exactly the
    relations followed by the components. Zero polynomials are dropped.
    """
    return [p for p in m.relations + m.components if not p.is_zero]


def flat_ci(m: MapSpec) -> Verdict:
    """Flatness of the germ via the fibre-dimension criterion.

    Requires the relations to be a certified regular sequence (the source is
    then a complete intersection of dimension m - s); the germ is flat at the
    origin exactly when the fibre ideal has quotient dimension (m - s) - n.
    """
    source = regular_sequence(m.relations, ring=m.ring)
    if not source.is_yes:
        raise SourceNotCompleteIntersection(
            "the relations are not a certified regular sequence, so the "
            "fibre-dimension flatness test does not apply"
        )
    expected = (m.ring.arity - m.source_codim) - m.target_dim
    if expected < 0:
        return Verdict.no({
            "reason": "target dimension exceeds the source dimension",
            "expected_fibre_dimension": expected,
        })
    d = diagram_of_ideal(fibre_ideal(m), ring=m.ring)
    certificate = {
        "fibre_dimension": d.quotient_dimension(),
        "expected_fibre_dimension": expected,
        "fibre_vertices": d.to_lists(),
    }
    if certificate["fibre_dimension"] == expected:
        return Verdict.yes(certificate)
    return Verdict.no(certificate)


def _fibre_length(d: Diagram) -> int | None:
    k = d.power_of_maximal()
    if k is None:
        return None
    return d.hilbert_samuel(k)


def milnor_mu0(m: MapSpec) -> int | None:
    """Length of the special fibre, None when it is not finite."""
    return _fibre_length(diagram_of_ideal(fibre_ideal(m), ring=m.ring))


def determinacy_bound(m: MapSpec, *, trials: int = 8, seed: int = 0,
                      bound: int = 12) -> tuple[int, str]:
    """A certified jet order beyond which perturbations cannot matter.

    Finite fibre: the fibre length mu0 is returned with scope "full", meaning
    agreement of mu0-jets transfers flatness in both directions. Otherwise,
    for a certified flat germ over a complete intersection, the maximal
    pure-power length from an axis certificate of the fibre ideal is returned
    with scope "forward-only": perturbing beyond that order preserves
    flatness, with no converse claimed.
    """
    mu0 = milnor_mu0(m)
    if mu0 is not None:
        return mu0, "full"
    verdict = flat_ci(m)
    if verdict.is_yes:
        axis = regseq_axis_certificate(
            fibre_ideal(m), trials=trials, seed=seed, bound=bound, ring=m.ring)
        if axis.is_yes:
            mu = max(total_degree(tuple(v))
                     for v in axis.certificate["axis_vertices"])
            return mu, "forward-only"
        raise NoCertifiedBound(
            f"no axis certificate up to length {bound}; raise --bound or --trials")
    raise NoCertifiedBound(
        "the fibre is neither finite nor certified flat, no bound applies")


class FlatnessRow(NamedTuple):
    mu: int
    fixed_source: Verdict
    truncated_source: Verdict | None
    truncated_source_note: str | None = None


class FlatnessReport(NamedTuple):
    baseline: Verdict
    rows: tuple[FlatnessRow, ...]


def jet_flatness_equivalence(m: MapSpec, mu_range) -> FlatnessReport:
    """Flatness verdicts for jet-truncated germs across a range of orders.

    Two variants per order: jets of the components over the original source,
    and jets of both relations and components. Truncating the relations can
    destroy the complete intersection precondition for small orders; such
    rows carry a note instead of a verdict.
    """
    baseline = flat_ci(m)
    rows: list[FlatnessRow] = []
    for mu in mu_range:
        comps = tuple(c.jet(mu) for c in m.components)
        fixed = flat_ci(MapSpec(m.ring, m.relations, comps))
        rels = tuple(h.jet(mu) for h in m.relations)
        note = None
        try:
            truncated = flat_ci(MapSpec(m.ring, rels, comps))
        except SourceNotCompleteIntersection as exc:
            truncated = None
            note = str(exc)
        rows.append(FlatnessRow(mu, fixed, truncated, note))
    return FlatnessReport(baseline, tuple(rows))


def diagram_determinacy_check(m: MapSpec, psi) -> bool:
    """Fibre diagrams agree for a perturbation matching the map to order mu0."""
    psi = tuple(psi)
    if len(psi) != m.target_dim:
        raise ValueError("the perturbation must have the same number of components")
    mine = diagram_of_ideal(fibre_ideal(m), ring=m.ring)
    mu0 = _fibre_length(mine)
    if mu0 is None:
        raise ValueError("the fibre is not finite, no diagram bound applies")
    for p, q in zip(m.components, psi):
        if p.jet(mu0) != q.jet(mu0):
            raise ValueError(f"perturbation differs from the map below order {mu0}")
    other = MapSpec(m.ring, m.relations, psi)
    theirs = diagram_of_ideal(fibre_ideal(other), ring=m.ring)
    return mine == theirs


class SweepRow(NamedTuple):
    mu: int
    vertices: tuple[Exponent, ...]
    window_vertices: tuple[Exponent, ...]
    equal: bool
    equal_upto_bound: bool
    contains_base: bool
    quotient_dimension: int
    hilbert: tuple[int, ...]
    new_on_window: tuple[Exponent, ...]


class SweepReport(NamedTuple):
    mu_min: int
    mu_max: int
    length_bound: int
    base_vertices: tuple[Exponent, ...]
    base_dimension: int
    rows: tuple[SweepRow, ...]
    stabilized_at: int | None
    summary: str


def jet_sweep(gens, mu_min: int, mu_max: int, *, length_bound: int | None = None,
              ring: Ring | None = None) -> SweepReport:
    """Compare the staircases of the jet ideals against the full ideal.

    Each row carries the exact staircase of the ideal of mu-jets, its slice
    (the vertices of total degree at most `length_bound`), equality flags up
    to that degree, the quotient dimension, complement counts, and the slice
    vertices that the base staircase lacks. Every column measures total
    degree, the unit in which jets are cut, whatever the ring's order. The
    summary only ever reports stabilization observed inside the range.
    """
    gens, ring = resolve_ring(gens, ring)
    if mu_min > mu_max:
        raise ValueError("empty jet range")
    if length_bound is None:
        length_bound = mu_max + 3
    if length_bound < 0:
        raise ValueError("the length bound must be nonnegative")
    base = diagram_of_ideal(gens, ring=ring)
    base_slice = [v for v in base.vertices if total_degree(v) <= length_bound]
    rows: list[SweepRow] = []
    for mu in range(mu_min, mu_max + 1):
        exact = diagram_of_ideal(jet_ideal(gens, mu), ring=ring)
        # A least point of degree <= L in one staircase only is its vertex.
        window = tuple(
            v for v in exact.vertices if total_degree(v) <= length_bound)
        new = tuple(v for v in window if not base.contains(v))
        lost = any(not exact.contains(v) for v in base_slice)
        rows.append(SweepRow(
            mu=mu,
            vertices=exact.vertices,
            window_vertices=window,
            equal=exact == base,
            equal_upto_bound=not (new or lost),
            contains_base=not lost,
            quotient_dimension=exact.quotient_dimension(),
            hilbert=tuple(exact.hilbert_vector(length_bound)),
            new_on_window=new,
        ))
    stabilized_at = None
    for row in reversed(rows):
        if row.equal:
            stabilized_at = row.mu
        else:
            break
    if stabilized_at is not None:
        summary = f"observed stabilization at mu={stabilized_at} within the range"
    else:
        summary = "not stabilized in range"
    return SweepReport(
        mu_min=mu_min,
        mu_max=mu_max,
        length_bound=length_bound,
        base_vertices=base.vertices,
        base_dimension=base.quotient_dimension(),
        rows=tuple(rows),
        stabilized_at=stabilized_at,
        summary=summary,
    )


class DimProbeRow(NamedTuple):
    mu: int
    dimension: int
    lower_ok: bool


class DimProbeReport(NamedTuple):
    dimension: int
    lower_bound: int
    rows: tuple[DimProbeRow, ...]
    first_match: int | None
    all_lower_ok: bool


def dimension_semicontinuity_probe(gens, mu_range, *,
                                   ring: Ring | None = None) -> DimProbeReport:
    """Track the quotient dimension of jet ideals against the full ideal.

    The dimension of every jet ideal is bounded below by m - s; the report
    flags the first order whose dimension matches the full ideal's.
    """
    gens, ring = resolve_ring(gens, ring)
    full = diagram_of_ideal(gens, ring=ring)
    dim = full.quotient_dimension()
    lower = ring.arity - len(gens)
    rows: list[DimProbeRow] = []
    first = None
    for mu in mu_range:
        d = diagram_of_ideal(jet_ideal(gens, mu), ring=ring)
        dmu = d.quotient_dimension()
        rows.append(DimProbeRow(mu, dmu, dmu >= lower))
        if first is None and dmu == dim:
            first = mu
    return DimProbeReport(
        dimension=dim,
        lower_bound=lower,
        rows=tuple(rows),
        first_match=first,
        all_lower_ok=all(r.lower_ok for r in rows),
    )


class PerturbationSample(NamedTuple):
    index: int
    kind: VerdictKind
    violation: bool


class PerturbationReport(NamedTuple):
    property_name: str
    mu: int
    baseline: VerdictKind
    samples: tuple[PerturbationSample, ...]
    violations: tuple[int, ...]


def _random_composition(rng: random.Random, total: int, parts: int) -> Exponent:
    out = []
    remaining = total
    for _ in range(parts - 1):
        take = rng.randint(0, remaining)
        out.append(take)
        remaining -= take
    out.append(remaining)
    return tuple(out)


_TAIL_MAX_TERMS = 3
_TAIL_COEFFS = (-3, -2, -1, 1, 2, 3)


def _random_tail(rng: random.Random, ring: Ring, mu: int) -> Poly:
    pairs = []
    for _ in range(rng.randint(1, _TAIL_MAX_TERMS)):
        degree = rng.randint(mu + 1, mu + 3)
        exp = _random_composition(rng, degree, ring.arity)
        coeff = rng.choice(_TAIL_COEFFS)
        pairs.append((exp, coeff))
    return Poly.from_terms(ring, pairs)


def perturbation_test(gens, mu: int, *, samples: int = 20, seed: int = 0,
                      property_name: str = "regseq",
                      ring: Ring | None = None) -> PerturbationReport:
    """Re-evaluate a property after seeded perturbations of order above mu.

    Each sample adds to every generator a random polynomial supported in
    total degrees mu+1 .. mu+3. For property "regseq" the generators are
    tested as a sequence; for "flat_ci" they are taken as the components of a
    germ with smooth source. A violation (verdict kind changed) at an order
    at or beyond a certified full-scope bound would certify a defect.
    """
    gens, ring = resolve_ring(gens, ring)
    if property_name not in ("regseq", "flat_ci"):
        raise ValueError("property must be 'regseq' or 'flat_ci'")

    def evaluate(current) -> VerdictKind:
        if property_name == "regseq":
            return regular_sequence(current, ring=ring).kind
        germ = MapSpec(ring, (), tuple(current))
        return flat_ci(germ).kind

    baseline = evaluate(gens)
    rng = random.Random(seed)
    rows: list[PerturbationSample] = []
    violations: list[int] = []
    for index in range(samples):
        perturbed = [g + _random_tail(rng, ring, mu) for g in gens]
        kind = evaluate(perturbed)
        bad = kind != baseline
        rows.append(PerturbationSample(index, kind, bad))
        if bad:
            violations.append(index)
    return PerturbationReport(property_name, mu, baseline,
                              tuple(rows), tuple(violations))
