"""Inputs and answer checks of the three benchmark workloads.

Each corpus is frozen: it is drawn from a fixed corpus seed, so the heavy
tail (cases that run past the deadline) is the same in every run. The
`--seed` of a run draws a sign change x_i -> -x_i or x_i of each variable
of every input, and the order of the cases. A sign change maps each
monomial to plus or minus itself, so staircases, Milnor numbers and the
shape of every reduction are unchanged and coefficients keep their size.
Runs with different seeds therefore do the same work on different inputs,
and every answer stays known in closed form. Scaling by +-2 would change
coefficient sizes, and with them per-case times, by more than the metrics'
bounds allow between seeds.

A workload is a list of cases `(label, thunk, check)`: `thunk()` computes
the answer and `check(answer)` returns an error message or None.
"""

from __future__ import annotations

import json
import random
from math import prod

from staircase import CoordChange, MapSpec, Order, Poly, Ring
from staircase.demo import truncated_series_generators, unit_cleared_generators
from staircase.determinacy import milnor_mu0
from staircase.jet_oracle import oracle_cross_check
from staircase.problemfile import parse_poly

# Per-case deadlines in seconds. At the commit that defined the benchmark
# the slowest case that finishes takes about 0.5 s (milnor-germs) and
# 0.03 s (random-ideals); the fastest one that does not finish takes more
# than 5 s and 20 s; the slowest CLI request takes about 2 s.
DEADLINES = {"family-cli": 30.0, "milnor-germs": 2.0, "random-ideals": 1.0}
MILNOR_CORPUS_SEED = 6
RANDOM_CORPUS_SEED = 11
WINDOW_BOUNDS = {2: 10, 3: 8, 4: 6}


def scaled(p: Poly, factors) -> Poly:
    """p(d_1 x_1, ..., d_m x_m) for integer factors d_i."""
    return Poly.from_terms(p.ring, [
        (e, c * prod(d ** k for d, k in zip(factors, e)))
        for e, c in p.terms])


def derivative(p: Poly, i: int) -> Poly:
    return Poly.from_terms(p.ring, [
        (tuple(k - (j == i) for j, k in enumerate(e)), c * e[i])
        for e, c in p.terms if e[i]])


def _draw_signs(rng: random.Random, arity: int):
    return [rng.choice((-1, 1)) for _ in range(arity)]


# ---------------------------------------------------------------- milnor

def _linear_change(rng: random.Random, n: int) -> CoordChange:
    while True:
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
        try:
            return CoordChange(rows)
        except ValueError:  # singular draw
            pass


def _germ_specs():
    """Exponents and closed-form Milnor numbers of the germ families.

    Brieskorn-Pham sum x_i^a_i has mu = prod(a_i - 1); T_pqr =
    x^p + y^q + z^r + xyz with 1/p + 1/q + 1/r < 1 has mu = p + q + r - 1.
    """
    specs = []
    for a in range(2, 12):
        for b in range(a, 12):
            specs.append(((a, b), False, (a - 1) * (b - 1)))
    for a in range(2, 6):
        for b in range(a, 6):
            for c in range(b, 6):
                specs.append(((a, b, c), False, (a - 1) * (b - 1) * (c - 1)))
    for p in range(2, 7):
        for q in range(p, 7):
            for r in range(q, 8):
                if q * r + p * r + p * q < p * q * r:
                    specs.append(((p, q, r), True, p + q + r - 1))
    return specs


def milnor_germs(seed: int):
    corpus = random.Random(MILNOR_CORPUS_SEED)
    rng = random.Random(seed)
    rings = {2: Ring(("x", "y")), 3: Ring(("x", "y", "z"))}
    cases = []
    for exps, cusp, mu in _germ_specs():
        ring = rings[len(exps)]
        xs = [ring.variable(v) for v in ring.variables]
        f = sum((x ** a for x, a in zip(xs, exps)), ring.zero())
        if cusp:
            f = f + xs[0] * xs[1] * xs[2]
        g = scaled(f.apply_coord_change(_linear_change(corpus, ring.arity)),
                   _draw_signs(rng, ring.arity))
        spec = MapSpec(ring, (), tuple(derivative(g, i) for i in range(ring.arity)))
        label = ("T" if cusp else "BP") + "".join(f"_{a}" for a in exps)
        cases.append((label, lambda spec=spec: milnor_mu0(spec),
                      lambda got, mu=mu: None if got == mu
                      else f"milnor_mu0 = {got}, expected {mu}"))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------- random

def _random_exponent(rng, arity, max_degree):
    exp = [0] * arity
    for _ in range(rng.randint(0, max_degree)):
        exp[rng.randrange(arity)] += 1
    return tuple(exp)


def _vanishing_poly(rng, ring, max_degree=5):
    """The recipe of tests/helpers.vanishing_poly, frozen here."""
    while True:
        pairs = []
        for _ in range(rng.randint(1, 4)):
            coeff = 0
            while coeff == 0:
                coeff = rng.randint(-4, 4)
            pairs.append((_random_exponent(rng, ring.arity, max_degree), coeff))
        p = Poly.from_terms(ring, pairs)
        p = p - ring.constant(p.constant_term)
        if not p.is_zero:
            return p


def random_ideals(seed: int):
    corpus = random.Random(RANDOM_CORPUS_SEED)
    rng = random.Random(seed)
    cases = []
    for arity in (2, 3, 4):
        for k in range(40):
            weights = ((1,) * arity if k % 2 == 0
                       else tuple(corpus.randint(1, 3) for _ in range(arity)))
            ring = Ring(tuple("xyzw")[:arity], order=Order(weights))
            gens = [_vanishing_poly(corpus, ring)
                    for _ in range(corpus.randint(1, arity))]
            factors = _draw_signs(rng, arity)
            gens = [scaled(g, factors) for g in gens]
            bound = WINDOW_BOUNDS[arity]
            cases.append((
                f"r{arity}_{k}",
                lambda gens=gens, bound=bound: oracle_cross_check(gens, bound),
                lambda rep: None if rep.agree
                else f"engines disagree at {rep.first_difference}"))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------- family

SMALL3 = ("x^2 + y*z^2 - x*y*z", "y^3 + x*z + 2*x^2*y", "z^4 + x*y - y^2*z",
          "x*y + z^3", "x^3 + y^2*z - z^4", "y^4 + x*z^2")
BASE = "(3,1) (2,3)"  # staircase of the unit-cleared family
SERIES_DEPTH = 28
SERIES_MU = (5, 24)


def _ideal_file(ring: Ring, ideals: dict) -> str:
    lines = ["ring " + " ".join(ring.variables)]
    for name, gens in ideals.items():
        lines.append(f"ideal {name}")
        lines += [f"  {g.pretty()}" for g in gens]
    return "\n".join(lines) + "\n"


def family_files(seed: int) -> dict[str, str]:
    """Problem files of the family-cli workload, keyed by file name."""
    rng = random.Random(seed)
    ring = Ring(("x", "y"))
    d2 = _draw_signs(rng, 2)
    ring3 = Ring(("x", "y", "z"))
    d3 = _draw_signs(rng, 3)
    small = [scaled(parse_poly(t, ring3), d3) for t in SMALL3]
    x, y = ring.variable("x"), ring.variable("y")
    grad = [scaled(derivative(x ** 4 + y ** 5, i), d2) for i in (0, 1)]
    maps = (f"ring x y\nmap phi\n  relations\n    x*y\n  components\n"
            f"    x + y\nmap grad\n  components\n"
            + "".join(f"    {g.pretty()}\n" for g in grad))
    return {
        "family.txt": _ideal_file(ring, {"I": [
            scaled(g, d2) for g in unit_cleared_generators(ring)]}),
        "series.txt": _ideal_file(ring, {"S": [
            scaled(g, d2)
            for g in truncated_series_generators(ring, depth=SERIES_DEPTH)]}),
        "small3.txt": _ideal_file(ring3, {"A": small[:3], "B": small[3:]}),
        "maps.txt": maps,
    }


def _lines(out: str, prefix: str) -> list[str]:
    return [ln for ln in out.splitlines() if ln.startswith(prefix)]


def _missing(out: str, *lines: str) -> list[str]:
    """The given lines that are not whole lines of out."""
    present = set(out.splitlines())
    return [ln for ln in lines if ln not in present]


def _new_points(row: str) -> list[str]:
    """The `new` column of a sweep row, as printed points."""
    return row.split("| new ")[-1].split()


def _check_stabilizing_sweep(low, high):
    def check(out):
        rows = _lines(out, "  mu ")
        if len(rows) != high - low + 1:
            return "wrong number of sweep rows"
        if _missing(out, f"  base vertices: {BASE}  dimension 1"):
            return "base staircase changed"
        if "(1,6)" not in _new_points(rows[0]):
            return "mu=5 row lacks the new vertex (1,6)"
        if any("| equal yes |" not in r for r in rows[1:]):
            return "jet staircases differ from the base from mu=6 on"
        if _missing(out, "  summary: observed stabilization at mu=6 within the range"):
            return "summary does not report stabilization at mu=6"
        return None
    return check


def _check_series_sweep(out):
    low, high = SERIES_MU
    rows = _lines(out, "  mu ")
    if len(rows) != high - low + 1:
        return "wrong number of sweep rows"
    for mu, row in zip(range(low, high + 1), rows):
        if f"(1,{mu + 1})" not in _new_points(row):
            return f"row mu={mu} lacks the new vertex (1,{mu + 1})"
    if _missing(out, "  summary: not stabilized in range"):
        return "summary claims stabilization"
    return None


def _check_det(low, high):
    def check(out):
        rows = _lines(out, "mu ")
        if len(rows) != high - low + 1 or any(
                not r.endswith("| ok") for r in rows):
            return "determinant identity not confirmed on every row"
        return None
    return check


def _check_lines(*lines):
    def check(out):
        missing = _missing(out, *lines)
        return f"missing {missing}" if missing else None
    return check


def _hilbert_from_vertices(vertices, bound):
    """Complement counts H(0..bound), counted independently of the library."""
    counts = [0] * (bound + 1)

    def walk(prefix, left):
        if len(prefix) == len(vertices[0]):
            if not any(all(a >= b for a, b in zip(prefix, v)) for v in vertices):
                counts[sum(prefix)] += 1
            return
        for k in range(left + 1):
            walk(prefix + (k,), left - k)

    walk((), bound)
    out, total = [], 0
    for c in counts:
        total += c
        out.append(total)
    return out


def family_cli(seed: int):
    """Requests as argv lists with their checks.

    The `hilbert` request is checked against complement counts recomputed
    from the vertices that the `diagram --json` request reports.
    """
    vertices: dict[str, list] = {}

    def check_diagram_json(out):
        report = json.loads(out)
        for entry in report["results"]:
            vertices[entry["name"]] = [tuple(v) for v in entry["vertices"]]
            if entry["dimension"] != 0:
                return f"ideal {entry['name']} is not zero-dimensional"
        return None

    def check_hilbert(out):
        for name, vs in vertices.items():
            want = " ".join(map(str, _hilbert_from_vertices(vs, 30)))
            if _missing(out, f"ideal {name}: H(0..30) = {want}"):
                return f"Hilbert-Samuel counts of {name} disagree with its vertices"
        return None if vertices else "no vertices to check against"

    def check_vertices_json(out):
        got = json.loads(out)["results"][0]["vertices"]
        return None if got == [[3, 1], [2, 3]] else f"vertices {got}"

    seed_flag = str(seed % 1000)
    series = f"{SERIES_MU[0]}..{SERIES_MU[1]}"
    return [
        (["sweep", "family.txt", "--mu", "5..30"], _check_stabilizing_sweep(5, 30)),
        (["sweep", "family.txt", "--mu", "5..24", "--order", "2,3"],
         _check_stabilizing_sweep(5, 24)),
        (["sweep", "series.txt", "--mu", series], _check_series_sweep),
        (["oracle-check", "family.txt", "--bound", "40", "--expect-yes"],
         _check_lines("ideal I: engines agree below length 40")),
        (["det-example", "--mu", "5..40", "--expect-yes"], _check_det(5, 40)),
        (["diagram", "small3.txt", "--json"], check_diagram_json),
        (["hilbert", "small3.txt", "--bound", "30"], check_hilbert),
        (["oracle-check", "small3.txt", "--bound", "14", "--expect-yes"],
         _check_lines("ideal A: engines agree below length 14",
                         "ideal B: engines agree below length 14")),
        (["regseq", "small3.txt", "--bound", "10", "--trials", "8",
          "--seed", seed_flag, "--expect-yes"],
         _check_lines("ideal A: certified-yes", "ideal B: certified-yes")),
        (["diagram", "family.txt"],
         _check_lines(f"  vertices: {BASE}", "  dimension: 1")),
        (["vertices", "family.txt", "--json"], check_vertices_json),
        (["dim", "family.txt"], _check_lines("ideal I: dimension 1")),
        (["jet", "family.txt", "--mu", "6"], _check_lines(f"  vertices: {BASE}")),
        (["milnor", "maps.txt"],
         _check_lines("map phi: milnor_mu0 = 2", "map grad: milnor_mu0 = 12")),
        (["flat-ci", "maps.txt", "--expect-yes"],
         _check_lines("map phi: certified-yes", "map grad: certified-yes")),
    ]
