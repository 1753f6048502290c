"""A two-variable family whose jet staircases refuse to stabilize.

The generators are depth-B truncations of the power series obtained by
dividing two polynomials by the unit 1 - y. Their mu-jets satisfy the syzygy
y^2 * j1 - x * j2 = x * y^(mu + 1), which plants a fresh staircase point at
(1, mu + 1) for every order mu >= 5, so sweeping the jet ideals never
reproduces the staircase of the unit-cleared representatives.
"""

from __future__ import annotations

from .core import Poly, Ring


def demo_ring() -> Ring:
    return Ring(("x", "y"))


def truncated_series_generators(ring: Ring | None = None,
                                depth: int = 20) -> tuple[Poly, Poly]:
    """Depth-B truncations of the series pair.

    Jets of order at most `depth` agree with the jets of the full series.
    """
    if ring is None:
        ring = demo_ring()
    if depth < 6:
        raise ValueError("depth must be at least 6 to include every staircase corner")
    ex, ey = (ring.variable(v).initial_exponent() for v in "xy")

    def term(a: int, b: int) -> tuple[tuple[int, ...], int]:
        return tuple(a * i + b * j for i, j in zip(ex, ey)), 1

    f1 = Poly.from_terms(ring, [term(3, 1)]
                         + [term(1, k) for k in range(4, depth)])
    f2 = Poly.from_terms(ring, [term(2, 3)]
                         + [term(0, k) for k in range(6, depth + 1)])
    return f1, f2


def unit_cleared_generators(ring: Ring | None = None) -> tuple[Poly, Poly]:
    """Polynomial representatives after clearing the unit 1 - y.

    Multiplying the depth-B truncations by 1 - y and taking the B-jet gives
    these polynomials for every B >= 6; they generate the same ideal as the
    original series.
    """
    if ring is None:
        ring = demo_ring()
    x = ring.variable("x")
    y = ring.variable("y")
    g1 = x ** 3 * y + x * y ** 4 - x ** 3 * y ** 2
    g2 = x ** 2 * y ** 3 + y ** 6 - x ** 2 * y ** 4
    return g1, g2


def presentation_rows(mu: int, ring: Ring | None = None,
                      ) -> tuple[tuple[Poly, Poly, Poly], ...]:
    """Rows of the 3x3 presentation with determinant x * y^(mu + 1).

    The rows are ordered so that the determinant comes out with a positive
    sign.
    """
    if ring is None:
        ring = demo_ring()
    if mu < 5:
        raise ValueError("the determinant identity needs mu at least 5")
    f1, f2 = truncated_series_generators(ring, depth=max(20, mu))
    j1 = f1.jet(mu)
    j2 = f2.jet(mu)
    x = ring.variable("x")
    y = ring.variable("y")
    one = ring.constant(1)
    zero = ring.zero()
    return (
        (one, one, j2),
        (one, zero, j1),
        (y ** 2 - x, -x, zero),
    )
