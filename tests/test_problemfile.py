"""The line-based problem-file dialect and its polynomial grammar."""

import random
import sys
from fractions import Fraction
from textwrap import dedent

import pytest

from staircase import (
    Poly,
    ProblemError,
    Ring,
    parse_poly,
    parse_problem,
    unit_cleared_generators,
)
from helpers import random_poly, random_ring

RING = Ring(("x", "y"))
X = RING.variable("x")
Y = RING.variable("y")

# A literal one digit past the interpreter's int-conversion limit, which
# Python 3.11 has and some 3.10 releases lack; 0 means no limit is set.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
BIG = "1" + "0" * INT_DIGITS
past_int_limit = pytest.mark.skipif(
    not INT_DIGITS, reason="no int-conversion limit on this interpreter")
TOO_LONG = f"integer literal of {INT_DIGITS + 1} digits is too long"

EXAMPLE = dedent("""\
    # two plane curve germs and a map between coordinates
    ring x y
    option order 1,1
    option seed 7

    ideal I
      x^3*y + x*y^4 - x^3*y^2
      x^2*y^3 + y^6 - x^2*y^4

    map phi
      relations
        x*y
      components
        x + y
""")


def test_parse_poly_pinned():
    assert parse_poly("x^3*y + x*y^4 - x^3*y^2", RING) == (
        X ** 3 * Y + X * Y ** 4 - X ** 3 * Y ** 2)
    assert parse_poly("-x + y^2", RING) == -X + Y ** 2
    assert parse_poly("+x", RING) == X
    assert parse_poly("5", RING) == RING.constant(5)
    assert parse_poly("1/2", RING) == RING.constant(Fraction(1, 2))
    assert parse_poly("3/4*x*y^2", RING) == Poly.from_terms(
        RING, [((1, 2), Fraction(3, 4))])
    assert parse_poly("x*x^2", RING) == X ** 3
    assert parse_poly("2*x - 2*x", RING).is_zero
    top = 2 ** 31 - 1  # the largest entry a packed field holds
    assert parse_poly(f"x^{top}*y^{top}", RING).terms == (((top, top), 1),)


@pytest.mark.parametrize("text,column,fragment", [
    ("x^", 2, "missing exponent"),
    ("x^y", 2, "missing exponent"),
    ("2x", 2, "missing '*'"),
    ("x y", 3, "expected '+' or '-'"),
    ("z", 1, "unknown variable"),
    ("1/0*x", 3, "zero denominator"),
    ("1/x", 3, "integer denominator"),
    ("x*", 3, "expected a variable after '*'"),
    ("", 1, "expected a term"),
    ("x++y", 3, "expected a term"),
    ("@", 1, "unexpected character"),
    ("x^²", 3, "unexpected character"),
    ("²*x", 1, "unexpected character"),
    # Digits are ASCII 0-9 only: other Unicode decimal digits, such as
    # ARABIC-INDIC DIGIT THREE, are no literal.
    ("x^٣", 3, "unexpected character"),
    ("٣*x", 1, "unexpected character"),
    # Exponents past the packed field, also when repeated factors add up.
    ("x^3000000000 + y", 3, "exponent 3000000000 does not fit"),
    ("y + x^1073741824*x^1073741824", 20, "exponent 2147483648 does not fit"),
    ("x^2147483647*y*x", 16, "exponent 2147483648 does not fit"),
    ("2*3", 3, "expected a variable"),
    # Literals past the int-conversion limit, as numerator, denominator and
    # exponent.
    pytest.param(f"{BIG}*x + y", 1, TOO_LONG, marks=past_int_limit,
                 id="long-numerator"),
    pytest.param(f"1/{BIG}*x", 3, TOO_LONG, marks=past_int_limit,
                 id="long-denominator"),
    pytest.param(f"y + x^{BIG}", 7, TOO_LONG, marks=past_int_limit,
                 id="long-exponent"),
])
def test_parse_poly_errors(text, column, fragment):
    with pytest.raises(ProblemError) as info:
        parse_poly(text, RING)
    assert info.value.column == column
    assert fragment in str(info.value)


def test_parse_poly_carries_line_number():
    with pytest.raises(ProblemError) as info:
        parse_poly("x^", RING, line=7)
    assert info.value.line == 7
    assert str(info.value).startswith("line 7, column 2:")


def test_pretty_round_trip():
    rng = random.Random(501)
    for _ in range(200):
        ring = random_ring(rng)
        p = random_poly(rng, ring)
        assert parse_poly(p.pretty(), ring) == p
    fractional = Poly.from_terms(
        RING, [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(-3, 4))])
    assert parse_poly(fractional.pretty(), RING) == fractional


def test_parse_problem_example():
    problem = parse_problem(EXAMPLE)
    assert problem.ring.variables == ("x", "y")
    assert problem.options == {"order": (1, 1), "seed": 7}
    assert problem.ideals["I"] == unit_cleared_generators()
    phi = problem.maps["phi"]
    assert phi.relations == (X * Y,)
    assert phi.components == (X + Y,)


def test_parse_problem_empty_ideal_and_relations_only_map():
    problem = parse_problem(dedent("""\
        ring x y
        ideal empty
        map inc
          relations
            x*y
    """))
    assert problem.ideals["empty"] == ()
    assert problem.maps["inc"].components == ()


def test_order_option_and_override():
    problem = parse_problem("ring x y\noption order 3,1\nideal I\n  x")
    assert problem.ring.order.weights == (3, 1)
    overridden = parse_problem("ring x y\noption order 3,1\nideal I\n  x",
                               order_override=(1, 2))
    assert overridden.ring.order.weights == (1, 2)
    # The override replaces a file order of the wrong length, and one of the
    # wrong length faults the caller's argument, which has no position.
    assert parse_problem("ring x y\noption order 1,1,1",
                         order_override=(1, 2)).ring.order.weights == (1, 2)
    with pytest.raises(ProblemError) as info:
        parse_problem("ring x y", order_override=(1, 2, 3))
    assert (info.value.line, info.value.column) == (None, None)
    assert str(info.value) == "order needs one weight per ring variable"


@pytest.mark.parametrize("text,line,fragment", [
    ("ideal I\n  x", 1, "missing ring declaration"),
    ("ring x y\nring x", 2, "duplicate ring"),
    ("ring", 1, "at least one variable"),
    ("ring x x", 1, "duplicate variable"),
    ("ring x ideal", 1, "reserved word"),
    ("ring x 2y", 1, "invalid variable name"),
    ("ring x y\noption order 1,0", 2, "positive integers"),
    ("ring x y\noption order 1", 1, "one weight per ring variable"),
    ("ring x y\noption seed 1\noption seed 2", 3, "duplicate option"),
    ("ring x y\noption colour 1", 2, "unknown option"),
    ("ring x y\noption seed -3", 2, "invalid int value"),
    ("ring x y\noption seed ²", 2, "invalid int value"),
    ("ring x y\noption seed ٣", 2, "column 13: invalid int value: '٣'"),
    ("ring x y\noption order ²", 2, "invalid int value"),
    ("ring x y\noption seed", 2, "single value"),
    ("ring x y\nx + y", 2, "polynomial outside a block"),
    ("ring x y\nideal I\nideal I", 3, "duplicate name"),
    ("ring x y\nideal I\nmap I\n  components\n    x", 3, "duplicate name"),
    ("ring x y\nideal relations", 2, "invalid ideal name"),
    ("ring x y\nideal I\n  relations", 3, "outside a map block"),
    ("ring x y\nmap f\n  x + y", 3, "before generators"),
    ("ring x y\nmap f\n  relations\n  relations", 4, "duplicate 'relations'"),
    ("ring x y\nmap f\n  components extra", 3, "takes no arguments"),
    ("ring x y\nmap f\n  components\n    x + 1", 2, "map 'f'"),
    ("ring x y\nmap f", 2, "map 'f'"),
    ("ring x y\nideal", 2, "ideal needs exactly one name"),
    ("ring x y\nideal A B", 2, "ideal needs exactly one name"),
    pytest.param(f"ring x y\noption seed {BIG}", 2, f"column 13: {TOO_LONG}",
                 marks=past_int_limit, id="long-seed"),
    pytest.param(f"ring x y\noption trials {BIG}", 2,
                 f"column 15: {TOO_LONG}", marks=past_int_limit,
                 id="long-trials"),
    pytest.param(f"ring x y\noption order 1,{BIG}", 2,
                 f"column 16: {TOO_LONG}", marks=past_int_limit,
                 id="long-order-weight"),
])
def test_parse_problem_errors(text, line, fragment):
    with pytest.raises(ProblemError) as info:
        parse_problem(text)
    assert info.value.line == line
    assert fragment in str(info.value)


def test_comments_and_blank_lines_are_ignored():
    problem = parse_problem(dedent("""\
        # header comment
        ring x y

        ideal I   # trailing comment
          x + y   # generator comment

        # done
    """))
    assert problem.ideals["I"] == (X + Y,)


def test_two_pass_ring_can_follow_blocks():
    problem = parse_problem("ideal I\n  x\nring x y")
    assert problem.ideals["I"] == (X,)
