"""Plain-text problem files: a ring, named ideal and map blocks, options.

The dialect is line-based. `#` starts a comment. The first pass reads the
ring declaration and options so the ring (with its order) exists before any
polynomial parses; the second pass fills the blocks. Polynomial syntax:
terms joined by + and -, a term is a coefficient, `coeff*mono`, or a bare
monomial, monomial factors are `var` or `var^exp` joined by `*`, and
coefficients are integers or fractions p/q. Multiplication is always
explicit. All errors carry a line and column.

    ring x y
    option order 1,1
    ideal I
      x^3*y + x*y^4 - x^3*y^2
      x^2*y^3 + y^6 - x^2*y^4
    map phi
      relations
        x*y
      components
        x + y
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .core import Order, Poly, Ring, _fits, _Record

if TYPE_CHECKING:
    from .determinacy import MapSpec

__all__ = ["ProblemError", "ProblemFile", "parse_poly", "parse_problem",
           "RESERVED_WORDS"]

RESERVED_WORDS = frozenset(
    {"ring", "option", "ideal", "map", "relations", "components"})

_OPTION_NAMES = ("order", "seed", "bound", "trials")


class ProblemError(ValueError):
    """Parse or validation failure with a 1-based line and column.

    `args[0]` is the message without them, as a command-line flag that
    breaks the same rule reports it. A fault of `parse_problem`'s
    order_override, which is no place in the text, has line and column None.
    """

    def __init__(self, message: str, line: int | None, column: int | None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self):
        if self.line is None:
            return self.args[0]
        return f"line {self.line}, column {self.column}: {self.args[0]}"


def _is_digits(text: str) -> bool:
    """True for a nonempty run of ASCII digits 0-9, which `str.isdecimal`
    alone would widen to every Unicode decimal digit."""
    return text.isascii() and text.isdecimal()


def _integer(text: str, line: int, column: int) -> int:
    """The value of a decimal literal: ASCII digits only, with no sign,
    underscore or space, and no more of them than Python's int-conversion
    limit, which `sys.set_int_max_str_digits` sets for the whole process.
    Option lines and the command line's numeric flags read numbers here."""
    if not _is_digits(text):
        raise ProblemError(f"invalid int value: {text!r}", line, column)
    try:
        return int(text)
    except ValueError:
        raise ProblemError(f"integer literal of {len(text)} digits is too "
                           "long", line, column) from None


def _weights(text: str, line: int, column: int) -> tuple[int, ...]:
    """Order weights: comma-separated decimal literals, each positive."""
    weights, start = [], column
    for part in text.split(","):
        weights.append(_integer(part, line, column))
        column += len(part) + 1
    if min(weights) < 1:
        raise ProblemError("order weights must be positive integers",
                           line, start)
    return tuple(weights)


class _Token(NamedTuple):
    kind: str
    text: str
    column: int


def _lex(text: str, line: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if _is_digits(ch):
            j = i
            while j < n and _is_digits(text[j]):
                j += 1
            tokens.append(_Token("int", text[i:j], col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], col))
            i = j
        elif ch in "+-*/^":
            tokens.append(_Token("op", ch, col))
            i += 1
        else:
            raise ProblemError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _PolyParser:
    def __init__(self, tokens: list[_Token], ring: Ring, line: int):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.line = line

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: _Token | None = None):
        tok = token if token is not None else self.peek()
        raise ProblemError(message, self.line, tok.column)

    def parse(self) -> Poly:
        pairs = []
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.take()
            sign = -1 if tok.text == "-" else 1
        while True:
            pairs.append(self.term(sign))
            tok = self.peek()
            if tok.kind == "end":
                break
            if tok.kind == "op" and tok.text in "+-":
                self.take()
                sign = -1 if tok.text == "-" else 1
                continue
            self.fail(f"expected '+' or '-', got {tok.text!r}")
        return Poly.from_terms(self.ring, pairs)

    def term(self, sign: int):
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            coeff = Fraction(_integer(tok.text, self.line, tok.column))
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.take()
                den = self.peek()
                if den.kind != "int":
                    self.fail("expected an integer denominator")
                self.take()
                d = _integer(den.text, self.line, den.column)
                if d == 0:
                    self.fail("zero denominator", den)
                coeff = coeff / d
                nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "*":
                self.take()
                return self.monomial(), sign * coeff
            if nxt.kind == "name":
                self.fail("missing '*' between coefficient and variable", nxt)
            return (0,) * self.ring.arity, sign * coeff
        if tok.kind == "name":
            return self.monomial(), Fraction(sign)
        self.fail("expected a term")

    def monomial(self):
        exp = [0] * self.ring.arity
        while True:
            tok = self.peek()
            if tok.kind != "name":
                self.fail("expected a variable")
            self.take()
            try:
                index = self.ring.var_index(tok.text)
            except ValueError:
                self.fail(f"unknown variable {tok.text!r}", tok)
            power, last = 1, tok
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "^":
                caret = self.take()
                last = self.peek()
                if last.kind != "int":
                    self.fail("missing exponent after '^'", caret)
                self.take()
                power = _integer(last.text, self.line, last.column)
            exp[index] += power
            try:
                _fits(exp[index])
            except ValueError as exc:
                self.fail(str(exc), last)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "*":
                after = self.tokens[self.pos + 1]
                if after.kind != "name":
                    self.fail("expected a variable after '*'", after)
                self.take()
                continue
            break
        return tuple(exp)


def parse_poly(text: str, ring: Ring, line: int = 1) -> Poly:
    """Parse one polynomial; errors carry `line` and the column in `text`."""
    return _PolyParser(_lex(text, line), ring, line).parse()


class ProblemFile(_Record):
    _fields = ("ring", "ideals", "maps", "options")

    def __init__(self, ring: Ring,
                 ideals: dict[str, tuple[Poly, ...]] | None = None,
                 maps: dict[str, MapSpec] | None = None,
                 options: dict[str, object] | None = None):
        self._set(ring=ring, ideals={} if ideals is None else ideals,
                  maps={} if maps is None else maps,
                  options={} if options is None else options)


def _words_with_columns(line: str) -> list[tuple[str, int]]:
    out = []
    i = 0
    n = len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not line[j].isspace():
            j += 1
        out.append((line[i:j], i + 1))
        i = j
    return out


def _is_identifier(word: str) -> bool:
    if not word or not (word[0].isalpha() or word[0] == "_"):
        return False
    return all(ch.isalnum() or ch == "_" for ch in word)


def _content_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].rstrip()
        if content.strip():
            yield number, content


def _parse_option(words, lineno: int) -> tuple[str, object]:
    if len(words) != 3:
        raise ProblemError("option needs a name and a single value",
                           lineno, words[0][1])
    (_, _), (name, name_col), (value, value_col) = words
    if name not in _OPTION_NAMES:
        raise ProblemError(f"unknown option {name!r}", lineno, name_col)
    read = _weights if name == "order" else _integer
    return name, read(value, lineno, value_col)


def parse_problem(text: str,
                  order_override: tuple[int, ...] | None = None) -> ProblemFile:
    """Parse a problem file; `order_override` replaces any file-level order.

    An order_override whose weight count is not the ring's raises a
    ProblemError with no line or column."""
    lines = list(_content_lines(text))

    ring_vars: list[str] | None = None
    ring_line = 1
    options: dict[str, object] = {}
    for lineno, content in lines:
        words = _words_with_columns(content)
        head, head_col = words[0]
        if head == "ring":
            if ring_vars is not None:
                raise ProblemError("duplicate ring declaration", lineno, head_col)
            if len(words) < 2:
                raise ProblemError("ring needs at least one variable",
                                   lineno, head_col)
            seen = set()
            ring_vars = []
            for name, col in words[1:]:
                if not _is_identifier(name):
                    raise ProblemError(f"invalid variable name {name!r}",
                                       lineno, col)
                if name in RESERVED_WORDS:
                    raise ProblemError(f"{name!r} is a reserved word", lineno, col)
                if name in seen:
                    raise ProblemError(f"duplicate variable {name!r}", lineno, col)
                seen.add(name)
                ring_vars.append(name)
            ring_line = lineno
        elif head == "option":
            name, value = _parse_option(words, lineno)
            if name in options:
                raise ProblemError(f"duplicate option {name!r}", lineno, head_col)
            options[name] = value

    if ring_vars is None:
        raise ProblemError("missing ring declaration", 1, 1)
    arity = len(ring_vars)
    if order_override and len(order_override) != arity:
        raise ProblemError("order needs one weight per ring variable",
                           None, None)
    weights = order_override or options.get("order") or (1,) * arity
    if len(weights) != arity:
        raise ProblemError("order needs one weight per ring variable",
                           ring_line, 1)
    ring = Ring(tuple(ring_vars), order=Order(tuple(weights)))

    ideals: dict[str, list[Poly]] = {}
    map_blocks: dict[str, dict] = {}
    block: tuple | None = None

    def block_name(words, lineno, kind):
        if len(words) != 2:
            raise ProblemError(f"{kind} needs exactly one name",
                               lineno, words[0][1])
        name, col = words[1]
        if not _is_identifier(name) or name in RESERVED_WORDS:
            raise ProblemError(f"invalid {kind} name {name!r}", lineno, col)
        if name in ideals or name in map_blocks:
            raise ProblemError(f"duplicate name {name!r}", lineno, col)
        return name

    for lineno, content in lines:
        words = _words_with_columns(content)
        head, head_col = words[0]
        if head in ("ring", "option"):
            block = None
        elif head == "ideal":
            name = block_name(words, lineno, "ideal")
            ideals[name] = []
            block = ("ideal", name)
        elif head == "map":
            name = block_name(words, lineno, "map")
            map_blocks[name] = {"line": lineno, "relations": [],
                                "components": [], "sub": None,
                                "declared": set()}
            block = ("map", name)
        elif head in ("relations", "components"):
            if len(words) != 1:
                raise ProblemError(f"{head!r} takes no arguments",
                                   lineno, words[1][1])
            if block is None or block[0] != "map":
                raise ProblemError(f"{head!r} outside a map block",
                                   lineno, head_col)
            state = map_blocks[block[1]]
            if head in state["declared"]:
                raise ProblemError(f"duplicate {head!r} list", lineno, head_col)
            state["declared"].add(head)
            state["sub"] = head
        else:
            if block is None:
                raise ProblemError("polynomial outside a block", lineno, head_col)
            poly = parse_poly(content, ring, lineno)
            if block[0] == "ideal":
                ideals[block[1]].append(poly)
            else:
                state = map_blocks[block[1]]
                if state["sub"] is None:
                    raise ProblemError(
                        "expected 'relations' or 'components' before generators",
                        lineno, head_col)
                state[state["sub"]].append(poly)

    maps: dict[str, MapSpec] = {}
    if map_blocks:  # only map commands need the determinacy module
        from .determinacy import MapSpec
    for name, state in map_blocks.items():
        try:
            maps[name] = MapSpec(ring, tuple(state["relations"]),
                                 tuple(state["components"]))
        except ValueError as exc:
            raise ProblemError(f"map {name!r}: {exc}", state["line"], 1) from None

    return ProblemFile(
        ring=ring,
        ideals={name: tuple(gens) for name, gens in ideals.items()},
        maps=maps,
        options=options,
    )
