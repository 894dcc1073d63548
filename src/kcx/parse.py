"""Parser for the ASCII expression grammar used everywhere expressions appear.

Grammar (no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

INT is a nonnegative integer literal, NAME matches [A-Za-z][A-Za-z0-9_]*.
Rationals are written a/b; '/' is accepted only when the divisor reduces to a
nonzero constant.  Exponents must be integer literals from 0 to MAX_EXPONENT,
parentheses nest at most MAX_DEPTH deep, and no product or power may expand
past MAX_TERMS terms (`poly.MAX_TERMS`, the bound `substitute` keeps too).
"""

from __future__ import annotations

import re
from math import comb

from .fields import Field
from .poly import MAX_TERMS, Polynomial


class ParseError(ValueError):
    def __init__(self, message: str, position: int, text: str):
        self.position = position
        self.text = text
        super().__init__(f"{message} at column {position + 1} in {text!r}")


# Powers are expanded eagerly, so a huge exponent would not finish; every
# example, test and benchmark input uses exponent 4 or less.
MAX_EXPONENT = 64

# The parser recurses once per parenthesis, so unbounded nesting would
# overflow the interpreter's stack; the example files nest at most 1 deep.
MAX_DEPTH = 100

_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos, text)
        for kind in ("int", "name", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val, m.start(kind)))
                break
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, field: Field, variables: tuple[str, ...]):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0
        self.field = field
        self.vars = variables

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text), self.text)
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}", tok[2], self.text)

    def parse(self) -> Polynomial:
        p = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], self.text)
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.take()
            q = self.term()
            p = p + q if tok[1] == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.unary()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.take()
            q = self.unary()
            if tok[1] == "*":
                self.bound(len(p.terms) * len(q.terms), tok)
                p = p * q
            else:
                if not q.is_constant() or q.is_zero():
                    raise ParseError("division is only allowed by a nonzero constant", tok[2], self.text)
                p = p.scale(self.field.inv(q.constant_value()))
        return p

    def unary(self) -> Polynomial:
        negate = False
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.take()
            negate ^= tok[1] == "-"
        p = self.power()
        return -p if negate else p

    def power(self) -> Polynomial:
        p = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.take()
            etok = self.take()
            if etok[0] != "int":
                raise ParseError("exponent must be a nonnegative integer literal", etok[2], self.text)
            n = int(etok[1])
            if n > MAX_EXPONENT:
                raise ParseError(f"exponent must be at most {MAX_EXPONENT}", etok[2], self.text)
            if p.terms:
                self.bound(comb(len(p.terms) + n - 1, n), tok)
            p = p ** n
        return p

    def bound(self, terms: int, tok) -> None:
        """Refuse an expansion at `tok` that could have more than MAX_TERMS terms."""
        if terms > MAX_TERMS:
            raise ParseError(f"expansion could pass {MAX_TERMS} terms", tok[2], self.text)

    def atom(self) -> Polynomial:
        tok = self.take()
        if tok[0] == "int":
            return Polynomial.const(self.field, self.vars, int(tok[1]))
        if tok[0] == "name":
            if tok[1] not in self.vars:
                raise ParseError(f"unknown variable {tok[1]!r}", tok[2], self.text)
            return Polynomial.variable(self.field, self.vars, tok[1])
        if tok[1] == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nest deeper than {MAX_DEPTH}", tok[2], self.text)
            self.depth += 1
            p = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return p
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], self.text)


def poly_normalize(text: str, field: Field, variables: tuple[str, ...]) -> Polynomial:
    """Parse an expression into canonical expanded polynomial form."""
    return _Parser(text, field, variables).parse()
