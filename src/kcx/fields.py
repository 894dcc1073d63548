"""Exact coefficient fields: the rationals and prime fields GF(p).

Coefficients are plain Python values; a `Field` instance supplies the
arithmetic so the rest of the engine never branches on the characteristic.
Every value is kept in one canonical form:

- a rational is an `int` exactly when it is integral and a
  `fractions.Fraction` (lowest terms, positive denominator) otherwise, so
  `QQ.of("6/3")`, `QQ.mul(Fraction(1, 2), 2)` and `QQ.inv(1)` are all ints;
- a GF(p) value is an int in ``[0, p)``.

Almost every coefficient the engine meets is a small integer, and int
arithmetic is several times cheaper than `Fraction` arithmetic.  Equal values
compare and hash equal in either form and render the same, so the form is
invisible outside this module.

One `Field` object per characteristic: `Field(p)`, `GF(p)` (`QQ` for 0),
`copy` and `pickle` all give it back, so fields compare and hash by identity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Union

Coef = Union[Fraction, int]


def _canonical(q: Fraction | int) -> Coef:
    """A rational result in canonical form: an int iff it is integral."""
    return q.numerator if q.denominator == 1 else q


def _is_prime(n: int) -> bool:
    """Trial division; `Field` runs it once per valid characteristic, when it
    first builds that field."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_FIELDS: dict[int, "Field"] = {}  # the one field of each characteristic


class Field:
    """The rationals (``char == 0``) or GF(p) for a prime ``p < 2**31``."""

    __slots__ = ("char",)

    def __new__(cls, char: int = 0):
        field = _FIELDS.get(char)
        if field is None:
            if char != 0 and not (char < 2**31 and _is_prime(char)):
                raise ValueError(f"characteristic must be 0 or a prime below 2**31, got {char}")
            field = _FIELDS[char] = super().__new__(cls)
            field.char = char
        return field

    def __reduce__(self):
        return Field, (self.char,)

    def __repr__(self) -> str:
        return "QQ" if self.char == 0 else f"GF({self.char})"

    def of(self, value) -> Coef:
        """Coerce an int, Fraction or decimal-free string into the field."""
        if self.char == 0:
            return value if type(value) is int else _canonical(Fraction(value))
        if isinstance(value, Fraction):
            return self.of(value.numerator) * pow(value.denominator, -1, self.char) % self.char
        return int(value) % self.char

    def zero(self) -> Coef:
        return 0

    def one(self) -> Coef:
        return 1

    def add(self, a: Coef, b: Coef) -> Coef:
        return _canonical(a + b) if self.char == 0 else (a + b) % self.char

    def sub(self, a: Coef, b: Coef) -> Coef:
        return _canonical(a - b) if self.char == 0 else (a - b) % self.char

    def mul(self, a: Coef, b: Coef) -> Coef:
        return _canonical(a * b) if self.char == 0 else (a * b) % self.char

    def addmul(self, a: Coef, b: Coef, c: Coef) -> Coef:
        """``a + b*c`` in one step: the update in every product and reduction loop."""
        s = a + b * c
        if self.char:
            return s % self.char
        return s if type(s) is int else _canonical(s)

    def neg(self, a: Coef) -> Coef:
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a: Coef) -> Coef:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.char == 0:
            return _canonical(Fraction(a.denominator, a.numerator))
        return pow(a, -1, self.char)

    def primitive(self, row: dict) -> dict:
        """A nonzero multiple of the values in `row` to eliminate with: over QQ
        integral with content 1, so cross-multiplying stays in ints; over GF(p) `row`."""
        if self.char:
            return row
        den = lcm(*map(attrgetter("denominator"), row.values()))
        if den != 1:
            row = {j: c.numerator * (den // c.denominator) for j, c in row.items()}
        g = gcd(*row.values())
        return row if g <= 1 else {j: c // g for j, c in row.items()}

    def render(self, a: Coef) -> str:
        return str(a)


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)
