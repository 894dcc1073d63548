"""Exact coefficient fields: the rationals and prime fields GF(p).

Coefficients are plain Python values (`fractions.Fraction` in characteristic
zero, ints in ``[0, p)`` in characteristic p); a `Field` instance supplies the
arithmetic so the rest of the engine never branches on the characteristic.
Rationals are always in lowest terms with positive denominator (Fraction
guarantees this), GF(p) values are always reduced mod p.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Coef = Union[Fraction, int]


def _is_prime(n: int) -> bool:
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


class Field:
    """The rationals (``char == 0``) or GF(p) for a prime ``p < 2**31``."""

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char != 0 and not (char < 2**31 and _is_prime(char)):
            raise ValueError(f"characteristic must be 0 or a prime below 2**31, got {char}")
        self.char = char

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self) -> int:
        return hash(("Field", self.char))

    def __repr__(self) -> str:
        return "QQ" if self.char == 0 else f"GF({self.char})"

    def of(self, value) -> Coef:
        """Coerce an int, Fraction or decimal-free string into the field."""
        if self.char == 0:
            return Fraction(value)
        if isinstance(value, Fraction):
            return self.of(value.numerator) * pow(value.denominator, -1, self.char) % self.char
        return int(value) % self.char

    def zero(self) -> Coef:
        return Fraction(0) if self.char == 0 else 0

    def one(self) -> Coef:
        return Fraction(1) if self.char == 0 else 1

    def add(self, a: Coef, b: Coef) -> Coef:
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a: Coef, b: Coef) -> Coef:
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a: Coef, b: Coef) -> Coef:
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a: Coef) -> Coef:
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a: Coef) -> Coef:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return 1 / a if self.char == 0 else pow(a, -1, self.char)

    def render(self, a: Coef) -> str:
        return str(a)


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)
