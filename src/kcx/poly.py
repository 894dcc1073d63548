"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a map from exponent tuples to nonzero coefficients, together
with its ambient ordered variable list and coefficient field:

    x^2*y + 3  over vars ("x", "y")  ->  {(2, 1): 1, (0, 0): 3}

Coefficients are in the field's canonical form (`fields.py`: a rational is an
int iff it is integral).  Zero-coefficient terms are never stored, so two
polynomials over the same variable list are equal iff their term dicts are
equal.  The public constructor brings each coefficient into the field and
drops zeros; the arithmetic here builds canonical zero-free dicts itself and
wraps them with `Polynomial._of_terms`.  The canonical term order everywhere
is graded reverse lexicographic (grevlex) with respect to the declared
variable order.
"""

from __future__ import annotations

from itertools import compress
from math import comb
from operator import add, le, neg, sub
from typing import Mapping

from .errors import ExpansionTooLarge
from .fields import Coef, Field

Exponent = tuple[int, ...]

# Products and powers are expanded eagerly, so the parser, `substitute` and
# the connection entries of a definition file refuse any that could pass
# MAX_TERMS terms before expanding it: a product of factors with s and t terms
# has at most s*t, a t-term power p^n at most C(t+n-1, n).  The largest bound
# met by the tests, the gallery, the example files and the benchmark is 3 when
# parsing, 66 when substituting and 1 in a connection entry's products
# COEF * partial(EXPR); the worst powers the parser accepts, (a+b+c+d+e)^19
# and (a+b+c+d)^30, take 0.7 s and 1.1 s on a 2 GHz Xeon core.
MAX_TERMS = 10_000


def _bound_terms(terms: int) -> None:
    if terms > MAX_TERMS:
        raise ExpansionTooLarge(f"substitution could pass {MAX_TERMS} terms")


# The exponent helpers map C-level operators over the tuples; they sit under
# every monomial comparison and product in the engine.


def grevlex_key(exp: Exponent):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(exp), tuple(map(neg, reversed(exp))))


def exp_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def exp_divides(a: Exponent, b: Exponent) -> bool:
    """True iff monomial a divides monomial b."""
    return all(map(le, a, b))


_VARIABLE_BITS = tuple(1 << i for i in range(256))


def exp_mask(exp: Exponent) -> int:
    """Bitmask of the variables occurring in `exp`.

    If a divides b then ``exp_mask(a) & ~exp_mask(b) == 0``, so one integer
    test rejects most non-divisors before `exp_divides` runs.  A variable
    past the first 256 is left out of the mask, which only weakens the test.
    """
    return sum(compress(_VARIABLE_BITS, exp))


def exp_div(a: Exponent, b: Exponent) -> Exponent:
    """Exponent of a/b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def _mul_terms(a: dict[Exponent, Coef], b: dict[Exponent, Coef], f: Field) -> dict[Exponent, Coef]:
    """Term dict of the product of two term dicts, zero-free."""
    out: dict[Exponent, Coef] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = exp_mul(e1, e2)
            s = f.addmul(out.get(e, 0), c1, c2)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


class Polynomial:
    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: Field, variables: tuple[str, ...], terms: Mapping[Exponent, Coef]):
        self.field = field
        self.vars = variables
        of = field.of
        self.terms: dict[Exponent, Coef] = {e: v for e, c in terms.items() if (v := of(c))}

    # ---------- constructors ----------

    @classmethod
    def _of_terms(cls, field: Field, variables: tuple[str, ...], terms: dict[Exponent, Coef]) -> "Polynomial":
        """Wrap a zero-free term dict without copying or filtering it.

        Only for dicts the engine has just built itself; the dict is owned by
        the result from then on.
        """
        p = cls.__new__(cls)
        p.field = field
        p.vars = variables
        p.terms = terms
        return p

    @classmethod
    def zero(cls, field: Field, variables: tuple[str, ...]) -> "Polynomial":
        return cls(field, variables, {})

    @classmethod
    def const(cls, field: Field, variables: tuple[str, ...], value) -> "Polynomial":
        return cls(field, variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, field: Field, variables: tuple[str, ...], name: str) -> "Polynomial":
        i = variables.index(name)
        exp = (0,) * i + (1,) + (0,) * (len(variables) - i - 1)
        return cls._of_terms(field, variables, {exp: field.one()})

    @classmethod
    def monomial(cls, field: Field, variables: tuple[str, ...], exp: Exponent, coef) -> "Polynomial":
        return cls(field, variables, {exp: coef})

    # ---------- basic queries ----------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Coef:
        """Coefficient of the constant monomial."""
        return self.terms.get((0,) * len(self.vars), self.field.zero())

    def sorted_exponents(self) -> list[Exponent]:
        return sorted(self.terms, key=grevlex_key, reverse=True)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and other.in_ring(self.field, self.vars) and other.terms == self.terms

    def __hash__(self) -> int:
        return hash((self.field, self.vars, tuple(sorted(self.terms.items()))))

    # ---------- arithmetic ----------

    def in_ring(self, field: Field, variables: tuple[str, ...]) -> bool:
        """Whether self lies in the ring on `variables` over `field`.

        Identity settles the common case with no `Field.__eq__` call; an equal
        ring built apart still passes.
        """
        return (self.vars is variables or self.vars == variables) and (self.field is field or self.field == field)

    def _check(self, other: "Polynomial"):
        if not other.in_ring(self.field, self.vars):
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(out.get(e, 0), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial._of_terms(f, self.vars, out)

    def __neg__(self) -> "Polynomial":
        f = self.field
        return Polynomial._of_terms(f, self.vars, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._of_terms(self.field, self.vars, _mul_terms(self.terms, other.terms, self.field))

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative exponent")
        result = Polynomial.const(self.field, self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        f = self.field
        c = f.of(c)
        if not c:
            return Polynomial.zero(f, self.vars)
        return Polynomial._of_terms(f, self.vars, {e: f.mul(v, c) for e, v in self.terms.items()})

    # ---------- calculus and substitution ----------

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative; satisfies the Leibniz rule exactly."""
        i = self.vars.index(name)
        f = self.field
        out: dict[Exponent, Coef] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = f.mul(c, f.of(e[i]))
            if d:  # distinct terms differentiate to distinct monomials
                out[tuple(v - 1 if j == i else v for j, v in enumerate(e))] = d
        return Polynomial._of_terms(f, self.vars, out)

    def substitute(self, images: Mapping[str, "Polynomial"], target_vars: tuple[str, ...]) -> "Polynomial":
        """Ring-homomorphic substitution into the ring on `target_vars`.

        Every variable of self that actually occurs must have an image; images
        must all live in the target ring.  Each term's image is the product of
        its variables' image powers, added times the term's coefficient into
        one result dict.  A term starts from its first variable's power, and
        the cached power dicts are only read, never written.  A power or
        product that could pass MAX_TERMS terms raises ExpansionTooLarge
        before it expands.
        """
        f = self.field
        cache: dict[tuple[int, int], dict[Exponent, Coef]] = {}

        def power(i: int, n: int) -> dict[Exponent, Coef]:
            key = (i, n)
            if key not in cache:
                image = images[self.vars[i]]
                if not image.in_ring(f, target_vars):
                    raise ValueError("polynomials live in different rings")
                if n > 1:
                    _bound_terms(comb(len(image.terms) + n - 1, n))
                cache[key] = image.terms if n == 1 else (image ** n).terms
            return cache[key]

        unit = {(0,) * len(target_vars): f.one()}
        out: dict[Exponent, Coef] = {}
        for e, c in self.terms.items():
            term = None
            for i, n in enumerate(e):
                if n:
                    if self.vars[i] not in images:
                        raise KeyError(f"no image for variable {self.vars[i]!r}")
                    factor = power(i, n)
                    if term is not None:
                        _bound_terms(len(term) * len(factor))
                    term = factor if term is None else _mul_terms(term, factor, f)
            if term is None:
                term = unit
            for e2, c2 in term.items():
                s = f.addmul(out.get(e2, 0), c, c2)
                if s:
                    out[e2] = s
                else:
                    out.pop(e2, None)
        return Polynomial._of_terms(f, target_vars, out)

    def move_exponents(self, table, target_vars: tuple[str, ...]) -> "Polynomial":
        """`substitute` for images that are each zero or c*y, y one target variable.

        `table[i]` is None when variable i maps to zero, else (position of y
        in `target_vars`, c).  Each term's exponents move straight to their
        target positions and its coefficient picks up c^n per variable, so no
        polynomial product is formed; a term meeting a zero image vanishes.
        The terms are added in the order `substitute` adds them, so the result
        dict is the same, insertion order included.
        """
        f, n = self.field, len(target_vars)
        out: dict[Exponent, Coef] = {}
        for e, c in self.terms.items():
            exp = [0] * n
            for slot, k in zip(table, e):
                if k:
                    if slot is None:
                        break
                    pos, scale = slot
                    exp[pos] += k
                    if scale != 1:
                        c = f.mul(c, scale ** k)
            else:
                key = tuple(exp)
                if key not in out:
                    out[key] = c
                elif s := f.add(out[key], c):
                    out[key] = s
                else:
                    del out[key]
        return Polynomial._of_terms(f, target_vars, out)

    def change_vars(self, target_vars: tuple[str, ...], rename: Mapping[str, str] | None = None) -> "Polynomial":
        """Re-express over a different variable list (by name, optionally renamed).

        Every occurring variable must map to a target variable.  This maps
        monomials to monomials through `move_exponents`, much cheaper than
        `substitute`; variables merged into one add their exponents, and
        merged terms their coefficients.
        """
        table = []
        for i, v in enumerate(self.vars):
            w = rename.get(v, v) if rename else v
            if w in target_vars:
                table.append((target_vars.index(w), 1))
            elif any(e[i] for e in self.terms):
                raise KeyError(f"variable {v!r} missing from target ring")
            else:
                table.append(None)
        return self.move_exponents(table, target_vars)

    # ---------- rendering ----------

    def render(self) -> str:
        """Canonical human/machine form, grevlex-descending; reparses exactly."""
        if not self.terms:
            return "0"
        f = self.field
        parts: list[str] = []
        for e in self.sorted_exponents():
            c = self.terms[e]
            factors = []
            for name, n in zip(self.vars, e):
                if n == 1:
                    factors.append(name)
                elif n > 1:
                    factors.append(f"{name}^{n}")
            negative = (c < 0) if f.char == 0 else False
            mag = -c if negative else c
            coef_str = f.render(mag)
            if factors and coef_str == "1":
                body = "*".join(factors)
            elif factors:
                body = coef_str + "*" + "*".join(factors)
            else:
                body = coef_str
            if not parts:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<poly {self.render()}>"
