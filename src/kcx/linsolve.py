"""Exact affine linear solving over the coefficient field.

Systems arrive as `LinearEquation`s, each meaning  sum(coeffs[u] * u) + const = 0.
An unknown is any hashable, typically a key that says what it is: the solvers
in `solve` use (generator, position, exponent) tuples.
The forward pass of Gauss-Jordan elimination over the exact field leaves one
echelon row per pivot column, or finds the system inconsistent, and the
solution space keeps just that.  Its verdict (empty, unique, or a family of
dimension n minus the number of pivots) and membership read those rows, and
a particular solution is back-substituted through them when it is read.
Rows are sparse (column -> nonzero coefficient, the constant at column n)
and kept as the multiple `Field.primitive` gives, over QQ integral with
content 1.
Elimination is fraction-free (Bareiss): row := p * row - a * pivot, or row +
a * pivot (the same row up to sign) when p = -1, and each solution entry is
divided once, by its pivot.  The reduced row echelon form is unique for the
column order of `unknowns`, so the result does not depend on the order of the
equations or on the multiples kept.
"""

from __future__ import annotations

from collections.abc import Hashable
from functools import cached_property
from typing import NamedTuple

from .fields import Coef, Field


class LinearEquation(NamedTuple):
    coeffs: dict[Hashable, Coef]
    const: Coef


class AffineSolutionSpace:
    """Solution set of an affine-linear system, exactly.

    `rows` maps each pivot column to its echelon row from the forward pass,
    and is None iff the system is inconsistent; the other columns are free.
    `particular` (None iff inconsistent) is 0 on every free unknown, built on
    first read, once.  The verdict and `contains` never build it.  A basis of
    the homogeneous solutions can be read off `rows` the same way, with one
    free unknown at 1 and the constant's column at 0.
    """

    def __init__(self, unknowns: tuple[Hashable, ...], rows: dict[int, dict[int, Coef]] | None, field: Field):
        self.unknowns = unknowns
        self.rows = rows
        self.field = field

    @property
    def is_empty(self) -> bool:
        return self.rows is None

    @property
    def dimension(self) -> int:
        return -1 if self.rows is None else len(self.unknowns) - len(self.rows)

    @property
    def is_unique(self) -> bool:
        return self.rows is not None and len(self.rows) == len(self.unknowns)

    @cached_property
    def particular(self) -> list[Coef] | None:
        """Back-substitution, last pivot first: an echelon row holds only
        columns at or after its pivot, so each of them is known by then."""
        if self.rows is None:
            return None
        f = self.field
        x = [f.zero()] * len(self.unknowns) + [f.one()]  # the constant's column
        for col in sorted(self.rows, reverse=True):
            row = self.rows[col]
            total = f.zero()
            for j, c in row.items():
                if j != col:
                    total = f.addmul(total, c, x[j])
            x[col] = f.mul(total, f.neg(f.inv(row[col])))
        return x[:-1]

    def contains(self, values: dict[Hashable, Coef]) -> bool:
        """Exact membership: the echelon rows span the system's rows, so x lies
        in the space iff every one of them vanishes at x.  Unknowns missing
        from `values` read 0; a key that is not an unknown raises KeyError, as
        in `affine_linear_solve`."""
        known = set(self.unknowns)
        for u in values:
            if u not in known:
                raise KeyError(f"unknown {u!r} not declared")
        if self.rows is None:
            return False
        f = self.field
        x = [f.of(values.get(u, 0)) for u in self.unknowns]
        x.append(f.one())  # the constant's column
        for row in self.rows.values():
            total = f.zero()
            for j, c in row.items():
                total = f.addmul(total, c, x[j])
            if total:
                return False
        return True


def affine_linear_solve(
    equations: list[LinearEquation], unknowns: tuple[Hashable, ...], fieldobj: Field
) -> AffineSolutionSpace:
    """Exact sparse fraction-free forward elimination; returns empty / unique / parametrized family."""
    f = fieldobj
    n = len(unknowns)
    index = {u: i for i, u in enumerate(unknowns)}
    rows: list[dict[int, Coef]] = []
    for eq in equations:
        row: dict[int, Coef] = {}
        for u, c in eq.coeffs.items():
            j = index.get(u)
            if j is None:
                raise KeyError(f"unknown {u!r} not declared")
            if c := f.of(c):
                row[j] = c
        if c := f.of(eq.const):
            row[n] = c
        rows.append(f.primitive(row))

    # Forward pass: a row's smallest column is eliminated until no pivot row holds it.
    pivots: dict[int, dict[int, Coef]] = {}
    for row in rows:
        while row and (col := min(row)) != n:  # an unknown is left in the row
            if col not in pivots:
                pivots[col] = row
                break
            row = _eliminate(row, col, pivots[col], f)
            if col in row:  # the loop would never end
                raise ArithmeticError(f"elimination left column {col} ({unknowns[col]!r}) in the row")
        else:
            if row:  # 0 = nonzero constant
                return AffineSolutionSpace(unknowns, None, f)
    return AffineSolutionSpace(unknowns, pivots, f)


def _eliminate(row: dict[int, Coef], col: int, pivot: dict[int, Coef], f: Field) -> dict[int, Coef]:
    """The primitive multiple of p * row - a * pivot, with p = pivot[col] and a = row[col],
    so column col cancels; `row` is consumed, and entries that cancel are dropped.

    For p = -1 it is row + a * pivot, the same row up to sign with no scaling
    pass; the back-substitution divides each pivot row by its own entry, so
    the sign of a row never shows.
    """
    p, a = pivot[col], row[col]
    if p == f.neg(f.one()):
        factor = a
    else:
        factor = f.neg(a)
        if p != f.one():
            row = {j: f.mul(p, c) for j, c in row.items()}
    for j, c in pivot.items():
        v = f.addmul(row[j], factor, c) if j in row else f.mul(factor, c)
        if v:
            row[j] = v
        else:
            del row[j]
    return f.primitive(row)
