"""Exact affine linear solving over the coefficient field.

Systems arrive as `LinearEquation`s, each meaning  sum(coeffs[u] * u) + const = 0.
An unknown is any hashable, typically a key that says what it is: the solvers
in `solve` use (generator, position, exponent) tuples.
The forward pass of Gauss-Jordan elimination over the exact field leaves one
echelon row per pivot column, or finds the system inconsistent, and the
solution space keeps just that.  Its verdict (empty, unique, or a family of
dimension n minus the number of pivots) and membership read those rows; the
backward pass and the read-off of a particular solution and a basis of the
homogeneous solutions run only when one of them is read.  Rows are sparse
(column -> nonzero coefficient, the constant at column n) and kept as the
multiple `Field.primitive` gives, over QQ integral with content 1.
Elimination is fraction-free (Bareiss): row := p * row - a * pivot, or row +
a * pivot (the same row up to sign) when p = -1, and each solution entry is
divided once, at read-off.  The reduced row echelon form is unique for the
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
    and is None iff the system is inconsistent; `free` is the other columns.
    `particular` (None iff inconsistent) and `basis`, which spans the
    homogeneous solutions, are built together on first read, once: basis
    vector k is 1 on unknown `free[k]` and 0 on the other free unknowns, and
    `particular` is 0 on all of them.  The verdict and `contains` never
    build them.
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
    def free(self) -> list[int]:
        """The non-pivot columns: forward and reduced rows share their pivots."""
        return [] if self.rows is None else [c for c in range(len(self.unknowns)) if c not in self.rows]

    @property
    def particular(self) -> list[Coef] | None:
        return self._solution[0]

    @property
    def basis(self) -> list[list[Coef]]:
        return self._solution[1]

    @cached_property
    def _solution(self) -> tuple[list[Coef] | None, list[list[Coef]]]:
        if self.rows is None:
            return None, []
        f = self.field
        n = len(self.unknowns)
        # Backward pass, last pivot first: a reduced row holds no other pivot
        # column, so eliminating with it brings none in.
        pivots: dict[int, dict[int, Coef]] = {}
        for col in sorted(self.rows, reverse=True):
            row = dict(self.rows[col])  # `_eliminate` consumes its row; the echelon rows stay
            for j in [j for j in row if j != col and j in pivots]:
                row = _eliminate(row, j, pivots[j], f)
            pivots[col] = row

        # Each pivot row reads a * x_col + sum over free fc of c * x_fc + c_n = 0: divide by -a.
        zero = f.zero()
        particular = [zero] * n
        basis = [[zero] * n for _ in self.free]
        for fc, vec in zip(self.free, basis):
            vec[fc] = f.one()
        free_vec = dict(zip(self.free, basis))
        for col, row in pivots.items():
            scale = f.neg(f.inv(row[col]))
            for j, c in row.items():
                if j == n:
                    particular[col] = f.mul(c, scale)
                elif j != col:
                    free_vec[j][col] = f.mul(c, scale)
        return particular, basis

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
    pass; the read-off divides each pivot row by its own entry, so the sign
    of a row never shows.
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
