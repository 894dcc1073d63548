"""Exact affine linear solving over the coefficient field.

Systems arrive as `LinearEquation`s, each meaning  sum(coeffs[u] * u) + const = 0.
An unknown is any hashable, typically a key that says what it is: the solvers
in `solve` use (generator, position, exponent) tuples.
Gauss-Jordan elimination over the exact field yields either "empty" or a
particular solution plus a basis of the homogeneous solution space.  Rows are
sparse (column -> nonzero coefficient, the constant at column n) and kept as
the multiple `Field.primitive` gives, over QQ integral with content 1.
Elimination is fraction-free (Bareiss): row := p * row - a * pivot, or row +
a * pivot (the same row up to sign) when p = -1, and each solution entry is
divided once, at read-off.  The reduced row echelon form is unique for the
column order of `unknowns`, so the result does not depend on the order of the
equations or on the multiples kept.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field as dfield

from .fields import Coef, Field


@dataclass(frozen=True)
class LinearEquation:
    coeffs: dict[Hashable, Coef]
    const: Coef


@dataclass
class AffineSolutionSpace:
    """Solution set of an affine-linear system, exactly.

    `particular` is None iff the system is inconsistent; `basis` spans the
    homogeneous solutions, so the dimension is len(basis).  Basis vector k is
    1 on unknown `free[k]` and 0 on the other free unknowns, and `particular`
    is 0 on all of them.
    """

    unknowns: tuple[Hashable, ...]
    particular: list[Coef] | None
    basis: list[list[Coef]] = dfield(default_factory=list)
    free: list[int] = dfield(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def dimension(self) -> int:
        return -1 if self.is_empty else len(self.basis)

    @property
    def is_unique(self) -> bool:
        return self.particular is not None and not self.basis

    def contains(self, values: dict[Hashable, Coef], fieldobj: Field) -> bool:
        """Exact membership: a point is determined by its free coordinates, so
        x lies in the space iff x == particular + sum over k of x[free[k]] * basis[k].
        A key that is not an unknown raises KeyError, as in `affine_linear_solve`."""
        known = set(self.unknowns)
        for u in values:
            if u not in known:
                raise KeyError(f"unknown {u!r} not declared")
        if self.is_empty:
            return False
        f = fieldobj
        x = [f.of(values.get(u, 0)) for u in self.unknowns]
        expected = list(self.particular)
        for col, vec in zip(self.free, self.basis):
            if x[col]:
                expected = [f.addmul(e, x[col], b) for e, b in zip(expected, vec)]
        return x == expected


def affine_linear_solve(
    equations: list[LinearEquation], unknowns: tuple[Hashable, ...], fieldobj: Field
) -> AffineSolutionSpace:
    """Exact sparse fraction-free Gauss-Jordan; returns empty / unique / parametrized family."""
    f = fieldobj
    n = len(unknowns)
    index = {u: i for i, u in enumerate(unknowns)}
    rows: list[dict[int, Coef]] = []
    for eq in equations:
        row = {n: f.of(eq.const)}
        for u, c in eq.coeffs.items():
            if u not in index:
                raise KeyError(f"unknown {u!r} not declared")
            row[index[u]] = f.of(c)
        rows.append(f.primitive({j: c for j, c in row.items() if c}))

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
                return AffineSolutionSpace(unknowns, None)

    # Backward pass, last pivot first: a reduced row holds no other pivot
    # column, so eliminating with it brings none in.
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for j in [j for j in row if j != col and j in pivots]:
            row = _eliminate(row, j, pivots[j], f)
        pivots[col] = row

    # Each pivot row reads a * x_col + sum over free fc of c * x_fc + c_n = 0: divide by -a.
    zero = f.zero()
    particular = [zero] * n
    free_cols = [c for c in range(n) if c not in pivots]
    basis = [[zero] * n for _ in free_cols]
    for fc, vec in zip(free_cols, basis):
        vec[fc] = f.one()
    free_vec = dict(zip(free_cols, basis))
    for col, row in pivots.items():
        scale = f.neg(f.inv(row[col]))
        for j, c in row.items():
            if j == n:
                particular[col] = f.mul(c, scale)
            elif j != col:
                free_vec[j][col] = f.mul(c, scale)
    return AffineSolutionSpace(unknowns, particular, basis, free_cols)


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
