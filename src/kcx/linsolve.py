"""Exact affine linear solving over the coefficient field.

Systems arrive as `LinearEquation`s, each meaning  sum(coeffs[u] * u) + const = 0.
Gauss-Jordan elimination over the exact field yields either "empty" or a
particular solution plus a basis of the homogeneous solution space.  Rows are
sparse (column -> nonzero coefficient, the constant at column n), and an
elimination step touches only the pivot row's nonzeros.  The reduced row
echelon form is unique for the column order of `unknowns`, so the result does
not depend on the order of the equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .fields import Coef, Field


@dataclass(frozen=True)
class LinearEquation:
    coeffs: dict[str, Coef]
    const: Coef


@dataclass
class AffineSolutionSpace:
    """Solution set of an affine-linear system, exactly.

    `particular` is None iff the system is inconsistent; `basis` spans the
    homogeneous solutions, so the dimension is len(basis).  Basis vector k is
    1 on unknown `free[k]` and 0 on the other free unknowns, and `particular`
    is 0 on all of them.
    """

    unknowns: tuple[str, ...]
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

    def contains(self, values: dict[str, Coef], fieldobj: Field) -> bool:
        """Exact membership: a point is determined by its free coordinates, so
        x lies in the space iff x == particular + sum over k of x[free[k]] * basis[k]."""
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
    equations: list[LinearEquation], unknowns: tuple[str, ...], fieldobj: Field
) -> AffineSolutionSpace:
    """Exact sparse Gauss-Jordan; returns empty / unique / parametrized family."""
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
        rows.append({j: c for j, c in row.items() if c})

    # Forward pass: each new pivot row is scaled to 1 at its smallest column.
    pivots: dict[int, dict[int, Coef]] = {}
    for row in rows:
        while len(row) > (n in row):  # an unknown is left in the row
            col = min(j for j in row if j != n)
            if col not in pivots:
                inv = f.inv(row[col])
                pivots[col] = {j: f.mul(c, inv) for j, c in row.items()}
                break
            _eliminate(row, col, pivots[col], f)
        else:
            if row:  # 0 = nonzero constant
                return AffineSolutionSpace(unknowns, None)

    # Backward pass, last pivot first: a reduced row holds no other pivot
    # column, so subtracting it brings none in.
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for j in [j for j in row if j != col and j in pivots]:
            _eliminate(row, j, pivots[j], f)

    # Each pivot row now reads x_col + sum over free fc of c * x_fc + c_n = 0.
    zero = f.zero()
    particular = [zero] * n
    free_cols = [c for c in range(n) if c not in pivots]
    basis = [[zero] * n for _ in free_cols]
    for fc, vec in zip(free_cols, basis):
        vec[fc] = f.one()
    free_vec = dict(zip(free_cols, basis))
    for col, row in pivots.items():
        for j, c in row.items():
            if j == n:
                particular[col] = f.neg(c)
            elif j != col:
                free_vec[j][col] = f.neg(c)
    return AffineSolutionSpace(unknowns, particular, basis, free_cols)


def _eliminate(row: dict[int, Coef], col: int, pivot: dict[int, Coef], f: Field) -> None:
    """row -= row[col] * pivot in place, where pivot[col] is 1; touches only the
    pivot row's nonzeros and drops the entries that cancel (row[col] among them)."""
    factor = f.neg(row[col])
    for j, c in pivot.items():
        v = f.addmul(row[j], factor, c) if j in row else f.mul(factor, c)
        if v:
            row[j] = v
        else:
            del row[j]
