"""Exact affine linear solving over the coefficient field.

Systems arrive as `LinearEquation`s, each meaning  sum(coeffs[u] * u) + const = 0.
Gauss-Jordan elimination over the exact field yields either "empty" or a
particular solution plus a basis of the homogeneous solution space.
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
                expected = [f.add(e, f.mul(x[col], b)) for e, b in zip(expected, vec)]
        return x == expected


def affine_linear_solve(
    equations: list[LinearEquation], unknowns: tuple[str, ...], fieldobj: Field
) -> AffineSolutionSpace:
    """Exact Gauss-Jordan; returns empty / unique / parametrized family."""
    f = fieldobj
    n = len(unknowns)
    index = {u: i for i, u in enumerate(unknowns)}
    rows: list[list[Coef]] = []
    for eq in equations:
        row = [f.zero()] * n + [f.of(eq.const)]
        for u, c in eq.coeffs.items():
            if u not in index:
                raise KeyError(f"unknown {u!r} not declared")
            row[index[u]] = f.add(row[index[u]], f.of(c))
        rows.append(row)

    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = f.inv(rows[r][col])
        rows[r] = [f.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break

    for i in range(r, len(rows)):
        if rows[i][n]:
            return AffineSolutionSpace(unknowns, None)

    particular = [f.zero()] * n
    for row_i, col in enumerate(pivots):
        particular[col] = f.neg(rows[row_i][n])

    free_cols = [c for c in range(n) if c not in pivots]
    basis: list[list[Coef]] = []
    for fc in free_cols:
        vec = [f.zero()] * n
        vec[fc] = f.one()
        for row_i, col in enumerate(pivots):
            vec[col] = f.neg(rows[row_i][fc])
        basis.append(vec)

    return AffineSolutionSpace(unknowns, particular, basis, free_cols)
