"""Independent brute-force oracles used to cross-check the engine.

`dense_affine_solve` is plain dense Gauss-Jordan on lists of field values; it
checks the engine's sparse `affine_linear_solve`.  `rescan_reduce` is the
reducer that finds each leading term by rescanning the whole component, with
the tuple `grevlex_key`; it checks the engine's heap-ordered `_reduce`.
Membership is decided by that dense exact linear algebra over the monomial
basis: p lies in the span of { x^a * g : deg(x^a * g) <= bound } iff the
column space of those products contains p's coefficient vector.  No normal
forms involved.  `brute_standard_monomials` tests every monomial up to the
degree against every leading term; it checks the engine's order-ideal walk.
`loop_monomial_grade` sums each grade coordinate in a double loop over the
grading rows; it checks the engine's precomputed weight columns.
`partial_differential` builds d(p) as a sum of partial derivatives times
differentials; it checks the one-pass `TangentPresentation.differential`.
`signed_sum_images` adds each relabel image up from signed variables; it
checks `relabel`'s term dicts.  `normal_form_agrees` compares two maps'
images by normal forms alone; it checks `AlgebraMorphism.agrees_on`.
"""

from __future__ import annotations

import itertools

from kcx.fields import Coef, Field
from kcx.groebner import vector_leading
from kcx.linsolve import AffineSolutionSpace, LinearEquation
from kcx.poly import Polynomial


def grevlex_key(exp: tuple[int, ...]):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def loop_monomial_grade(exp: tuple[int, ...], grading: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Grade of a monomial, one variable's grade row at a time."""
    if not grading:
        return ()
    out = [0] * len(grading[0])
    for e, g in zip(exp, grading):
        for t in range(len(out)):
            out[t] += e * g[t]
    return tuple(out)


def rescan_reduce(work, index, field: Field):
    """Full normal form of a row (consumed) plus its certificate degree.

    Same contract and step order as `kcx.groebner._reduce`: positions in
    order, each step reducing the current leading term by the first indexed
    basis row whose leading term divides it.  The leading term is found by a
    rescan of the component at every step.
    """
    remainder = [{} for _ in work]
    cert = 0
    for pos, comp in enumerate(work):
        while comp:
            lead = max(comp, key=grevlex_key)
            coef = comp[lead]
            for lt, _, g, g_cert in index[pos]:
                if all(x <= y for x, y in zip(lt, lead)):
                    delta = tuple(x - y for x, y in zip(lead, lt))
                    for q in range(pos, len(g)):
                        target = work[q]
                        for e, c in g[q].items():
                            e2 = tuple(x + y for x, y in zip(e, delta))
                            s = field.sub(target.get(e2, field.zero()), field.mul(coef, c))
                            if s:
                                target[e2] = s
                            else:
                                target.pop(e2, None)
                    cert = max(cert, sum(delta) + g_cert)
                    break
            else:
                remainder[pos][lead] = coef
                del comp[lead]
    return remainder, cert


def dense_affine_solve(
    equations: list[LinearEquation], unknowns: tuple[str, ...], fieldobj: Field
) -> AffineSolutionSpace:
    """Exact Gauss-Jordan on dense rows; returns empty / unique / parametrized family."""
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


def monomials_up_to(nvars: int, degree: int):
    for total in range(degree + 1):
        for exp in itertools.combinations_with_replacement(range(nvars), total):
            vec = [0] * nvars
            for i in exp:
                vec[i] += 1
            yield tuple(vec)


def brute_standard_monomials(M, degree_bound: int) -> list[tuple[int, tuple]]:
    """(position, monomial) pairs up to the degree that no leading term of M's
    lifted basis divides: by position, then degree, then lex-descending."""
    leads = [vector_leading(v) for v in M.lifted.basis]
    return [
        (k, exp)
        for k in range(M.rank)
        for exp in monomials_up_to(len(M.base.gens), degree_bound)
        if not any(pos == k and all(a <= b for a, b in zip(lead, exp)) for pos, lead in leads)
    ]


def span_contains(p: Polynomial, gens: list[Polynomial], bound: int) -> bool:
    """True iff p = sum q_i g_i with every product of total degree <= bound."""
    field = p.field
    nvars = len(p.vars)
    columns: list[Polynomial] = []
    for g in gens:
        if g.is_zero():
            continue
        gdeg = g.total_degree()
        for mono in monomials_up_to(nvars, max(bound - gdeg, 0)):
            columns.append(g.mul_monomial(mono, field.one()))
    unknowns = tuple(f"t{i}" for i in range(len(columns)))
    rows: dict[tuple, LinearEquation] = {}
    seen = set()
    for j, col in enumerate(columns):
        seen.update(col.terms)
    seen.update(p.terms)
    equations = []
    for mono in seen:
        coeffs = {}
        for j, col in enumerate(columns):
            c = col.terms.get(mono)
            if c:
                coeffs[unknowns[j]] = c
        equations.append(LinearEquation(coeffs, field.neg(p.terms.get(mono, field.zero()))))
    return not dense_affine_solve(equations, unknowns, field).is_empty


def module_span_contains(v, gens, bound: int, field: Field) -> bool:
    """Module analogue: v in span of monomial multiples of the generator vectors."""
    if not gens:
        return all(c.is_zero() for c in v)
    nvars = len(v[0].vars)
    columns = []
    for g in gens:
        gdeg = max((c.total_degree() for c in g), default=0)
        for mono in monomials_up_to(nvars, max(bound - gdeg, 0)):
            columns.append(tuple(c.mul_monomial(mono, field.one()) for c in g))
    unknowns = tuple(f"t{i}" for i in range(len(columns)))
    seen = set()
    for col in columns:
        for pos, c in enumerate(col):
            seen.update((pos, m) for m in c.terms)
    for pos, c in enumerate(v):
        seen.update((pos, m) for m in c.terms)
    equations = []
    for pos, mono in seen:
        coeffs = {}
        for j, col in enumerate(columns):
            c = col[pos].terms.get(mono)
            if c:
                coeffs[unknowns[j]] = c
        equations.append(LinearEquation(coeffs, field.neg(v[pos].terms.get(mono, field.zero()))))
    return not dense_affine_solve(equations, unknowns, field).is_empty


def partial_differential(T, p: Polynomial) -> Polynomial:
    """d(p) in the tangent presentation T: sum over T's source generators g of
    partial(p, g) * d(g), by `Polynomial` arithmetic."""
    out = Polynomial.zero(T.field, T.gens)
    for g in T.source.gens:
        dg = p.partial(g)
        if dg.is_zero():
            continue
        out = out + dg.change_vars(T.gens) * Polynomial.variable(T.field, T.gens, T.dmap[g])
    return out


def signed_sum_images(dom_gens, cod, table) -> dict[str, Polynomial]:
    """Images of `relabel(dom, cod, table)`: each a sum of signed variables."""

    def signed(n: str) -> Polynomial:
        if n.startswith("-") and n not in cod.gens:
            return -Polynomial.variable(cod.field, cod.gens, n[1:])
        return Polynomial.variable(cod.field, cod.gens, n)

    images = {}
    for g in dom_gens:
        target = table.get(g, g)
        names = () if target is None else (target,) if isinstance(target, str) else target
        images[g] = sum(map(signed, names), Polynomial.zero(cod.field, cod.gens))
    return images


def normal_form_agrees(f, g, gen: str) -> bool:
    """Whether two maps send `gen` to the same element, by normal forms alone."""
    return f.image_of(gen) == g.image_of(gen)
