"""Independent brute-force oracles used to cross-check the engine.

`dense_affine_solve` is plain dense Gauss-Jordan on lists of field values,
read off into its own `DenseSolution` record; it checks the engine's sparse
`affine_linear_solve` and its lazy read-off.  `rescan_reduce` is the
reducer that finds each leading term by rescanning the whole component, with
the tuple `grevlex_key`; it checks the engine's heap-ordered `_reduce`.
`reference_groebner` is Buchberger with the engine's pair order, criteria
and certificate rule, reducing by `rescan_reduce`; its bases check
`IdealBasis` and `ModuleBasis`, and its certificate degrees give the bounds
of the dense membership oracles (`ideal_span_bound`, `module_span_bound`),
so no bound comes from the code under test.  Membership is decided by that
dense exact linear algebra over the monomial basis: p lies in the span of
{ x^a * g : deg(x^a * g) <= bound } iff the column space of those products
contains p's coefficient vector.  No normal forms involved.  `brute_standard_monomials` tests every monomial up to the
degree against every leading term; it checks the engine's order-ideal walk.
`loop_monomial_grade` sums each grade coordinate in a double loop over the
grading rows; it checks the engine's precomputed weight columns.
`loop_change_vars` moves each term's exponents to their target positions in
a loop of its own; it checks `Polynomial.change_vars`, which moves them
through `move_exponents`.  `total_degree` and `shift` (a monomial multiple)
serve the dense membership oracles and the old solver columns.
`partial_differential` builds d(p) as a sum of partial derivatives times
differentials; it checks the one-pass `TangentPresentation.differential`.
`signed_images` builds each relabel image as a signed variable or zero; it
checks `relabel`'s term dicts.  `role_kind_lift_table` and
`role_kind_lambda_table` are the tables of l and lambda read from generator
roles; they check `tangent._vertical_lift`, which reads T's `dmap` instead.
`normal_form_agrees` compares two maps' images by normal forms alone; it
checks `AlgebraMorphism.agrees_on`.

The `chain_*` oracles build each module value as a chain of `module_pair`
(the simple tensor u (x) v), `scaled` and `+`, reducing every link on its
own; they check the one-writer `PresentedModule.combine` paths (Leibniz,
curvature, pullback, retract and the P^1 glue residues).  `bidegree_split` sorts the terms of a
T(A) (x)_A S_A(M) polynomial by their d- and module-degrees; it checks
`BundleContext.omega_m_shapes.read`.  `leibniz_tensor_presentation` builds
T^2(A) (x)_{T(A)} T(S_A(M)) by the tensor recipe; it checks that
T(T(A) (x)_A S_A(M)) is the same presentation.  `two_copy_tensor` presents
B1 (x)_A B2 on both copies of the generators with the identification
relations y#0 - z#1, the repository's only such presentation; it checks the
one-copy presentation `tensor_over_base` builds, and it builds the recipe
above, whose factor maps shift sorts (`tensor_over_base` refuses those).
`eager_make_morphism` reduces every image to its codomain normal form before
the map is built; it checks that `make_morphism`'s raw images decide the same.

`quotient_rule_gamma` writes the image of d(u_inv) on a localized chart by
the hand-derived quotient rule, 2 u_inv^3 d(u)(x)d(u) - u_inv^2 Gamma(d(u));
it checks `solve.localized_gamma`, which applies the Leibniz rule to
d(u_inv) = -u_inv^2 d(u).

`split_shapes`, `omega_m_to_tensor_algebra`, `tensor_algebra_to_omega_m`,
`embed_wedge_curvature`, `project_wedge_curvature`, `embed_wedge_torsion` and
`project_wedge_torsion` write and read the three module-to-bundle
correspondences with one hand-written loop each, splitting monomials by the
sorts of their generators; they check the table-driven `tangent.ShapeMap`
instances `omega_m_shapes`, `curvature_shapes` and `torsion_shapes`.

`linear_dual_solve` is the square-zero no-go as the bounded linear system the
engine once solved; it checks `dual_connection_solve`'s exact criterion.

`reference_correspond` is the factor-of-two check read from reduced bundle
images: each V(m) is a normal form in the double tangent before phi reads it.
It checks the raw certificate of `curvature._correspond`.
`tangent_curvature_is_flat` tests flatness on the bundle side, by normal forms
in the double tangent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dfield
from typing import Mapping

from kcx.algebra import AlgebraElement, AlgebraMorphism, PresentedAlgebra
from kcx.connections import Connection
from kcx.curvature import _wedge_tensor, curvature_target
from kcx.fields import Coef, Field
from kcx.groebner import vector_leading
from kcx.linsolve import LinearEquation
from kcx.modules import (
    ModuleElement,
    christoffel_target,
    kahler_module,
    make_module,
    universal_derivation,
    wedge_square,
)
from kcx.poly import Polynomial
from kcx.tangent import tangent_algebra, tangent_apply_functor


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


def loop_change_vars(p: Polynomial, target_vars: tuple[str, ...], rename=None) -> Polynomial:
    """`change_vars` as one loop over each term's exponents; merged monomials
    add their coefficients, and a merged term moves to the end of the dict."""
    pos: dict[int, int] = {}
    for i, v in enumerate(p.vars):
        w = rename.get(v, v) if rename else v
        if w in target_vars:
            pos[i] = target_vars.index(w)
    f, n = p.field, len(target_vars)
    out: dict[tuple[int, ...], Coef] = {}
    for e, c in p.terms.items():
        new = [0] * n
        for i, v in enumerate(e):
            if v:
                if i not in pos:
                    raise KeyError(f"variable {p.vars[i]!r} missing from target ring")
                new[pos[i]] += v
        exp = tuple(new)
        if exp in out:
            c = f.add(out.pop(exp), c)
        if c:
            out[exp] = c
    return Polynomial(f, target_vars, out)


def total_degree(p: Polynomial) -> int:
    """Largest total degree of a term of p; 0 for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=0)


def shift(p: Polynomial, exp: tuple[int, ...], coef: Coef) -> Polynomial:
    """coef * x^exp * p, term by term in p's order."""
    f = p.field
    return Polynomial(f, p.vars, {tuple(a + b for a, b in zip(e, exp)): f.mul(c, coef) for e, c in p.terms.items()})


def rescan_reduce(work, index, field: Field):
    """Full normal form of a row (consumed) plus its certificate degree.

    Same contract and step order as `kcx.groebner._reduce`: a row maps each
    occupied position to its term dict; the smallest occupied position is
    reduced first, each step reducing the current leading term by the first
    indexed basis row whose leading term divides it, and a position whose
    terms all cancel is dropped.  The leading term is found by a rescan of the
    component at every step.
    """
    remainder = {}
    cert = 0
    while work:
        pos = min(work)
        comp = work.pop(pos)
        rem = {}
        while comp:
            lead = max(comp, key=grevlex_key)
            coef = comp[lead]
            for lt, _, g, g_cert in index[pos]:
                if all(x <= y for x, y in zip(lt, lead)):
                    delta = tuple(x - y for x, y in zip(lead, lt))
                    for q, gq in g.items():
                        target = comp if q == pos else work.setdefault(q, {})
                        for e, c in gq.items():
                            e2 = tuple(x + y for x, y in zip(e, delta))
                            s = field.sub(target.get(e2, field.zero()), field.mul(coef, c))
                            if s:
                                target[e2] = s
                            else:
                                target.pop(e2, None)
                        if q != pos and not target:
                            del work[q]
                    cert = max(cert, sum(delta) + g_cert)
                    break
            else:
                rem[lead] = coef
                del comp[lead]
        if rem:
            remainder[pos] = rem
    return remainder, cert


def row_degree(row) -> int:
    """Largest total degree of a term of a row; 0 for the empty row."""
    return max((sum(e) for comp in row.values() for e in comp), default=0)


def reference_index(rows, certs, rank: int):
    """Per position, (leading term, None, row, cert) of each row led there, in
    the order given: the index `rescan_reduce` reads."""
    index = [[] for _ in range(rank)]
    for row, cert in zip(rows, certs):
        pos = min(row)
        index[pos].append((max(row[pos], key=grevlex_key), None, row, cert))
    return index


def reference_groebner(rows, rank: int, field: Field, grading=None, cap=None):
    """Reduced basis of the submodule spanned by `rows`, with certificate degrees.

    Buchberger as `kcx.groebner._groebner` runs it, written again with
    `rescan_reduce` as its reducer.  Each row is made monic and pairs with
    every earlier row led at its position, unless the lcm's grade exceeds
    `cap`.  Pairs are taken lowest (lcm degree, lcm, i, j) first.  A pair is
    dropped when its leading terms are coprime at rank 1, or by the chain
    criterion: some other row's leading term divides the lcm and neither of
    its pairs with the two is still waiting.  A new row's certificate is the
    largest of the S-polynomial's two multiples, the reduction's and its own
    degree; an input row's is its degree.  Then the rows with minimal leading
    terms are kept, in (position descending, grevlex ascending) order, and
    each tail is reduced by them.
    """
    one = field.one()
    G, leads, certs, waiting = [], [], [], {}
    index = [[] for _ in range(rank)]

    def add(row, cert):
        pos = min(row)
        lt = max(row[pos], key=grevlex_key)
        inv = field.inv(row[pos][lt])
        row = {q: {e: field.mul(c, inv) for e, c in comp.items()} for q, comp in row.items()}
        for k, (pos_k, lt_k) in enumerate(leads):
            lcm = tuple(map(max, lt_k, lt))
            if pos_k != pos:
                continue
            if grading is None or cap is None or all(map(int.__le__, loop_monomial_grade(lcm, grading), cap)):
                waiting[(k, len(G))] = (sum(lcm), lcm, k, len(G))
        G.append(row)
        leads.append((pos, lt))
        certs.append(cert)
        index[pos].append((lt, None, row, cert))

    for row in rows:
        if row:
            add({q: dict(comp) for q, comp in row.items()}, row_degree(row))
    while waiting:
        _, lcm, i, j = min(waiting.values())
        del waiting[(i, j)]
        pos, lt_i = leads[i]
        lt_j = leads[j][1]
        if rank == 1 and all(x + y == z for x, y, z in zip(lt_i, lt_j, lcm)):
            continue
        if any(
            k not in (i, j) and leads[k][0] == pos and all(map(int.__le__, leads[k][1], lcm))
            and (min(i, k), max(i, k)) not in waiting and (min(j, k), max(j, k)) not in waiting
            for k in range(len(G))
        ):
            continue
        d_i, d_j = (tuple(x - y for x, y in zip(lcm, lt)) for lt in (lt_i, lt_j))
        s = {}
        for g, d, sign in ((G[i], d_i, one), (G[j], d_j, field.neg(one))):
            for q, comp in g.items():
                target = s.setdefault(q, {})
                for e, c in comp.items():
                    e2 = tuple(map(sum, zip(e, d)))
                    if total := field.add(target.get(e2, field.zero()), field.mul(sign, c)):
                        target[e2] = total
                    else:
                        target.pop(e2, None)
                if not target:
                    del s[q]
        r, red_cert = rescan_reduce(s, index, field)
        if r:
            add(r, max(sum(d_i) + certs[i], sum(d_j) + certs[j], red_cert, row_degree(r)))

    minimal, kept = [], []
    for k in sorted(range(len(G)), key=lambda k: (-leads[k][0], grevlex_key(leads[k][1]))):
        pos, lt = leads[k]
        if not any(p == pos and all(map(int.__le__, m, lt)) for p, m in kept):
            kept.append((pos, lt))
            minimal.append(k)
    index = reference_index([G[k] for k in minimal], [certs[k] for k in minimal], rank)
    basis, basis_certs = [], []
    for k in minimal:
        pos, lt = leads[k]
        tail = {q: dict(comp) for q, comp in G[k].items()}
        del tail[pos][lt]
        r, red_cert = rescan_reduce(tail, index, field)
        r.setdefault(pos, {})[lt] = one
        basis.append(r)
        basis_certs.append(max(certs[k], red_cert))
    return basis, basis_certs


def ideal_span_bound(p: Polynomial, gens: list[Polynomial]) -> int:
    """The degree `span_contains` needs to find p in the ideal of `gens` when
    it is there: deg(p) plus the largest excess of a reference basis
    element's certificate degree over its own degree.  grevlex is
    degree-compatible, so a p with normal form 0 has a representation with
    every product of degree at most that."""
    rows, certs = reference_groebner([{0: g.terms} for g in gens if g.terms], 1, p.field)
    return total_degree(p) + max((c - row_degree(r) for r, c in zip(rows, certs)), default=0)


def module_span_bound(v, gens, field: Field) -> int:
    """The degree `module_span_contains` needs for v: its reduction's
    certificate degree over a reference basis of `gens`, at least deg(v)."""
    rank = len(v)
    rows, certs = reference_groebner([{q: c.terms for q, c in enumerate(g) if c.terms} for g in gens], rank, field)
    work = {q: dict(c.terms) for q, c in enumerate(v) if c.terms}
    degree = row_degree(work)
    return max(rescan_reduce(work, reference_index(rows, certs, rank), field)[1], degree)


@dataclass
class DenseSolution:
    """The oracle's own solution record, read off without the engine:
    `particular` is None iff the system is inconsistent, basis vector k is 1
    on unknown `free[k]` and 0 on the other free unknowns."""

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


def dense_affine_solve(
    equations: list[LinearEquation], unknowns: tuple[str, ...], fieldobj: Field
) -> DenseSolution:
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
            return DenseSolution(None)

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

    return DenseSolution(particular, basis, free_cols)


def linear_dual_solve(M, degree_bound: int) -> DenseSolution:
    """Vertical connections on M's square-zero bundle, as a linear system.

    The candidate is K(a) = a, K(m eps) = n_m eps, K(eps') = n' eps, with
    n_m and n' unknown over M's standard monomials up to the degree.
    K(lambda(m eps)) = m eps reads 0 = m eps, one constant row M.gen(m) per
    generator that no unknown enters; K respects relation row r when
    sum_m r_m n_m = 0 in M.  Every (row, position, monomial) of the rows'
    joint support is one equation, solved by `dense_affine_solve`.
    """
    f = M.base.field
    basis = brute_standard_monomials(M, degree_bound)
    layout = {(g, idx, exp): f"n[{g}][{idx}][{exp}]" for g in M.gens + ("'",) for idx, exp in basis}
    rows = [(M.gen(g), {}) for g in M.gens]
    for row in M.relations:
        coefs = dict(zip(M.gens, row))
        columns = {
            name: M.combine([(idx, shift(coefs[g], exp, f.one()))])
            for (g, idx, exp), name in layout.items()
            if g in coefs and not coefs[g].is_zero()
        }
        rows.append((M.zero(), columns))
    equations = []
    for const, columns in rows:
        support = {(k, e) for v in (const, *columns.values()) for k, c in enumerate(v.comps) for e in c.terms}
        for k, e in sorted(support):
            coeffs = {name: v.comps[k].terms[e] for name, v in columns.items() if e in v.comps[k].terms}
            equations.append(LinearEquation(coeffs, const.comps[k].terms.get(e, f.zero())))
    return dense_affine_solve(equations, tuple(layout.values()), f)


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
        gdeg = total_degree(g)
        for mono in monomials_up_to(nvars, max(bound - gdeg, 0)):
            columns.append(shift(g, mono, field.one()))
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
        gdeg = max((total_degree(c) for c in g), default=0)
        for mono in monomials_up_to(nvars, max(bound - gdeg, 0)):
            columns.append(tuple(shift(c, mono, field.one()) for c in g))
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


def module_pair(t, u, v) -> ModuleElement:
    """The simple tensor u (x) v of the tensor module t, one pair generator
    at a time."""
    M, N = t.factors
    u, v = M.element(u), N.element(v)
    return t.combine(
        (t.pair_index(i, j), cu * cv) for i, cu in enumerate(u.comps) if cu for j, cv in enumerate(v.comps) if cv
    )


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


def signed_images(dom_gens, cod, table) -> dict[str, Polynomial]:
    """Images of `relabel(dom, cod, table)`: each a signed variable or zero."""

    def signed(n: str | None) -> Polynomial:
        if n is None:
            return Polynomial.zero(cod.field, cod.gens)
        if n.startswith("-") and n not in cod.gens:
            return -Polynomial.variable(cod.field, cod.gens, n[1:])
        return Polynomial.variable(cod.field, cod.gens, n)

    return {g: signed(table.get(g, g)) for g in dom_gens}


def role_kind_lift_table(maps) -> dict:
    """The `relabel` table of l: T(T(A)) -> T(A) read from generator roles:
    the mixed sorts dpd/dpdm fold to their origin's d, every other generator
    outside A goes to 0."""
    return {
        g: maps.TA.dmap[role.origin] if role.kind in ("dpd", "dpdm") else None
        for g, role in maps.TTA.roles.items()
        if g not in maps.A.gens
    }


def role_kind_lambda_table(ctx) -> dict:
    """The `relabel` table of lambda: T(S_A(M)) -> S_A(M) read from generator
    roles: d(m) (kind dm) goes to m, module generators and d-of-base to 0."""
    return {g: role.origin if role.kind == "dm" else None for g, role in ctx.TS.roles.items() if role.kind != "base"}


def normal_form_agrees(f, g, gen: str) -> bool:
    """Whether two maps send `gen` to the same element, by normal forms alone."""
    return f.image_of(gen) == g.image_of(gen)


def chain_leibniz(M, target, comps, gamma) -> ModuleElement:
    """sum over generators g of d(c_g) (x) g + c_g * Gamma(g), for c = comps,
    with d(c_g) from `universal_derivation` and every link reduced."""
    A = M.base
    out = target.zero()
    for coef, g in zip(comps, M.gens):
        if coef.is_zero():
            continue
        out = out + module_pair(target, universal_derivation(A, A.element(coef)), M.gen(g))
        out = out + gamma[g].scaled(coef)
    return out


def chain_curvature_of_element(nabla, e) -> ModuleElement:
    """Curvature of e: the chain Leibniz rule applied twice, the second time
    to each reduced c * g_l, then each (d(x_i) ^ d(x_j)) (x) m_l paired in."""
    M = nabla.module
    T = christoffel_target(M)
    target = curvature_target(nabla)
    wedge = target.factors[0]
    out = target.zero()
    for i, l, coef in T.entries(chain_leibniz(M, T, M.element(e).comps, nabla.gamma)):
        second = chain_leibniz(M, T, M.gen(M.gens[l]).scaled(coef).comps, nabla.gamma)
        for k, t, c in T.entries(second):
            w = ModuleElement(wedge, wedge.collect([(i, k, c)]))
            out = out + module_pair(target, w, M.gen(M.gens[t]))
    return out


def chain_pullback_images(nabla, f) -> dict[str, ModuleElement]:
    """Christoffel images of the pullback of nabla along f, by the chain."""
    M, A, B = nabla.module, nabla.base, f.cod
    pulled = make_module(B, M.gens, [[f(A.element(c)) for c in row] for row in M.relations])
    target = christoffel_target(pulled)
    images = {}
    for g in M.gens:
        out = target.zero()
        for i, l, coef in christoffel_target(M).entries(nabla.gamma[g]):
            d_image = universal_derivation(B, f(A.gen(A.gens[i])))
            out = out + module_pair(target, d_image, pulled.gen(M.gens[l])).scaled(f(A.element(coef)))
        images[g] = out
    return images


def chain_retract_images(nabla, s, r) -> dict[str, ModuleElement]:
    """Christoffel images of r . nabla . s, by the chain."""
    M, Mp = nabla.module, s.dom
    omega = kahler_module(M.base)
    target = christoffel_target(Mp)
    T = christoffel_target(M)
    images = {}
    for g in Mp.gens:
        full = chain_leibniz(M, T, s(Mp.gen(g)).comps, nabla.gamma)
        out = target.zero()
        for i, l, coef in T.entries(full):
            out = out + module_pair(target, omega.gen(omega.gens[i]), r(M.gen(M.gens[l]))).scaled(coef)
        images[g] = out
    return images


def chain_localized_gamma(A, L, gamma) -> dict[str, ModuleElement]:
    """Christoffel data on Omega(A) extended to Omega(L) by the quotient rule."""
    src = kahler_module(A)
    t_src = christoffel_target(src)
    _, u, inv = L.localization_of
    omega_L = kahler_module(L)
    t_L = christoffel_target(omega_L)
    out = {}
    for v, dv in zip(A.gens, src.gens):
        comps = [Polynomial.zero(L.field, L.gens)] * t_L.rank
        for i, l, coef in t_src.entries(gamma[dv]):
            comps[t_L.pair_index(i, l)] = coef.change_vars(L.gens)
        out[omega_L.gens[A.gens.index(v)]] = t_L.element(tuple(comps))
    du_L = omega_L.gens[A.gens.index(u)]
    inv_el = L.gen(inv)
    correction = module_pair(t_L, omega_L.gen(du_L), omega_L.gen(du_L)).scaled(inv_el ** 3 * 2)
    out[omega_L.gens[-1]] = correction - out[du_L].scaled(inv_el ** 2)
    return out


def quotient_rule_gamma(L, gamma) -> dict[str, ModuleElement]:
    """Christoffel data on Omega(A) extended to Omega(L), with d(u_inv)'s image
    written by the hand-derived quotient rule: 2 u_inv^3 d(u)(x)d(u) minus
    u_inv^2 times the image of d(u), combined once."""
    A, u, inv = L.localization_of
    src = kahler_module(A)
    t_src = christoffel_target(src)
    omega_L = kahler_module(L)
    t_L = christoffel_target(omega_L)
    out = {}
    for dv, dv_L in zip(src.gens, omega_L.gens):
        pushed = ((t_L.pair_index(i, l), c.change_vars(L.gens)) for i, l, c in t_src.entries(gamma[dv]))
        out[dv_L] = t_L.combine(pushed)
    u_idx = A.gens.index(u)
    inv_sq = Polynomial.variable(L.field, L.gens, inv) ** 2
    correction = (t_L.pair_index(u_idx, u_idx), (inv_sq * Polynomial.variable(L.field, L.gens, inv)).scale(2))
    out[omega_L.gens[-1]] = t_L.combine(
        [correction, *((k, -inv_sq * c) for k, c in enumerate(out[omega_L.gens[u_idx]].comps))]
    )
    return out


def chain_glue_residues(A1, L1, A2, L2, t, omega_t, gamma1, gamma2) -> list[ModuleElement]:
    """Route 1 (t (x) t after nabla1) minus route 2 (nabla2 after t) on each
    Omega(L1) generator, by the chain."""
    g1, g2 = chain_localized_gamma(A1, L1, gamma1), chain_localized_gamma(A2, L2, gamma2)
    omega_L1, omega_L2 = kahler_module(L1), kahler_module(L2)
    t1, t2 = christoffel_target(omega_L1), christoffel_target(omega_L2)
    out = []
    for g in omega_L1.gens:
        route1 = t2.zero()
        for i, l, coef in t1.entries(chain_leibniz(omega_L1, t1, omega_L1.gen(g).comps, g1)):
            dx_i, dx_l = omega_t[omega_L1.gens[i]], omega_t[omega_L1.gens[l]]
            route1 = route1 + module_pair(t2, dx_i, dx_l).scaled(t(L1.element(coef)))
        out.append(route1 - chain_leibniz(omega_L2, t2, omega_t[g].comps, g2))
    return out


def bidegree_split(ctx, poly: Polynomial) -> tuple[tuple[Polynomial, ...], Polynomial]:
    """Raw Omega(A) (x) M components and stray part of a T(A) (x)_A S_A(M)
    polynomial: the terms of d-degree 1 and module-degree 1, read by summing
    exponents over the two lists of generator positions, and the rest."""
    T = ctx.TAS
    d_idx = [T.gens.index(f"{ctx.TA.dmap[g]}#0") for g in ctx.A.gens]
    m_idx = [T.gens.index(f"{m}#1") for m in ctx.M.gens]
    back = {f"{g}#1": g for g in ctx.A.gens}
    comps = [Polynomial.zero(ctx.A.field, ctx.A.gens)] * ctx.omega_tensor_M.rank
    stray = Polynomial.zero(T.field, T.gens)
    for exp, coef in poly.terms.items():
        if sum(exp[i] for i in d_idx) == 1 and sum(exp[i] for i in m_idx) == 1:
            i = next(k for k, pos in enumerate(d_idx) if exp[pos])
            l = next(k for k, pos in enumerate(m_idx) if exp[pos])
            rest = list(exp)
            rest[d_idx[i]] -= 1
            rest[m_idx[l]] -= 1
            base = Polynomial(T.field, T.gens, {tuple(rest): coef}).change_vars(ctx.A.gens, back)
            k = ctx.omega_tensor_M.pair_index(i, l)
            comps[k] = comps[k] + base
        else:
            stray = stray + Polynomial(T.field, T.gens, {exp: coef})
    return tuple(comps), stray


def leibniz_tensor_presentation(ctx):
    """T^2(A) (x)_{T(A)} T(S_A(M)) along T(p_A) and T(q), with the sort
    grading (module, inner tangent, shared outer tangent)."""
    T2A = tangent_algebra(ctx.TA)
    grading = {}
    for g in T2A.gens:
        m_in, m_out = T2A.grading[g]
        grading[f"{g}#0"] = (0, m_in, m_out)
    for g in ctx.TS.gens:
        mod, tan = ctx.TS.grading[g]
        grading[f"{g}#1"] = (mod, 0, tan)
    Tp, Tq = tangent_apply_functor(ctx.A_maps.p), tangent_apply_functor(ctx.q)
    return two_copy_tensor(Tp.dom, Tp.cod, Tq.cod, Tp, Tq, grading=grading, cap=(1, 1, 1))


def two_copy_tensor(A, B1, B2, f1, f2, grading=None, cap=None) -> PresentedAlgebra:
    """B1 (x)_A B2 on B1's generators suffixed #0 and B2's suffixed #1: both
    factors' relations, then f1(a) - f2(a) for each base generator a.  Given
    no grading, the factors' sort gradings are juxtaposed and capped at 1 in
    each sort (no grading when neither factor has one); a given grading is
    capped at `cap`."""
    rename0 = {g: f"{g}#0" for g in B1.gens}
    rename1 = {g: f"{g}#1" for g in B2.gens}
    gens = (*rename0.values(), *rename1.values())
    if grading is None:
        left, right = (B.grading or dict.fromkeys(B.gens, ()) for B in (B1, B2))
        k0, k1 = (len(next(iter(g.values()), ())) for g in (left, right))
        grading = {rename0[g]: left[g] + (0,) * k1 for g in B1.gens}
        grading.update({rename1[g]: (0,) * k0 + right[g] for g in B2.gens})
        grading, cap = (grading, (1,) * (k0 + k1)) if k0 + k1 else (None, None)
    relations = [r.change_vars(gens, rename0) for r in B1.relations]
    relations += [r.change_vars(gens, rename1) for r in B2.relations]
    relations += [f1.images[a].change_vars(gens, rename0) - f2.images[a].change_vars(gens, rename1) for a in A.gens]
    return PresentedAlgebra(B1.field, gens, relations, grading=grading, cap=cap)


def eager_make_morphism(dom, cod, images, certify: bool = True, name: str = "") -> AlgebraMorphism:
    """A morphism whose images are codomain normal forms, reduced one by one
    before the map is built."""
    polys = {g: cod.element(v).poly for g, v in images.items()}
    return AlgebraMorphism(dom, cod, polys, certify=certify, name=name)


# The module-to-bundle correspondences as separate hand-written loops, each
# on its own, before `tangent.ShapeMap` wrote and read all three from tables.


def split_shapes(
    P: PresentedAlgebra, poly, kinds: tuple[str, ...], base_gens: tuple[str, ...], rename: Mapping[str, str] | None = None
) -> tuple[list[tuple[list[str], Polynomial]], Polynomial]:
    """Split `poly` over P into the monomials of one shape and the stray rest.

    A monomial has the shape when it holds one degree-1 generator of each
    sort in `kinds` and only base generators besides.  Each such monomial
    gives those generators in the order of `kinds` and the rest of the term,
    renamed by `rename` into a polynomial over `base_gens`; every other
    monomial goes to the stray polynomial over P.
    """
    if isinstance(poly, AlgebraElement):
        poly = poly.poly
    kind_at = [P.roles[g].kind for g in P.gens]
    found, stray = [], {}
    for exp, coef in poly.terms.items():
        names: dict[str, str] = {}
        rest = list(exp)
        for pos, vdeg in enumerate(exp):
            kind = kind_at[pos]
            if not vdeg or kind == "base":
                continue
            if vdeg != 1 or kind not in kinds or kind in names:
                break
            names[kind] = P.gens[pos]
            rest[pos] = 0
        else:
            if len(names) == len(kinds):
                rest_poly = Polynomial._of_terms(P.field, P.gens, {tuple(rest): coef})
                found.append(([names[k] for k in kinds], rest_poly.change_vars(base_gens, rename)))
                continue
        stray[exp] = coef
    return found, Polynomial._of_terms(P.field, P.gens, stray)


def omega_m_to_tensor_algebra(ctx, e: ModuleElement) -> Polynomial:
    """Element of Omega(A) (x) M as a raw polynomial in T(A) (x)_A S_A(M)."""
    if e.module is not ctx.omega_tensor_M:
        raise ValueError("expected an element of Omega(A) (x) M")
    T = ctx.TAS
    base_rename = {g: f"{g}#1" for g in ctx.A.gens}
    out = Polynomial.zero(T.field, T.gens)
    for i, l, coef in ctx.omega_tensor_M.entries(e):
        dxi = f"{ctx.TA.dmap[ctx.A.gens[i]]}#0"
        ml = f"{ctx.M.gens[l]}#1"
        out = out + (
            coef.change_vars(T.gens, base_rename)
            * Polynomial.variable(T.field, T.gens, dxi)
            * Polynomial.variable(T.field, T.gens, ml)
        )
    return out


def tensor_algebra_to_omega_m(ctx, e) -> tuple[ModuleElement, Polynomial]:
    """Split a T(A) (x) S element into its Omega(A) (x) M part plus the rest.

    Relies on the (d-degree, module-degree) bigrading of the tensor
    presentation: the ideal is bihomogeneous, so normal forms split by
    bidegree and the (1,1) part is well defined.
    """
    T, target = ctx.TAS, ctx.omega_tensor_M
    d_pos = {f"{ctx.TA.dmap[g]}#0": i for i, g in enumerate(ctx.A.gens)}
    m_pos = {f"{m}#1": l for l, m in enumerate(ctx.M.gens)}
    base = {f"{g}#1": g for g in ctx.A.gens}
    found, stray = split_shapes(T, T.element(e).poly, ("d", "module"), ctx.A.gens, base)
    comps = ((target.pair_index(d_pos[d], m_pos[m]), c) for (d, m), c in found)
    return target.combine(comps), stray


def embed_wedge_curvature(nabla: Connection, e: ModuleElement) -> Polynomial:
    """psi: Omega^2 (x) M -> T^2(S_A(M)) as a raw polynomial.

    A wedge generator (d(x_i) ^ d(x_j)) (x) m goes to
    m d(x_i) d'(x_j) - m d'(x_i) d(x_j), with d the first and d' the second
    tangent level.
    """
    ctx = nabla.ctx
    T2S, TS, M = ctx.S_maps.TTA, ctx.TS, nabla.module
    target = curvature_target(nabla)
    if e.module is not target:
        raise ValueError("expected an element of Omega^2 (x) M")
    w2 = target.factors[0]
    var = lambda name: Polynomial.variable(T2S.field, T2S.gens, name)
    out = Polynomial.zero(T2S.field, T2S.gens)
    for p, l, coef in target.entries(e):
        i, j = w2.pairs[p]
        m = var(M.gens[l])
        d_i, d_j = var(TS.dmap[ctx.A.gens[i]]), var(TS.dmap[ctx.A.gens[j]])
        dp_i, dp_j = var(T2S.dmap[ctx.A.gens[i]]), var(T2S.dmap[ctx.A.gens[j]])
        out = out + coef.change_vars(T2S.gens) * m * (d_i * dp_j - dp_i * d_j)
    return out


def project_wedge_curvature(nabla: Connection, poly) -> ModuleElement:
    """phi: T^2(S_A(M)) -> Omega^2 (x) M, killing monomials of other shapes.

    Keeps exactly the monomials with one module generator, one first-level and
    one second-level base differential (no mixed sorts); accepts an element or
    a raw polynomial.
    """
    T2S, A, M = nabla.ctx.S_maps.TTA, nabla.base, nabla.module
    origin = lambda g: A.gens.index(T2S.roles[g].origin)
    return _wedge_tensor(
        nabla,
        [
            (origin(d), origin(dp), M.gens.index(m), c)
            for (m, d, dp), c in split_shapes(T2S, poly, ("module", "d", "dp"), A.gens)[0]
        ],
    )


def embed_wedge_torsion(nabla: Connection, e: ModuleElement) -> Polynomial:
    """psi-hat: Omega^2 -> T(S_A(Omega)) raw; d(x_i)^d(x_j) -> the d/d' commutator."""
    ctx = nabla.ctx
    TS, M = ctx.TS, nabla.module
    w2 = wedge_square(kahler_module(nabla.base))
    if e.module is not w2:
        raise ValueError("expected an element of Omega^2")
    var = lambda name: Polynomial.variable(TS.field, TS.gens, name)
    out = Polynomial.zero(TS.field, TS.gens)
    for p, coef in enumerate(e.comps):
        if coef.is_zero():
            continue
        i, j = w2.pairs[p]
        m_i, m_j = var(M.gens[i]), var(M.gens[j])
        d_i, d_j = var(TS.dmap[ctx.A.gens[i]]), var(TS.dmap[ctx.A.gens[j]])
        out = out + coef.change_vars(TS.gens) * (m_i * d_j - d_i * m_j)
    return out


def project_wedge_torsion(nabla: Connection, poly) -> ModuleElement:
    """phi-hat: T(S_A(Omega)) -> Omega^2; keeps module-times-differential monomials."""
    TS, A, M = nabla.ctx.TS, nabla.base, nabla.module
    w2 = wedge_square(kahler_module(A))
    terms = (
        (M.gens.index(m), A.gens.index(TS.roles[d].origin), c)
        for (m, d), c in split_shapes(TS, poly, ("module", "d"), A.gens)[0]
    )
    return ModuleElement(w2, w2.collect(terms))


def reference_correspond(nabla: Connection, images, bundle_map: AlgebraMorphism, shapes):
    """(bundle images, residuals) per generator m, every V(m) reduced first.

    Residuals: V(m) - psi(w); 2w - phi(V(m)); and, away from characteristic
    two, w - phi(V(m))/2, with psi and phi the `write` and `read` of `shapes`.
    """
    field = nabla.base.field
    half = None if field.char == 2 else field.inv(field.of(2))
    tangent_images = {m: bundle_map.image_of(m) for m in nabla.module.gens}
    residuals = {}
    for m, v_img in tangent_images.items():
        w = images[m]
        phi_img = shapes.read(v_img)[0]
        residuals[m] = [v_img - shapes.write(w), w.scaled(2) - phi_img]
        if half is not None:
            residuals[m].append(w - phi_img.scaled(half))
    return tangent_images, residuals


def tangent_curvature_is_flat(nabla: Connection, C: AlgebraMorphism) -> bool:
    """Flat bundle curvature: identity on the base, zero on module generators."""
    ctx = nabla.ctx
    return all(C.image_of(m).is_zero() for m in nabla.module.gens) and all(
        C(ctx.S.gen(x)) == ctx.S_maps.TTA.gen(x) for x in ctx.A.gens
    )
