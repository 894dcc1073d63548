"""Bounded-degree existence solvers for connections, and two-chart gluing.

Unknowns are the coefficients of each generator image over the standard
monomials of the target quotient module, up to the requested degree, each
keyed by what it is: (generator, position, exponent), with the chart in front
in the gluing.  `_unknowns` takes them from one walk over that order ideal and
counts them exactly, refusing a system past MAX_UNKNOWNS before any column is
built.  On a relation row r the Leibniz residue, the sum over g of
d(r_g) (x) g + r_g * Gamma(g), is affine in them: its constant is the residue
of the zero candidate, and unknown (g, idx, exp) enters it as
r_g * x^exp * e_idx, reduced once.  The gluing rows pass through localization
and the transition, which are linear over the chart rings: they are evaluated
at zero and once per generator and unit e_idx, and unknown (g, idx, exp)
enters them as that unit's column scaled by t(x^exp) on chart 1 and by y^exp
on chart 2.

Columns and constants are the Groebner engine's own rows (`groebner.Row`,
position -> term dict, occupied positions only): a column's terms are written
straight from r_g's terms or the unit's row scaled component by component, and
reduced by `ModuleBasis.sparse_normal_form` with no conversion, so no module
element is built per unknown (the symbolic preprocessing of Faugere's F4,
where each monomial multiple is reduced as a sparse row).  The exact sparse
system is solved over the coefficient field, and both solvers return its
`AffineSolutionSpace`, whose unknowns are the keys.  The space keeps the
forward pass's echelon rows: the verdict (empty, unique, or a family of some
dimension) and `AffineSolutionSpace.contains` read them alone, and a
particular solution is back-substituted through them only when read.  The
solvers work in Omega(A) (x) M alone and never build the tangent bundle.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import AlgebraMorphism, PresentedAlgebra, compose_morphisms, identity_morphism
from .algebra import localize, make_morphism
from .connections import AxiomCheck, AxiomReport, Connection, connection_residues, leibniz_terms
from .errors import KcxError, NotInverse, SolverTooLarge
from .fields import Field
from .groebner import Row
from .linsolve import AffineSolutionSpace, LinearEquation, affine_linear_solve
from .modules import (
    ModuleElement,
    PresentedModule,
    christoffel_target,
    kahler_module,
    module_standard_monomials,
    universal_derivation,
)
from .poly import Polynomial, _mul_terms, exp_mul


# A solution space keeps only the sparse echelon rows, so the limit guards
# time alone: `tests/solve_scale.py` prints the time and memory of verdicts
# past it (S^3 at degree 9, 16,336 unknowns, takes seconds and under 20 MiB).
# The count is exact (generators times standard monomials of the target); the
# largest of any example, golden, gallery case or benchmark op is 288 (S^3 at
# degree 1).
MAX_UNKNOWNS = 5000


def _unknowns(key: tuple, gens, target: PresentedModule, degree_bound: int, taken: int = 0) -> list[tuple]:
    """One unknown per generator g and standard (position idx, monomial exp)
    pair of `target` up to the degree bound, keyed `(*key, g, idx, exp)`, in
    generator-major order.

    The unknowns are counted as the walk yields them, on top of `taken`
    counted already; past MAX_UNKNOWNS the solve is refused before any column
    is built.
    """
    basis = []
    for pair in module_standard_monomials(target, degree_bound):
        basis.append(pair)
        if taken + len(gens) * len(basis) > MAX_UNKNOWNS:
            raise SolverTooLarge(f"degree bound {degree_bound} needs more than {MAX_UNKNOWNS} unknowns, the limit")
    return [(*key, g, idx, exp) for g in gens for idx, exp in basis]


def _terms(v: ModuleElement) -> Row:
    """A module element as a row, in its components' order."""
    return {pos: dict(comp.terms) for pos, comp in enumerate(v.comps) if comp.terms}


def _leibniz_rows(
    M: PresentedModule, keys: list[tuple], first_row: int = 0
) -> tuple[list[Row], dict[tuple, dict[int, Row]]]:
    """M's well-definedness rows, numbered from `first_row`: each relation
    row's residue at the zero candidate, and the columns of the unknowns
    `keys` on those rows.

    Unknown (..., g, idx, exp) is the coefficient of x^exp * e_idx in the
    image of g, so on row r it contributes r_g * x^exp * e_idx: r_g's terms,
    shifted by exp and placed at idx, reduced once in the Christoffel target
    as a row.
    """
    target = christoffel_target(M)
    reduce = target.lifted.sparse_normal_form
    constants = [_terms(r) for _, r in connection_residues(M, {g: target.zero() for g in M.gens})]
    columns: dict[tuple, dict[int, Row]] = {key: {} for key in keys}
    for r, row in enumerate(M.relations, first_row):
        coefs = dict(zip(M.gens, row))
        for key in keys:
            *_, g, idx, exp = key
            r_g = coefs.get(g)
            if r_g is not None and r_g.terms:
                columns[key][r] = reduce({idx: {exp_mul(e, exp): c for e, c in r_g.terms.items()}})
    return constants, columns


def _affine_equations(
    constants: list[Row], columns: dict[tuple, dict[int, Row]], f: Field
) -> list[LinearEquation]:
    """The exact linear system  constants[r] + sum over u of u * columns[u][r] = 0.

    `constants` holds each row's residue with every unknown zero, and
    `columns[u]` maps the rows that unknown u enters to its contribution
    there, all as rows; every (row, position, monomial) in their joint
    support gives one equation.
    """
    rows = [{(pos, e): {} for pos, comp in const.items() for e in comp} for const in constants]
    for u, col in columns.items():
        for r, vector in col.items():
            support = rows[r]
            for pos, comp in vector.items():
                for e, c in comp.items():
                    support.setdefault((pos, e), {})[u] = c
    zero = f.zero()
    return [
        LinearEquation(coeffs, const.get(pos, {}).get(e, zero))
        for const, support in zip(constants, rows)
        for (pos, e), coeffs in support.items()
    ]


def solve_connection_space(M: PresentedModule, degree_bound: int) -> AffineSolutionSpace:
    """Exact solution space of Christoffel coefficients up to a degree bound,
    over the unknowns (generator, position, exponent)."""
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    f = M.base.field
    keys = _unknowns((), M.gens, christoffel_target(M), degree_bound)
    return affine_linear_solve(_affine_equations(*_leibniz_rows(M, keys), f), tuple(keys), f)


# ---------------------------------------------------------------------------
# two-chart gluing
# ---------------------------------------------------------------------------


def kahler_map(f: AlgebraMorphism) -> dict[str, ModuleElement]:
    """The functorial map of differential modules over f on generators:
    d(v) -> d(f(v)), with images in Omega(cod f)."""
    omega_dom = kahler_module(f.dom)
    return {
        dv: universal_derivation(f.cod, f.images[v]) for v, dv in zip(f.dom.gens, omega_dom.gens)
    }


def localized_gamma(L: PresentedAlgebra, gamma: dict[str, ModuleElement]) -> dict[str, ModuleElement]:
    """Extend Christoffel data on Omega(A) to Omega(L), L = A[u_inv] a `localize`.

    With u invertible, d(u_inv) = -u_inv^2 d(u) in Omega(L), so the new
    generator's image is the Leibniz rule on that row: d(-u_inv^2) (x) d(u)
    plus -u_inv^2 times the image of d(u).  The lifted row is then satisfied
    identically, so the extension is well defined whenever the input is.
    """
    A, u, inv = L.localization_of
    src = kahler_module(A)
    t_src = christoffel_target(src)
    omega_L = kahler_module(L)
    t_L = christoffel_target(omega_L)
    out: dict[str, ModuleElement] = {}
    for dv, dv_L in zip(src.gens, omega_L.gens):
        pushed = ((t_L.pair_index(i, l), c.change_vars(L.gens)) for i, l, c in t_src.entries(gamma[dv]))
        out[dv_L] = t_L.combine(pushed)
    inv_sq = Polynomial.variable(L.field, L.gens, inv) ** 2
    out[omega_L.gens[-1]] = t_L.combine(leibniz_terms(omega_L, [(A.gens.index(u), -inv_sq)], out))
    return out


class GlueResult(NamedTuple):
    """The gluing check's report, or the solved space over the unknowns
    (chart, generator, position, exponent)."""

    report: AxiomReport | None = None
    space: AffineSolutionSpace | None = None


def _glue_residues(t: AlgebraMorphism, omega_t: dict[str, ModuleElement], gamma1, gamma2) -> list[ModuleElement]:
    """Route 1 (nabla1, then t (x) t) minus route 2 (t, then nabla2) on each
    Omega(L1) generator, reduced once, for the transition t: L1 -> L2 of two
    localized charts; zero means compatible.  nabla1 of a generator is its
    localized Christoffel image, read off `localized_gamma` directly."""
    omega_L1, omega_L2 = kahler_module(t.dom), kahler_module(t.cod)
    g1_loc, g2_loc = localized_gamma(t.dom, gamma1), localized_gamma(t.cod, gamma2)
    t1, t2 = christoffel_target(omega_L1), christoffel_target(omega_L2)
    out = []
    for g in omega_L1.gens:
        terms = []  # route 1: t (x) t applied to nabla1(g)
        for i, l, coef in t1.entries(g1_loc[g]):
            tc = t.apply_raw(coef)
            u, v = omega_t[omega_L1.gens[i]].comps, omega_t[omega_L1.gens[l]].comps  # images of d(x_i), d(x_l)
            terms += [(t2.pair_index(a, b), tc * p * q) for a, p in enumerate(u) if p for b, q in enumerate(v) if q]
        route2 = leibniz_terms(omega_L2, enumerate(omega_t[g].comps), g2_loc)
        out.append(t2.combine(terms + [(k, -p) for k, p in route2]))
    return out


def glued_connection_check(
    A1: PresentedAlgebra,
    u1: str,
    A2: PresentedAlgebra,
    u2: str,
    transition_images: dict[str, object],
    inverse_images: dict[str, object],
    nabla1: Connection | None = None,
    nabla2: Connection | None = None,
    degree: int = 6,
) -> GlueResult:
    """Check or solve compatibility of chart connections across a transition.

    With concrete connections the two composites are compared per generator;
    with no connections given, Christoffel coefficients on both charts (of
    degree at most `degree`) become unknowns and the combined system of chart
    well-definedness and gluing constraints is solved exactly.  The images
    of the transition and its inverse are expressions, elements or
    polynomials over the localized charts' generators (`make_morphism`).
    """
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    L1, L2 = localize(A1, u1), localize(A2, u2)
    t = make_morphism(L1, L2, transition_images, name="t")
    tinv = make_morphism(L2, L1, inverse_images, name="t_inv")
    if compose_morphisms(tinv, t) != identity_morphism(L1) or compose_morphisms(
        t, tinv
    ) != identity_morphism(L2):
        raise NotInverse("transition is not invertible against the supplied inverse")
    omega_t = kahler_map(t)

    if (nabla1 is None) != (nabla2 is None):
        raise KcxError("give connections for both charts or neither")

    if nabla1 is not None:
        residues = _glue_residues(t, omega_t, nabla1.gamma, nabla2.gamma)
        report = AxiomReport()
        for g, r in zip(kahler_module(L1).gens, residues):
            if r.is_zero():
                report.entries.append(AxiomCheck(f"glue[{g}]", "pass"))
            else:
                report.entries.append(AxiomCheck(f"glue[{g}]", "fail", g, f"{r.render()} != 0"))
        return GlueResult(report=report)

    f = A1.field
    omegas = [kahler_module(A) for A in (A1, A2)]
    targets = [christoffel_target(omega) for omega in omegas]
    charts: list[list[tuple]] = []  # each chart's unknowns, all counted before any column
    for chart_no, (omega, target) in enumerate(zip(omegas, targets), 1):
        charts.append(_unknowns((chart_no,), omega.gens, target, degree, sum(map(len, charts))))

    constants: list[Row] = []
    columns: dict[tuple, dict[int, Row]] = {}
    for omega, keys in zip(omegas, charts):
        rows, chart_columns = _leibniz_rows(omega, keys, len(constants))
        constants += rows
        columns.update(chart_columns)
    # The gluing rows are affine in the Christoffel data and linear over the
    # chart rings (chart 1's through t): the column of unit e_idx in the image
    # of g is the residue there less the one at zero, and the column of
    # x^exp * e_idx is that one scaled by t(x^exp) on chart 1, y^exp on chart 2,
    # reduced once as a row in the gluing rows' module.
    reduce = christoffel_target(kahler_module(L2)).lifted.sparse_normal_form
    zeros = [{g: target.zero() for g in omega.gens} for omega, target in zip(omegas, targets)]
    glue0 = _glue_residues(t, omega_t, *zeros)
    first = len(constants)
    constants += map(_terms, glue0)
    for chart, (keys, target, L) in enumerate(zip(charts, targets, (L1, L2))):
        units: dict[tuple[str, int], list[Row]] = {}
        for key in keys:
            _, g, idx, exp = key
            if (g, idx) not in units:
                unit = target.gen(target.gens[idx])
                gammas = [{**z, g: unit} if c == chart else z for c, z in enumerate(zeros)]
                rows = _glue_residues(t, omega_t, *gammas)
                units[g, idx] = [_terms(r - r0) for r, r0 in zip(rows, glue0)]
            mono = Polynomial.monomial(f, L.gens, (*exp, 0), 1)
            scale = t.apply_raw(mono) if chart == 0 else mono
            columns[key].update(
                (first + k, reduce({pos: _mul_terms(comp, scale.terms, f) for pos, comp in v.items()}))
                for k, v in enumerate(units[g, idx])
            )

    equations = _affine_equations(constants, columns, f)
    return GlueResult(space=affine_linear_solve(equations, tuple(k for keys in charts for k in keys), f))
