"""Bounded-degree existence solvers for connections, and two-chart gluing.

Everything here exploits that the Leibniz residues of candidate Christoffel
data are affine-linear in the unknown coefficients: evaluating the residues at
the zero candidate and at each coordinate unit produces an exact linear
system, solved over the coefficient field.  Unknowns are the coefficients of
each generator image over the standard monomials of the target quotient
module, up to the requested degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraMorphism, PresentedAlgebra, compose_morphisms, localize, make_morphism
from .connections import AxiomCheck, AxiomReport, Connection, apply_connection
from .errors import KcxError
from .fields import Coef, Field
from .linsolve import AffineSolutionSpace, LinearEquation, affine_linear_solve
from .modules import (
    ModuleElement,
    PresentedModule,
    kahler_module,
    module_standard_monomials,
    tensor_modules,
    universal_derivation,
)
from .poly import Polynomial
from .tangent import bundle_context


@dataclass
class ConnectionSpace:
    """Solution space of the well-definedness system for one module."""

    module: PresentedModule
    degree_bound: int
    layout: dict[tuple[str, int, tuple], str]  # (generator, target index, exponent) -> unknown
    space: AffineSolutionSpace

    @property
    def is_empty(self) -> bool:
        return self.space.is_empty

    @property
    def dimension(self) -> int:
        return self.space.dimension

    def coefficients_of(self, nabla: Connection) -> dict[str, Coef] | None:
        """Unknown assignment matching a concrete connection, if representable."""
        values: dict[str, Coef] = {}
        for g in self.module.gens:
            for idx, comp in enumerate(nabla.gamma[g].comps):
                for exp, coef in comp.terms.items():
                    key = (g, idx, exp)
                    if key not in self.layout:
                        return None
                    values[self.layout[key]] = coef
        return values

    def contains_connection(self, nabla: Connection) -> bool:
        values = self.coefficients_of(nabla)
        if values is None:
            return False
        return self.space.contains(values, self.module.base.field)


def _gamma_from_units(M, target, entries: dict[tuple[str, int, tuple], Coef]):
    f = M.base.field
    gamma = {}
    for g in M.gens:
        comps = [Polynomial.zero(f, M.base.gens)] * target.rank
        for (gen, idx, exp), coef in entries.items():
            if gen == g:
                comps[idx] = comps[idx] + Polynomial.monomial(f, M.base.gens, exp, coef)
        gamma[g] = target.element(tuple(comps))
    return gamma


def _affine_equations(residues, layout: dict, f: Field) -> list[LinearEquation]:
    """The exact linear system of residues that are affine-linear in the unknowns.

    `residues(entries)` evaluates every residue row with the unknowns set to
    `entries` (a layout key -> value map, missing keys zero).  Rows are
    evaluated at zero and at each unit; every (row, position, monomial) in
    their joint support gives one equation.
    """
    base = residues({})
    columns: dict[str, list[ModuleElement]] = {}
    for key, name in layout.items():
        columns[name] = [r - r0 for r, r0 in zip(residues({key: f.one()}), base)]

    equations: list[LinearEquation] = []
    for row_idx in range(len(base)):
        support = set()
        for pos, comp in enumerate(base[row_idx].comps):
            support.update((pos, e) for e in comp.terms)
        for col in columns.values():
            for pos, comp in enumerate(col[row_idx].comps):
                support.update((pos, e) for e in comp.terms)
        for pos, e in support:
            coeffs = {}
            for name, col in columns.items():
                c = col[row_idx].comps[pos].terms.get(e)
                if c:
                    coeffs[name] = c
            equations.append(
                LinearEquation(coeffs, base[row_idx].comps[pos].terms.get(e, f.zero()))
            )
    return equations


def solve_connection_space(M: PresentedModule, degree_bound: int) -> ConnectionSpace:
    """Exact solution space of Christoffel coefficients up to a degree bound."""
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    from .connections import connection_residues

    ctx = bundle_context(M)
    target = ctx.omega_tensor_M
    f = M.base.field
    basis = module_standard_monomials(target, degree_bound)
    layout: dict[tuple[str, int, tuple], str] = {}
    names: list[str] = []
    for g in M.gens:
        for idx, exp in basis:
            name = f"c[{g}][{target.gens[idx]}][{','.join(map(str, exp))}]"
            layout[(g, idx, exp)] = name
            names.append(name)

    def residues(entries) -> list[ModuleElement]:
        return [r for _, r in connection_residues(M, _gamma_from_units(M, target, entries))]

    equations = _affine_equations(residues, layout, f)
    return ConnectionSpace(M, degree_bound, layout, affine_linear_solve(equations, tuple(names), f))


# ---------------------------------------------------------------------------
# two-chart gluing
# ---------------------------------------------------------------------------


def kahler_map(f: AlgebraMorphism) -> dict[str, ModuleElement]:
    """The functorial map of differential modules over f on generators:
    d(v) -> d(f(v)), with images in Omega(cod f)."""
    omega_dom = kahler_module(f.dom)
    return {
        dv: universal_derivation(f.cod, f(f.dom.gen(v))) for v, dv in zip(f.dom.gens, omega_dom.gens)
    }


def localized_gamma(
    A: PresentedAlgebra, L: PresentedAlgebra, gamma: dict[str, ModuleElement]
) -> dict[str, ModuleElement]:
    """Extend Christoffel data on Omega(A) to Omega(L) for one adjoined inverse.

    The new generator's image follows from the quotient rule: with u invertible
    and d(u_inv) = -u_inv^2 d(u), the image is 2 u_inv^3 d(u)(x)d(u) minus
    u_inv^2 times the image of d(u).  The lifted row is then satisfied
    identically, so the extension is well defined whenever the input is.
    """
    src = kahler_module(A)
    t_src = tensor_modules(src, src)
    _, u, inv = L._memo["localization_of"]
    omega_L = kahler_module(L)
    t_L = tensor_modules(omega_L, omega_L)
    out: dict[str, ModuleElement] = {}

    def push(e: ModuleElement) -> ModuleElement:
        comps = [Polynomial.zero(L.field, L.gens)] * t_L.rank
        for i, l, coef in t_src.entries(e):
            comps[t_L.pair_index(i, l)] = coef.change_vars(L.gens)
        return t_L.element(tuple(comps))

    for v, dv in zip(A.gens, src.gens):
        out[omega_L.gens[A.gens.index(v)]] = push(gamma[dv])
    u_idx = A.gens.index(u)
    du_L = omega_L.gens[u_idx]
    inv_el = L.gen(inv)
    correction = t_L.pair(omega_L.gen(du_L), omega_L.gen(du_L)).scaled(inv_el ** 3 * 2)
    out[omega_L.gens[-1]] = correction - out[du_L].scaled(inv_el ** 2)
    return out


@dataclass
class GlueResult:
    report: AxiomReport | None = None
    space: AffineSolutionSpace | None = None
    layout: dict[tuple[int, str, int, tuple], str] | None = None  # chart, gen, idx, exp

    @property
    def passed(self) -> bool:
        return self.report is not None and self.report.all_pass


def _glue_residues(
    A1, L1, A2, L2, t: AlgebraMorphism, omega_t: dict[str, ModuleElement], gamma1, gamma2
) -> list[ModuleElement]:
    """Both composites on each Omega(L1) generator; zero means compatible."""
    g1_loc = localized_gamma(A1, L1, gamma1)
    g2_loc = localized_gamma(A2, L2, gamma2)
    omega_L1, omega_L2 = kahler_module(L1), kahler_module(L2)
    nabla1 = Connection(omega_L1, g1_loc)
    nabla2 = Connection(omega_L2, g2_loc)
    t2 = tensor_modules(omega_L2, omega_L2)
    out = []
    for g in omega_L1.gens:
        first = apply_connection(nabla1, omega_L1.gen(g))
        route1 = t2.zero()
        for i, l, coef in nabla1.ctx.omega_tensor_M.entries(first):
            dx_i, dx_l = omega_t[omega_L1.gens[i]], omega_t[omega_L1.gens[l]]
            route1 = route1 + t2.pair(dx_i, dx_l).scaled(t(L1.element(coef)))
        route2 = apply_connection(nabla2, omega_t[g])
        out.append(route1 - route2)
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
    well-definedness and gluing constraints is solved exactly.
    """
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    from .connections import connection_residues

    L1, L2 = localize(A1, u1), localize(A2, u2)
    t = make_morphism(L1, L2, transition_images, name="t")
    tinv = make_morphism(L2, L1, inverse_images, name="t_inv")
    from .algebra import identity_morphism

    if compose_morphisms(tinv, t) != identity_morphism(L1) or compose_morphisms(
        t, tinv
    ) != identity_morphism(L2):
        raise KcxError("transition is not invertible against the supplied inverse")
    omega_t = kahler_map(t)

    if (nabla1 is None) != (nabla2 is None):
        raise KcxError("give connections for both charts or neither")

    if nabla1 is not None:
        residues = _glue_residues(A1, L1, A2, L2, t, omega_t, nabla1.gamma, nabla2.gamma)
        report = AxiomReport()
        for g, r in zip(kahler_module(L1).gens, residues):
            if r.is_zero():
                report.entries.append(AxiomCheck(f"glue[{g}]", "pass"))
            else:
                report.entries.append(AxiomCheck(f"glue[{g}]", "fail", g, r.render(), "0"))
        return GlueResult(report=report)

    f = A1.field
    layout: dict[tuple[int, str, int, tuple], str] = {}
    names: list[str] = []
    charts = []
    for chart_no, A in ((1, A1), (2, A2)):
        omega = kahler_module(A)
        target = tensor_modules(omega, omega)
        basis = module_standard_monomials(target, degree)
        for g in omega.gens:
            for idx, exp in basis:
                name = f"c{chart_no}[{g}][{target.gens[idx]}][{','.join(map(str, exp))}]"
                layout[(chart_no, g, idx, exp)] = name
                names.append(name)
        charts.append((A, omega, target, basis))

    def gammas(entries: dict[tuple[int, str, int, tuple], Coef]):
        out = []
        for chart_no, (A, omega, target, basis) in zip((1, 2), charts):
            sub = {
                (g, idx, exp): c
                for (cn, g, idx, exp), c in entries.items()
                if cn == chart_no
            }
            out.append(_gamma_from_units(omega, target, sub))
        return out

    def all_residues(entries) -> list[ModuleElement]:
        g1, g2 = gammas(entries)
        rows: list[ModuleElement] = []
        rows += [r for _, r in connection_residues(kahler_module(A1), g1)]
        rows += [r for _, r in connection_residues(kahler_module(A2), g2)]
        rows += _glue_residues(A1, L1, A2, L2, t, omega_t, g1, g2)
        return rows

    equations = _affine_equations(all_residues, layout, f)
    return GlueResult(
        space=affine_linear_solve(equations, tuple(names), f), layout=layout
    )
