"""Dual-numbers tangent structure on commutative algebras, and its no-go solver.

Here the tangent of an algebra A adjoins a single square-zero generator, and
the bundle of a module M adjoins one square-zero generator per module
generator with all pairwise products zero.  Against this structure, vertical
connections on M's bundle exist only in the trivial case: the solver
parametrizes a candidate in the forms forced by the retract-of-the-lift and
lift-compatibility diagrams and then imposes the remaining multiplicative
constraint, which is linear and (for nonzero M) inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraMorphism, GenRole, PresentedAlgebra, make_morphism
from .linsolve import AffineSolutionSpace, affine_linear_solve
from .modules import PresentedModule, module_standard_monomials
from .poly import Polynomial
from .solve import _affine_equations, _relation_columns, _unknowns


def _fresh(base: tuple[str, ...], name: str) -> str:
    while name in base:
        name += "_"
    return name


def _square_zero_extension(
    A: PresentedAlgebra, new_gens: list[str], nilpotent: list[str], provenance: str
) -> PresentedAlgebra:
    """Adjoin generators with all pairwise products of `nilpotent` ones zero."""
    gens = A.gens + tuple(new_gens)
    relations = [r.change_vars(gens) for r in A.relations]
    for i, a in enumerate(nilpotent):
        for b in nilpotent[i:]:
            relations.append(
                Polynomial.variable(A.field, gens, a) * Polynomial.variable(A.field, gens, b)
            )
    roles = {g: A.roles.get(g, GenRole("base", g)) for g in A.gens}
    roles.update({g: GenRole("base", g) for g in new_gens})
    return PresentedAlgebra(A.field, gens, relations, provenance=provenance, roles=roles)


@dataclass
class DualNumbers:
    """The square-zero tangent of one algebra, with its structure maps."""

    A: PresentedAlgebra
    TA: PresentedAlgebra  # A[eps]
    TTA: PresentedAlgebra  # A[eps][epsp]
    T2: PresentedAlgebra  # A[eps1, eps2], all products of the epsilons zero
    eps: str
    epsp: str
    p: AlgebraMorphism  # TA -> A
    zero: AlgebraMorphism  # A -> TA
    plus: AlgebraMorphism  # T2 -> TA
    minus: AlgebraMorphism  # TA -> TA
    lift: AlgebraMorphism  # TA -> TTA
    flip: AlgebraMorphism  # TTA -> TTA


def dual_numbers_structure(A: PresentedAlgebra) -> DualNumbers:
    if "dual_numbers" in A._memo:
        return A._memo["dual_numbers"]
    eps = _fresh(A.gens, "eps")
    TA = _square_zero_extension(A, [eps], [eps], "dualnum")
    epsp = _fresh(TA.gens, "epsp")
    # epsilon and epsilon-prime square to zero but their product survives
    gens2 = TA.gens + (epsp,)
    relations2 = [r.change_vars(gens2) for r in TA.relations]
    relations2.append(Polynomial.variable(A.field, gens2, epsp) ** 2)
    TTA = PresentedAlgebra(A.field, gens2, relations2, provenance="dualnum2")
    eps1 = _fresh(A.gens, "eps1")
    eps2 = _fresh(A.gens + (eps1,), "eps2")
    T2 = _square_zero_extension(A, [eps1, eps2], [eps1, eps2], "dualnum-width2")

    p = make_morphism(TA, A, {**{g: A.gen(g) for g in A.gens}, eps: A.zero()}, name="p")
    zero = make_morphism(A, TA, {g: TA.gen(g) for g in A.gens}, name="0")
    plus = make_morphism(
        T2,
        TA,
        {**{g: TA.gen(g) for g in A.gens}, eps1: TA.gen(eps), eps2: TA.gen(eps)},
        name="+",
    )
    minus = make_morphism(
        TA, TA, {**{g: TA.gen(g) for g in A.gens}, eps: -TA.gen(eps)}, name="-"
    )
    lift = make_morphism(
        TA,
        TTA,
        {**{g: TTA.gen(g) for g in A.gens}, eps: TTA.gen(eps) * TTA.gen(epsp)},
        name="l",
    )
    flip = make_morphism(
        TTA,
        TTA,
        {**{g: TTA.gen(g) for g in A.gens}, eps: TTA.gen(epsp), epsp: TTA.gen(eps)},
        name="c",
    )
    out = DualNumbers(A, TA, TTA, T2, eps, epsp, p, zero, plus, minus, lift, flip)
    A._memo["dual_numbers"] = out
    return out


@dataclass
class DualBundle:
    """M[eps] and its square-zero tangent, with the bundle structure maps."""

    A: PresentedAlgebra
    M: PresentedModule
    E: PresentedAlgebra  # M[eps]
    TE: PresentedAlgebra  # M[eps][epsp]
    eps_gens: tuple[str, ...]
    epsp: str
    q: AlgebraMorphism  # E -> A
    z: AlgebraMorphism  # A -> E
    iota: AlgebraMorphism  # E -> E
    lam: AlgebraMorphism  # E -> TE


def dual_bundle(A: PresentedAlgebra, M: PresentedModule) -> DualBundle:
    if M.base is not A:
        raise ValueError("module is not over the given algebra")
    if "dual_bundle" in M._memo:
        return M._memo["dual_bundle"]
    eps_gens = tuple(_fresh(A.gens, f"{m}_eps") for m in M.gens)
    E = _square_zero_extension(A, list(eps_gens), list(eps_gens), "dual-bundle")
    # module relation rows hold on the epsilon part
    extra = []
    for row in M.relations:
        poly = Polynomial.zero(A.field, E.gens)
        for coef, m_eps in zip(row, eps_gens):
            poly = poly + coef.change_vars(E.gens) * Polynomial.variable(A.field, E.gens, m_eps)
        extra.append(poly)
    E = PresentedAlgebra(A.field, E.gens, list(E.relations) + extra, provenance="dual-bundle")
    epsp = _fresh(E.gens, "epsp")
    gens2 = E.gens + (epsp,)
    relations2 = [r.change_vars(gens2) for r in E.relations]
    relations2.append(Polynomial.variable(A.field, gens2, epsp) ** 2)
    TE = PresentedAlgebra(A.field, gens2, relations2, provenance="dual-bundle2")
    q = make_morphism(
        E, A, {**{g: A.gen(g) for g in A.gens}, **{m: A.zero() for m in eps_gens}}, name="q"
    )
    z = make_morphism(A, E, {g: E.gen(g) for g in A.gens}, name="z")
    iota = make_morphism(
        E, E, {**{g: E.gen(g) for g in A.gens}, **{m: -E.gen(m) for m in eps_gens}}, name="iota"
    )
    lam = make_morphism(
        E,
        TE,
        {
            **{g: TE.gen(g) for g in A.gens},
            **{m: TE.gen(m) * TE.gen(epsp) for m in eps_gens},
        },
        name="lambda",
    )
    out = DualBundle(A, M, E, TE, eps_gens, epsp, q, z, iota, lam)
    M._memo["dual_bundle"] = out
    return out


def dual_connection_solve(
    A: PresentedAlgebra, M: PresentedModule, degree_bound: int
) -> AffineSolutionSpace:
    """Solve for a vertical connection on M's square-zero bundle, exactly.

    The candidate is K(a) = a, K(m eps) = n_m eps, K(eps') = n' eps with the
    n's unknown module elements of bounded coefficient degree (these forms are
    forced by the retract-of-the-lift and lift-compatibility diagrams).  The
    remaining constraints are that K respects the module relation rows and the
    multiplicative identity K(m eps) K(eps') = m eps, whose left side is
    killed by the square-zero relations; so each module generator must vanish
    in M.  The system is nonempty iff M presents the zero module.
    """
    if M.base is not A:
        raise ValueError("module is not over the given algebra")
    dual_bundle(A, M)  # materialize and certify the bundle presentations
    basis = module_standard_monomials(M, degree_bound)
    # n per module generator plus n', over M's standard monomials
    layout = _unknowns("c", M.gens + ("'",), range(M.rank), basis)
    # K(lambda(m eps)) = m eps collapses to 0 = m eps: every generator of M
    # must be zero in the quotient (constant rows).  K respects each module
    # relation row: sum_k r_k n_k = 0 in M (rows with no constant).
    constants = [M.gen(g) for g in M.gens] + [M.zero()] * len(M.relations)
    columns = _relation_columns(M, M, layout, len(M.gens))
    equations = _affine_equations(constants, columns, A.field)
    return affine_linear_solve(equations, tuple(layout.values()), A.field)
