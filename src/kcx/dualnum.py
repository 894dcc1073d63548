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
from itertools import combinations_with_replacement

from .algebra import AlgebraMorphism, GenRole, PresentedAlgebra, fresh_name, make_morphism, memoized, relabel
from .linsolve import AffineSolutionSpace, affine_linear_solve
from .modules import PresentedModule, linear_form
from .poly import Polynomial
from .solve import _affine_equations, _relation_columns, _terms, _unknowns
from .tangent import _additive_bundle


def _square_zero_extension(A: PresentedAlgebra, new_gens: tuple[str, ...]) -> PresentedAlgebra:
    """Adjoin generators whose pairwise products, squares included, are zero."""
    gens = A.gens + new_gens
    var = lambda g: Polynomial.variable(A.field, gens, g)
    relations = [r.change_vars(gens) for r in A.relations]
    relations += [var(a) * var(b) for a, b in combinations_with_replacement(new_gens, 2)]
    roles = {**A.roles, **{g: GenRole("base", g) for g in new_gens}}
    return PresentedAlgebra(A.field, gens, relations, roles=roles)


def _lift(B: PresentedAlgebra, TB: PresentedAlgebra, fibre, epsp: str, name: str) -> AlgebraMorphism:
    """B -> TB: fixes the other generators and multiplies each fibre one by epsp."""
    var = lambda g: Polynomial.variable(TB.field, TB.gens, g)
    images = {g: var(g) * var(epsp) if g in fibre else var(g) for g in B.gens}
    return make_morphism(B, TB, images, name=name)


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


@memoized
def dual_numbers_structure(A: PresentedAlgebra) -> DualNumbers:
    eps = fresh_name(A.gens, "eps")
    TA = _square_zero_extension(A, (eps,))
    epsp = fresh_name(TA.gens, "epsp")
    # epsilon and epsilon-prime square to zero but their product survives
    TTA = _square_zero_extension(TA, (epsp,))
    eps1 = fresh_name(A.gens, "eps1")
    eps2 = fresh_name(A.gens + (eps1,), "eps2")
    T2 = _square_zero_extension(A, (eps1, eps2))

    zero, p, minus = _additive_bundle(A, TA, ("0", "p", "-"))
    plus = relabel(T2, TA, {eps1: eps, eps2: eps}, "+")
    lift = _lift(TA, TTA, (eps,), epsp, "l")
    flip = relabel(TTA, TTA, {eps: epsp, epsp: eps}, "c")
    return DualNumbers(A, TA, TTA, T2, eps, epsp, p, zero, plus, minus, lift, flip)


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


@memoized
def dual_bundle(M: PresentedModule) -> DualBundle:
    A = M.base
    eps_gens = tuple(fresh_name(A.gens, f"{m}_eps") for m in M.gens)
    E = _square_zero_extension(A, eps_gens)
    # module relation rows hold on the epsilon part
    extra = [linear_form(A.field, E.gens, row, eps_gens) for row in M.relations]
    E = PresentedAlgebra(A.field, E.gens, list(E.relations) + extra)
    epsp = fresh_name(E.gens, "epsp")
    TE = _square_zero_extension(E, (epsp,))
    z, q, iota = _additive_bundle(A, E, ("z", "q", "iota"))
    lam = _lift(E, TE, eps_gens, epsp, "lambda")
    return DualBundle(A, M, E, TE, eps_gens, epsp, q, z, iota, lam)


def dual_connection_solve(M: PresentedModule, degree_bound: int) -> AffineSolutionSpace:
    """Solve for a vertical connection on M's square-zero bundle, exactly.

    The candidate is K(a) = a, K(m eps) = n_m eps, K(eps') = n' eps with the
    n's unknown module elements of bounded coefficient degree (these forms are
    forced by the retract-of-the-lift and lift-compatibility diagrams).  The
    remaining constraints are that K respects the module relation rows and the
    multiplicative identity K(m eps) K(eps') = m eps, whose left side is
    killed by the square-zero relations; so each module generator must vanish
    in M.  The system is nonempty iff M presents the zero module.
    """
    # n per module generator plus n', over M's standard monomials
    layout = _unknowns("c", M.gens + ("'",), range(M.rank), M, degree_bound)
    # K(lambda(m eps)) = m eps collapses to 0 = m eps: every generator of M
    # must be zero in the quotient (constant rows).  K respects each module
    # relation row: sum_k r_k n_k = 0 in M (rows with no constant).
    constants = [_terms(M.gen(g)) for g in M.gens] + [{} for _ in M.relations]
    columns = _relation_columns(M, M, layout, len(M.gens))
    equations = _affine_equations(constants, columns, M.base.field)
    return affine_linear_solve(equations, tuple(layout.values()), M.base.field)
