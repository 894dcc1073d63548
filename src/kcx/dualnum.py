"""Dual-numbers tangent structure on commutative algebras, and its no-go verdict.

Here the tangent of an algebra A adjoins a single square-zero generator, and
the bundle of a module M adjoins one square-zero generator per module
generator with all pairwise products zero.  `dual_numbers_structure` and
`dual_bundle` build that structure: it is the object the no-go theorem is
about.  Against it, vertical connections on M's bundle exist only when M is
the zero module, and `dual_connection_solve` decides exactly that, with one
module normal form per generator of M and no degree bound.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import NamedTuple

from .algebra import AlgebraMorphism, GenRole, PresentedAlgebra, fresh_name, make_morphism, memoized, relabel
from .linsolve import AffineSolutionSpace
from .modules import PresentedModule, linear_form
from .poly import Polynomial
from .tangent import _additive_bundle


def _square_zero_extension(A: PresentedAlgebra, new_gens: tuple[str, ...], rows=()) -> PresentedAlgebra:
    """Adjoin generators whose pairwise products, squares included, are zero,
    and each of `rows` (a module relation row over A) as a linear form in them."""
    gens = A.gens + new_gens
    var = lambda g: Polynomial.variable(A.field, gens, g)
    relations = [r.change_vars(gens) for r in A.relations]
    relations += [var(a) * var(b) for a, b in combinations_with_replacement(new_gens, 2)]
    relations += [linear_form(A.field, gens, row, new_gens) for row in rows]
    roles = {**A.roles, **{g: GenRole("base", g) for g in new_gens}}
    return PresentedAlgebra(A.field, gens, relations, roles=roles)


def _lift(B: PresentedAlgebra, TB: PresentedAlgebra, fibre, epsp: str, name: str) -> AlgebraMorphism:
    """B -> TB: fixes the other generators and multiplies each fibre one by epsp."""
    var = lambda g: Polynomial.variable(TB.field, TB.gens, g)
    images = {g: var(g) * var(epsp) if g in fibre else var(g) for g in B.gens}
    return make_morphism(B, TB, images, name=name)


class DualNumbers(NamedTuple):
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


class DualBundle(NamedTuple):
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
    # module relation rows hold on the epsilon part
    E = _square_zero_extension(A, eps_gens, M.relations)
    epsp = fresh_name(E.gens, "epsp")
    TE = _square_zero_extension(E, (epsp,))
    z, q, iota = _additive_bundle(A, E, ("z", "q", "iota"))
    lam = _lift(E, TE, eps_gens, epsp, "lambda")
    return DualBundle(A, M, E, TE, eps_gens, epsp, q, z, iota, lam)


def dual_connection_solve(M: PresentedModule) -> AffineSolutionSpace:
    """Whether M's square-zero bundle carries a vertical connection, exactly.

    The retract-of-the-lift and lift-compatibility diagrams force the
    candidate K(a) = a, K(m eps) = n_m eps, K(eps') = n' eps, with the n's
    module elements.  The multiplicative identity K(m eps) K(eps') = m eps
    then reads 0 = m eps, since the square-zero relations kill its left side,
    and no n enters it.  So a connection exists iff every generator of M is
    zero, whatever degree the n's may have.  Then M is zero, so are the n's,
    and the space is one point with no unknowns; otherwise it is empty.
    """
    rows = {} if all(M.gen(g).is_zero() for g in M.gens) else None
    return AffineSolutionSpace((), rows, M.base.field)
