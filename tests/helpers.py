"""Shared builders for the worked connection examples used across tests.

Thin wrappers over the library's gallery constructors, so tests exercise the
same objects the CLI gallery runs, but on the session-scoped fixtures.

Below them, the structure that no axiom check reads, rebuilt from the
engine's builders (`relabel`, `tensor_over_base`, `compose_chain`, and
`AlgebraMorphism` for the two fibrewise sums): the tangent structure's + and
- with the swap tau of T(A) (x)_A T(A), the dual numbers' + and -, the
bundle's fibrewise sum sigma and negation iota, the affine swap and the
torsion-free test on the horizontal form, and whether a solved space holds a
given connection.
`d` and `algebra_pair` are how the tests write tangent values and simple
tensors of T(A) (x)_A S_A(M).
"""

from __future__ import annotations

import random

from kcx import curvature, gallery
from kcx.algebra import AlgebraMorphism, compose_chain, fresh_name, make_algebra, relabel, tensor_over_base
from kcx.connections import Connection, make_connection
from kcx.dualnum import _square_zero_extension
from kcx.fields import QQ
from kcx.modules import christoffel_target, kahler_module
from kcx.poly import Polynomial
from kcx.solve import solve_connection_space
from kcx.tangent import _swap, bundle_combine, bundle_context

from oracles import solution_basis


def circle_canonical(circle) -> Connection:
    return gallery.circle_canonical_connection(circle)


def plane_zero(plane) -> Connection:
    return gallery.plane_zero_connection(plane)


def plane_twisted(plane) -> Connection:
    return gallery.plane_twisted_connection(plane)


def plane_antisymmetric(plane) -> Connection:
    return gallery.plane_antisymmetric_connection(plane)


def sphere_canonical(sphere2) -> Connection:
    return gallery.sphere_canonical_connection(sphere2)


def elliptic_connection(elliptic) -> Connection:
    return gallery.elliptic_connection(elliptic)


def sphere(n: int, field=QQ):
    """S^n as the unit sphere in n + 1 variables x1..x{n+1}, built afresh."""
    xs = tuple(f"x{i}" for i in range(1, n + 2))
    return make_algebra(field, xs, [" + ".join(f"{x}^2" for x in xs) + " - 1"])


def sphere_connection(A) -> Connection:
    """d(x_i) -> -x_i * sum_j d(x_j) (x) d(x_j), the canonical sphere connection."""
    omega = kahler_module(A)
    n = len(A.gens)
    return make_connection(
        omega, {g: [f"-{x}" if k % (n + 1) == 0 else "0" for k in range(n * n)] for g, x in zip(omega.gens, A.gens)}
    )


def free_canonical_connection_on(M) -> Connection:
    t = bundle_context(M).omega_tensor_M
    return make_connection(M, {g: t.zero() for g in M.gens})


def random_poly(rng: random.Random, variables=("x", "y"), degree=3, field=QQ) -> Polynomial:
    """Up to four integer terms, coefficients in -3..3, of total degree <= `degree`."""
    p = Polynomial.zero(field, variables)
    for _ in range(4):
        exp = tuple(rng.randint(0, degree) for _ in variables)
        if sum(exp) > degree:
            continue
        p = p + Polynomial.monomial(field, variables, exp, rng.randint(-3, 3))
    return p


def random_plane_connection(plane, rng: random.Random, max_degree: int = 2) -> Connection:
    omega = kahler_module(plane)
    omega_tensor = bundle_context(omega).omega_tensor_M

    def rand_poly():
        p = Polynomial.zero(plane.field, plane.gens)
        for _ in range(3):
            exp = (rng.randint(0, max_degree), rng.randint(0, max_degree))
            if sum(exp) > max_degree:
                continue
            p = p + Polynomial.monomial(plane.field, plane.gens, exp, rng.randint(-3, 3))
        return p

    images = {g: omega_tensor.element([rand_poly() for _ in range(4)]) for g in omega.gens}
    return make_connection(omega, images)


def random_gamma(rng: random.Random, M) -> dict:
    """Random Christoffel data on M, mostly failing the Leibniz rule."""
    target = christoffel_target(M)
    A = M.base

    def poly():
        exps = [tuple(rng.randint(0, 2) for _ in A.gens) for _ in range(2)]
        return Polynomial(A.field, A.gens, {e: rng.randint(-2, 2) for e in exps})

    return {g: target.element([poly() for _ in target.gens]) for g in M.gens}


def connection_at(M, space, point, chart: int | None = None) -> Connection:
    """make_connection on the Christoffel data of one point of a solved space:
    the value of unknown (g, idx, exp) is the coefficient of x^exp * e_idx in
    the image of g.  With `chart`, the gluing's unknowns (chart, g, idx, exp)
    on that chart are read."""
    f, gens = M.base.field, M.base.gens
    target = christoffel_target(M)
    comps = {g: [Polynomial.zero(f, gens)] * target.rank for g in M.gens}
    for (*on, g, idx, exp), value in zip(space.unknowns, point):
        if on == ([] if chart is None else [chart]):
            comps[g][idx] = comps[g][idx] + Polynomial.monomial(f, gens, exp, value)
    return make_connection(M, {g: target.element(c) for g, c in comps.items()})


def random_point(space, f, rng: random.Random, spread: int = 2) -> list:
    """particular plus a random combination of `oracles.solution_basis`, with
    integer weights in [-spread, spread]."""
    point = list(space.particular)
    for vec in solution_basis(space):
        k = f.of(rng.randint(-spread, spread))
        point = [f.add(p, f.mul(k, b)) for p, b in zip(point, vec)]
    return point


def random_admissible_gamma(rng: random.Random, M) -> dict | None:
    """A random point of M's degree-1 connection space, or None if it is empty."""
    space = solve_connection_space(M, 1)
    if space.is_empty:
        return None
    return connection_at(M, space, random_point(space, M.base.field, rng)).gamma


def double_the_horizontal_torsion_route(monkeypatch) -> None:
    """Make torsion's horizontal route, which ends in bracketing, give twice its value."""
    bracket = curvature.bracketing

    def doubled(ctx, h):
        v = bracket(ctx, h)
        return bundle_combine(v, v, "plus", set(ctx.M.gens))

    monkeypatch.setattr(curvature, "bracketing", doubled)


def _record_calls(monkeypatch, method: str) -> list[AlgebraMorphism]:
    """Record the morphism of every `AlgebraMorphism.<method>` call from here
    on; arguments pass through."""
    calls = []
    original = getattr(AlgebraMorphism, method)

    def recording(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AlgebraMorphism, method, recording)
    return calls


def record_certify_calls(monkeypatch) -> list[AlgebraMorphism]:
    """Record every `AlgebraMorphism.certify` call from here on."""
    return _record_calls(monkeypatch, "certify")


def record_certificate_calls(monkeypatch) -> list[AlgebraMorphism]:
    """Record every full `AlgebraMorphism.certificate` call from here on: a
    `certify` that makes none settled its map by reading."""
    return _record_calls(monkeypatch, "certificate")


# ---------------------------------------------------------------------------
# structure no axiom check reads, and how tests write values
# ---------------------------------------------------------------------------


def d(T, e):
    """d of a source-algebra element, as an element of the tangent presentation T."""
    return T.element(T.differential(T.source.polynomial(e)))


def algebra_pair(T, w, v):
    """The simple tensor w (x) v of the tensor algebra T."""
    return T.i0(w) * T.i1(v)


def fibrewise_sum(include: AlgebraMorphism, name: str) -> AlgebraMorphism:
    """B -> B (x)_A B adding the two copies of each fibre generator, for the
    inclusion A -> B of an additive bundle: + of T(A) for A's p, and sigma of
    S_A(M) for its q."""
    B, B2 = include.cod, tensor_over_base(include, include)
    r0, r1 = B2.rename
    images = {g: Polynomial.variable(B2.field, B2.gens, r0[g]) for g in B.gens}
    for m in B.gens:
        if m not in include.dom.gens:
            images[m] += Polynomial.variable(B2.field, B2.gens, r1[m])
    return AlgebraMorphism(B, B2, images, name=name)


def bundle_negation(include: AlgebraMorphism) -> AlgebraMorphism:
    """iota: B -> B negating each fibre generator, for the inclusion A -> B of
    an additive bundle: q of a bundle context, z of a `dual_bundle`."""
    B = include.cod
    return relabel(B, B, {m: f"-{m}" for m in B.gens if m not in include.dom.gens}, "iota")


def tangent_minus(maps) -> AlgebraMorphism:
    """-: T(A) -> T(A), negating the differentials."""
    return relabel(maps.TA, maps.TA, {dx: f"-{dx}" for dx in maps.TA.dmap.values()}, "-")


def tangent_tau(plus: AlgebraMorphism) -> AlgebraMorphism:
    """The swap of T(A) (x)_A T(A), the codomain of `plus`."""
    T2 = plus.cod
    r0, r1 = T2.rename
    return relabel(T2, T2, _swap({r0[dx]: r1[dx] for dx in plus.dom.dmap.values()}), "tau")


def dual_plus(dn) -> AlgebraMorphism:
    """+: A[eps1, eps2] -> A[eps], both epsilons to eps, for `dual_numbers_structure`'s dn."""
    eps1 = fresh_name(dn.A.gens, "eps1")
    eps2 = fresh_name(dn.A.gens + (eps1,), "eps2")
    T2 = _square_zero_extension(dn.A, (eps1, eps2))
    return relabel(T2, dn.TA, {eps1: dn.eps, eps2: dn.eps}, "+")


def dual_minus(dn) -> AlgebraMorphism:
    """-: A[eps] -> A[eps], negating eps."""
    return relabel(dn.TA, dn.TA, {dn.eps: f"-{dn.eps}"}, "-")


def affine_swap(ctx) -> AlgebraMorphism:
    """The factor swap of T(A) (x)_A T(A) transported to T(A) (x)_A S_A(Omega)."""
    r0, r1 = ctx.TAS.rename
    table = {r0[ctx.TA.dmap[x]]: r1[m] for x, m in zip(ctx.A.gens, ctx.M.gens)}
    return relabel(ctx.TAS, ctx.TAS, _swap(table), "tau")


def torsionfree_horizontal_criterion(nabla: Connection) -> bool:
    """Flip-equivariance of the horizontal form, the torsion-free test."""
    ctx, H = nabla.ctx, nabla.H
    return compose_chain([ctx.affine_flip, H]) == compose_chain([H, affine_swap(ctx)])


def contains_connection(space, nabla: Connection) -> bool:
    """Whether nabla's Christoffel data is a point of `space`, the
    `solve_connection_space` of its module; False when a term lies outside
    the space's unknowns."""
    values = {
        (g, idx, exp): coef
        for g, image in nabla.gamma.items()
        for idx, comp in enumerate(image.comps)
        for exp, coef in comp.terms.items()
    }
    return values.keys() <= set(space.unknowns) and space.contains(values)
