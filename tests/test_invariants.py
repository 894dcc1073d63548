"""Cross-cutting property checks on the standard surfaces."""

import random

from kcx.algebra import AlgebraMorphism, identity_morphism, make_morphism
from kcx.connections import apply_connection
from kcx.modules import kahler_module
from kcx.poly import Polynomial
from kcx.solve import solve_connection_space
from kcx.tangent import bundle_combine, bundle_context

import helpers


def _random_element(rng, A):
    p = Polynomial.zero(A.field, A.gens)
    for _ in range(3):
        exp = tuple(rng.randint(0, 2) for _ in A.gens)
        p = p + Polynomial.monomial(A.field, A.gens, exp, rng.randint(-3, 3))
    return A.element(p)


def test_morphism_multiplicative_on_every_gallery_algebra(
    plane, circle, fat_point, elliptic, sphere2
):
    rng = random.Random(83)
    involutions = [
        (plane, {"x1": "-x1", "x2": "-x2"}),
        (circle, {"x": "y", "y": "x"}),
        (fat_point, {"x": "-x"}),
        (elliptic, {"x": "x", "y": "-y"}),
        (sphere2, {"x1": "-x1", "x2": "-x2", "x3": "-x3"}),
    ]
    for A, images in involutions:
        f = make_morphism(A, A, images)
        for _ in range(100):
            e1, e2 = _random_element(rng, A), _random_element(rng, A)
            assert f(e1 * e2) == f(e1) * f(e2)
            assert f(e1 + e2) == f(e1) + f(e2)
        assert f(A.one()) == A.one()


def test_bundle_combine_minus_then_plus_recovers(circle):
    omega = kahler_module(circle)
    b = bundle_context(omega)
    fibre = set(omega.gens)
    f = AlgebraMorphism(
        b.S, b.S, {**{g: b.S.polynomial(b.S.gen(g)) for g in circle.gens},
                   **{m: b.S.polynomial(b.S.gen(m) * 2) for m in omega.gens}},
        certify=False,
    )
    g = identity_morphism(b.S)
    diff = bundle_combine(f, g, "minus", fibre)
    back = bundle_combine(diff, g, "plus", fibre)
    for m in omega.gens:
        assert back.image_of(m) == f.image_of(m)


def test_no_gallery_connection_is_module_linear(plane, circle, sphere2, elliptic):
    # wherever the target is nonzero there are a, m with nabla(am) != a nabla(m)
    cases = [
        helpers.plane_zero(plane),
        helpers.plane_twisted(plane),
        helpers.circle_canonical(circle),
        helpers.sphere_canonical(sphere2),
        helpers.elliptic_connection(elliptic),
    ]
    for nabla in cases:
        M = nabla.module
        A = nabla.base
        found = False
        for x in A.gens:
            for g in M.gens:
                a = A.gen(x)
                lhs = apply_connection(nabla, M.gen(g).scaled(a))
                rhs = apply_connection(nabla, M.gen(g)).scaled(a)
                if lhs != rhs:
                    found = True
                    break
            if found:
                break
        assert found


def test_solution_spaces_contain_certified_connections(plane, circle, sphere2):
    pairs = [
        (helpers.circle_canonical(circle), 1),
        (helpers.plane_twisted(plane), 2),
        (helpers.plane_zero(plane), 1),
        (helpers.sphere_canonical(sphere2), 1),
    ]
    for nabla, degree in pairs:
        space = solve_connection_space(nabla.module, degree)
        assert helpers.contains_connection(space, nabla)
