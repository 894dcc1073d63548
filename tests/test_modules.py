import random

import pytest

from kcx import gallery
from kcx.algebra import PresentedAlgebra, make_algebra
from kcx.errors import WellDefinednessFailure
from kcx.fields import GF, QQ
from kcx.modules import (
    ModuleMorphism,
    christoffel_target,
    free_module,
    kahler_module,
    make_module,
    module_standard_monomials,
    tensor_modules,
    universal_derivation,
    wedge_square,
)
from kcx.poly import Polynomial

from oracles import brute_standard_monomials, module_pair


def random_element(rng, A):
    p = Polynomial.zero(A.field, A.gens)
    for _ in range(3):
        exp = tuple(rng.randint(0, 2) for _ in A.gens)
        p = p + Polynomial.monomial(A.field, A.gens, exp, rng.randint(-3, 3))
    return A.element(p)


def test_free_module_basics(plane):
    zero = free_module(plane, 0)
    assert zero.rank == 0
    assert zero.zero().is_zero()
    m2 = free_module(plane, 2)
    assert m2.gen("e1") != m2.gen("e2")
    assert m2.relations == ()


def test_make_module_fat_point_omega(fat_point):
    omega = kahler_module(fat_point)
    explicit = make_module(fat_point, ("d(x)",), [["2*x"]])
    assert explicit.gens == omega.gens
    assert explicit.relations == omega.relations


def test_unit_relation_gives_zero_module(circle):
    m = make_module(circle, ("e",), [["1"]])
    assert m.gen("e").is_zero()


def test_kahler_plane_free(plane):
    omega = kahler_module(plane)
    assert omega.gens == ("d(x1)", "d(x2)")
    assert omega.relations == ()


def test_kahler_circle_relation(circle):
    omega = kahler_module(circle)
    row = omega.element(["2*x", "2*y"])
    assert row.is_zero()
    assert not omega.gen("d(x)").is_zero()


def test_kahler_elliptic_jacobian(elliptic):
    omega = kahler_module(elliptic)
    # relation row is the Jacobian of y^2 - x^3 - 1: (-3x^2) d(x) + 2y d(y)
    assert omega.element(["-3*x^2", "2*y"]).is_zero()
    assert not omega.element(["-3*x^2", "0"]).is_zero()


def test_universal_derivation_values(plane, circle):
    assert universal_derivation(plane, plane.one()).is_zero()
    d = universal_derivation(plane, plane.element("x1^3"))
    assert d == kahler_module(plane).element(["3*x1^2", "0"])
    assert universal_derivation(circle, circle.element("x^2 + y^2")).is_zero()


def test_universal_derivation_leibniz_random(plane, circle, fat_point, elliptic, sphere2):
    rng = random.Random(31)
    for A in (plane, circle, fat_point, elliptic, sphere2):
        for _ in range(100):
            a = random_element(rng, A)
            b = random_element(rng, A)
            lhs = universal_derivation(A, a * b)
            rhs = universal_derivation(A, b).scaled(a) + universal_derivation(A, a).scaled(b)
            assert lhs == rhs


def test_tensor_relation_row_reduces(circle):
    omega = kahler_module(circle)
    t = tensor_modules(omega, omega)
    row_tensor_dx = module_pair(t, omega.element(["2*x", "2*y"]), omega.gen("d(x)"))
    assert row_tensor_dx.is_zero()


def test_tensor_free_ranks(plane):
    a = free_module(plane, 2)
    b = free_module(plane, 2)
    t = tensor_modules(a, b)
    assert t.rank == 4
    assert t.relations == ()


def test_tensor_of_kahler_with_free_is_componentwise(plane):
    omega = kahler_module(plane)
    fr = free_module(plane, 3)
    t = tensor_modules(omega, fr)
    assert t.rank == 6
    assert t.relations == ()


def test_tensor_middle_linearity(circle):
    omega = kahler_module(circle)
    t = tensor_modules(omega, omega)
    rng = random.Random(37)
    for _ in range(25):
        a = random_element(rng, circle)
        u = omega.element([random_element(rng, circle), random_element(rng, circle)])
        v = omega.element([random_element(rng, circle), random_element(rng, circle)])
        assert module_pair(t, u.scaled(a), v) == module_pair(t, u, v.scaled(a))


def test_wedge_antisymmetry(plane):
    omega = kahler_module(plane)
    t = tensor_modules(omega, omega)
    w = wedge_square(omega)
    dx, dy = omega.gen("d(x1)"), omega.gen("d(x2)")
    assert w.from_tensor(module_pair(t, dx, dy)) == w.gen("d(x1)^d(x2)")
    assert w.from_tensor(module_pair(t, dy, dx)) == -w.gen("d(x1)^d(x2)")
    rng = random.Random(41)
    for _ in range(25):
        u = omega.element([random_element(rng, plane), random_element(rng, plane)])
        assert w.from_tensor(module_pair(t, u, u)).is_zero()


def test_wedge_plane_free_rank_one(plane):
    w = wedge_square(kahler_module(plane))
    assert w.rank == 1
    assert w.relations == ()
    assert not w.gen("d(x1)^d(x2)").is_zero()


def test_wedge_circle_is_zero(circle):
    w = wedge_square(kahler_module(circle))
    # x d(x) = -y d(y) makes every wedge term vanish in characteristic 0.
    assert w.gen("d(x)^d(y)").is_zero()


def test_wedge_fat_point_tensor_nonzero(fat_point):
    omega = kahler_module(fat_point)
    t = tensor_modules(omega, omega)
    two = module_pair(t, omega.gen("d(x)"), omega.gen("d(x)")).scaled(2)
    assert not two.is_zero()
    assert t.zero().is_zero()


def test_element_is_zero_on_relation(circle):
    omega = kahler_module(circle)
    assert omega.element(["2*x", "2*y"]).is_zero()


def test_module_morphism_certification(circle):
    omega = kahler_module(circle)
    fr = free_module(circle, 2)
    # quotient map is fine
    r = ModuleMorphism(fr, omega, {"e1": omega.gen("d(x)"), "e2": omega.gen("d(y)")})
    assert r(fr.element(["2*x", "2*y"])).is_zero()
    # the naive 'identity' from omega to the free module is NOT well defined
    with pytest.raises(WellDefinednessFailure):
        ModuleMorphism(omega, fr, {"d(x)": fr.gen("e1"), "d(y)": fr.gen("e2")})


def test_standard_monomial_walk_matches_brute_force():
    # the walk grows each degree from the one below; the oracle tests every
    # monomial against every leading term, so both lists must agree in order
    rng = random.Random(8)
    gallery_algebras = [
        gallery.plane_algebra(),
        gallery.circle_algebra(),
        gallery.sphere_algebra(),
        gallery.elliptic_algebra(),
        gallery.fat_point_algebra(),
    ]
    for field in (QQ, GF(2), GF(3), GF(32003)):
        algebras = [make_algebra(field, A.gens, [r.render() for r in A.relations]) for A in gallery_algebras]
        for nvars in (1, 2, 3):
            gens = ("x", "y", "z")[:nvars]
            rels = [random_element(rng, PresentedAlgebra(field, gens, [])).poly for _ in range(2)]
            algebras.append(PresentedAlgebra(field, gens, rels[: rng.randint(1, 2)]))
        for A in algebras:
            omega = kahler_module(A)
            presented = make_module(A, ("u", "v"), [[random_element(rng, A), random_element(rng, A)]])
            modules = [omega, free_module(A, 2), presented, christoffel_target(presented)]
            for M in modules:
                for degree in range(5):
                    walk = list(module_standard_monomials(M, degree))
                    assert walk == brute_standard_monomials(M, degree), (A, M, degree)


def test_tensor_modules_memoized_per_pair(circle):
    omega, free2 = kahler_module(circle), free_module(circle, 2)
    t = tensor_modules(omega, omega)
    assert tensor_modules(omega, omega) is t
    assert tensor_modules(omega, free2) is not t
    assert tensor_modules(omega, free2).factors == (omega, free2)
