"""Acceptance suite: one test per criterion, each printing its verdict.

Every tolerance here is exact: all comparisons are normal-form equalities of
polynomials over the rationals or a prime field.
"""

import random

import pytest

from kcx.algebra import make_algebra, make_morphism
from kcx.connections import (
    apply_connection,
    connection_equal,
    free_canonical_connection,
    from_horizontal,
    pullback_connection,
    retract_connection,
    to_horizontal,
    to_vertical,
    verify_connection_axioms,
    zero_gamma_connection,
)
from kcx.curvature import (
    check_curvature_correspondence,
    check_torsion_correspondence,
    module_curvature,
    tangent_torsion,
)
from kcx.dualnum import dual_connection_solve
from kcx.errors import WellDefinednessFailure
from kcx.fields import GF, QQ
from kcx.groebner import IdealBasis, ModuleBasis
from kcx.modules import (
    ModuleMorphism,
    free_module,
    kahler_module,
    tensor_modules,
    universal_derivation,
    wedge_square,
)
from kcx.poly import Polynomial
from kcx.solve import glued_connection_check, solve_connection_space
import helpers
from oracles import ideal_span_bound, module_span_bound, module_span_contains, span_contains


def verdict(n: int, text: str):
    print(f"ACCEPTANCE {n:2d}: PASS - {text}")


@pytest.fixture(scope="module")
def gallery_connections(plane, circle, sphere2, elliptic, affine3):
    """Every certified connection exercised by the built-in gallery."""
    conns = {
        "plane-canonical": helpers.plane_zero(plane),
        "plane-twisted": helpers.plane_twisted(plane),
        "affine-n-space": zero_gamma_connection(kahler_module(affine3)),
        "circle-canonical": helpers.circle_canonical(circle),
        "sphere2": helpers.sphere_canonical(sphere2),
        "elliptic": helpers.elliptic_connection(elliptic),
        "free-A3": free_canonical_connection(circle, 3),
        "pullback-free": free_canonical_connection(plane, 2),
    }
    omega = kahler_module(circle)
    fr = free_module(circle, 2)
    s = ModuleMorphism(
        omega,
        fr,
        {"d(x)": fr.element(["y^2", "-x*y"]), "d(y)": fr.element(["-x*y", "x^2"])},
    )
    r = ModuleMorphism(fr, omega, {"e1": omega.gen("d(x)"), "e2": omega.gen("d(y)")})
    conns["retract-circle"] = retract_connection(helpers.free_canonical_connection_on(fr), s, r)
    return conns


def test_criterion_01_circle_accept_and_reject(circle):
    nabla = helpers.circle_canonical(circle)
    t = nabla.ctx.omega_tensor_M
    assert nabla.gamma["d(x)"] == t.element(["-x", "0", "0", "-x"])
    with pytest.raises(WellDefinednessFailure) as err:
        zero_gamma_connection(kahler_module(circle))
    assert err.value.residue == "2*d(x)@d(x) + 2*d(y)@d(y)"
    verdict(1, "circle connection accepted; zero data rejected with the exact residue")


def test_criterion_02_fat_point_empty(fat_point):
    assert solve_connection_space(kahler_module(fat_point), 3).is_empty
    verdict(2, "fat point: degree-3 connection space is empty in characteristic 0")


def test_criterion_03_plane_leibniz(plane):
    nabla = helpers.plane_zero(plane)
    t = nabla.ctx.omega_tensor_M
    out = apply_connection(nabla, nabla.module.element(["x1^3", "0"]))
    assert out == t.element(["3*x1^2", "0", "0", "0"])
    verdict(3, "plane Leibniz value 3*x1^2 d(x1)(x)d(x1) reproduced exactly")


def test_criterion_04_round_trips(gallery_connections, plane):
    for name, nabla in gallery_connections.items():
        H = to_horizontal(nabla)
        back = from_horizontal(H, nabla.module)
        assert connection_equal(back, nabla), name
        assert to_horizontal(back) == H, name
    rng = random.Random(2024)
    for _ in range(20):
        nabla = helpers.random_plane_connection(plane, rng, max_degree=2)
        H = to_horizontal(nabla)
        assert connection_equal(from_horizontal(H, nabla.module), nabla)
        assert to_horizontal(from_horizontal(H, nabla.module)) == H
    verdict(4, "both round trips exact on all gallery and 20 random plane connections")


def test_criterion_05_axiom_suite(gallery_connections):
    for name, nabla in gallery_connections.items():
        report = verify_connection_axioms(
            to_vertical(nabla), to_horizontal(nabla), nabla.module
        )
        assert report.all_pass, (name, [e for e in report.entries if e.status != "pass"])
        assert [e.axiom_id for e in report.entries] == [
            "H.1", "H.2", "H.3", "H.4", "K.1", "K.2", "K.3", "K.4", "C.1", "C.2",
        ]
    verdict(5, "full axiom suite passes for every gallery connection")


def test_criterion_06_curvature_flags(plane, circle):
    assert module_curvature(helpers.plane_zero(plane)).flat
    assert not module_curvature(helpers.plane_twisted(plane)).flat
    w2 = wedge_square(kahler_module(circle))
    assert all(w2.gen(g).is_zero() for g in w2.gens)
    assert module_curvature(helpers.circle_canonical(circle)).flat
    verdict(6, "plane canonical flat, twisted curved, circle flat with zero wedge square")


def test_criterion_07_factor_of_two(sphere2, elliptic):
    for nabla in (helpers.sphere_canonical(sphere2), helpers.elliptic_connection(elliptic)):
        result = check_curvature_correspondence(nabla)
        ctx = nabla.ctx
        for m in nabla.module.gens:
            c_img = result.tangent_images[m]
            assert c_img == ctx.S_maps.TTA.element(ctx.curvature_shapes.write(result.images[m]))
            phi = ctx.curvature_shapes.read(c_img)[0]
            assert phi == result.images[m].scaled(2)
            assert result.images[m] == phi.scaled(nabla.base.field.of("1/2"))
    verdict(7, "bundle curvature equals the embedded module curvature, factor two exact")


def test_criterion_08_torsion(plane):
    nabla = helpers.plane_antisymmetric(plane)  # Gamma^1_12 = 1 differs from Gamma^1_21 = 0
    V = tangent_torsion(nabla)  # raises unless the vertical and horizontal routes agree
    result = check_torsion_correspondence(nabla)
    assert not result.torsion_free
    for m in nabla.module.gens:
        assert result.tangent_images[m] == V.image_of(m)
    assert result.residuals_zero
    verdict(8, "torsion routes agree and twice the module torsion is the projection")


def test_criterion_09_projective_line():
    def charts(field):
        return make_algebra(field, ("x",)), make_algebra(field, ("y",))

    A1, A2 = charts(QQ)
    res0 = glued_connection_check(
        A1, "x", A2, "y", {"x": "y_inv", "x_inv": "y"}, {"y": "x_inv", "y_inv": "x"}, degree=6
    )
    assert res0.space.is_empty
    B1, B2 = charts(GF(2))
    res2 = glued_connection_check(
        B1, "x", B2, "y", {"x": "y_inv", "x_inv": "y"}, {"y": "x_inv", "y_inv": "x"}, degree=6
    )
    assert res2.space.is_unique
    assert all(v == 0 for v in res2.space.particular)
    verdict(9, "projective line: empty in characteristic 0, exactly zero in characteristic 2")


def test_criterion_10_retract_pipeline(circle, gallery_connections):
    assert connection_equal(
        gallery_connections["retract-circle"], helpers.circle_canonical(circle)
    )
    verdict(10, "the retract of the free-cover connection is the canonical circle one")


def test_criterion_11_pullback(plane):
    rationals = make_algebra(QQ, ())
    nabla = free_canonical_connection(rationals, 2)
    pulled = pullback_connection(nabla, make_morphism(rationals, plane, {}))
    assert connection_equal(pulled, free_canonical_connection(plane, 2))
    verdict(11, "pullback of the rank-2 base connection equals the free canonical one")


def test_criterion_12_dual_numbers_no_go():
    line = make_algebra(QQ, ("x",))
    rationals = make_algebra(QQ, ())
    assert dual_connection_solve(free_module(line, 1)).is_empty
    assert dual_connection_solve(free_module(rationals, 1)).is_empty
    assert not dual_connection_solve(free_module(line, 0)).is_empty
    verdict(12, "square-zero bundles: empty for rank one, solvable for the zero module")


def _random_poly(rng, field, variables, degree=3):
    p = Polynomial.zero(field, variables)
    for _ in range(4):
        exp = tuple(rng.randint(0, degree) for _ in variables)
        if sum(exp) <= degree:
            p = p + Polynomial.monomial(field, variables, exp, rng.randint(-3, 3))
    return p


def test_criterion_13_engine_properties(plane, circle, fat_point, elliptic, sphere2):
    rng = random.Random(4096)
    instances = 0
    while instances < 200:
        nvars = rng.randint(1, 3)
        variables = tuple("xyz"[:nvars])
        field = GF(5) if instances % 4 == 0 else QQ
        if instances % 2 == 0:
            gens = [
                g for g in (_random_poly(rng, field, variables) for _ in range(rng.randint(1, 3)))
                if not g.is_zero()
            ]
            if not gens:
                continue
            basis = IdealBasis(field, variables, gens)
            probe = _random_poly(rng, field, variables)
            member = gens[0] * _random_poly(rng, field, variables, degree=1)
            for p in (probe, member):
                bound = ideal_span_bound(p, gens)
                assert basis.normal_form(p).is_zero() == span_contains(p, gens, bound)
        else:
            rank = rng.randint(1, 2)
            vecs = [
                v
                for v in (
                    tuple(_random_poly(rng, field, variables, degree=2) for _ in range(rank))
                    for _ in range(rng.randint(1, 3))
                )
                if any(not c.is_zero() for c in v)
            ]
            if not vecs:
                continue
            mb = ModuleBasis(field, variables, rank, vecs)
            probe = tuple(_random_poly(rng, field, variables, degree=2) for _ in range(rank))
            bound = module_span_bound(probe, vecs, field)
            assert mb.contains(probe) == module_span_contains(probe, vecs, bound, field)
        instances += 1

    for A in (plane, circle, fat_point, elliptic, sphere2):
        for _ in range(100):
            a = A.element(_random_poly(rng, A.field, A.gens, degree=2))
            b = A.element(_random_poly(rng, A.field, A.gens, degree=2))
            lhs = universal_derivation(A, a * b)
            assert lhs == universal_derivation(A, b).scaled(a) + universal_derivation(A, a).scaled(b)

    nabla = helpers.sphere_canonical(sphere2)
    target = tensor_modules(wedge_square(kahler_module(sphere2)), nabla.module)
    checked = 0
    for g in target.gens:
        w = target.gen(g)
        if w.is_zero():
            continue
        shapes = nabla.ctx.curvature_shapes
        assert shapes.read(shapes.write(w))[0] == w.scaled(2)
        checked += 1
    assert checked > 0
    verdict(13, "oracle agreement on 200 systems, Leibniz on 500 pairs, doubling identity")
