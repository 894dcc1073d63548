import random

import pytest

from kcx.connections import free_canonical_connection
from kcx.curvature import (
    check_curvature_correspondence,
    check_torsion_correspondence,
    curvature_of_element,
    module_curvature,
    module_torsion,
    tangent_curvature,
    tangent_torsion,
)
from kcx.errors import KcxError, ModuleNotKahler
from kcx.modules import kahler_module, wedge_square
from kcx.poly import Polynomial

import helpers
from oracles import module_pair, tangent_curvature_is_flat


def test_plane_zero_gamma_is_flat(plane):
    nabla = helpers.plane_zero(plane)
    result = module_curvature(nabla)
    assert result.flat
    C = tangent_curvature(nabla)
    assert tangent_curvature_is_flat(nabla, C)


def test_plane_twisted_not_flat(plane):
    nabla = helpers.plane_twisted(plane)
    result = module_curvature(nabla)
    assert not result.flat
    # direct value: curvature of d(x1) is (d(x1)^d(x2)) (x) d(x1)
    target = result.images["d(x1)"].module
    w2 = wedge_square(kahler_module(plane))
    expected = module_pair(target, w2.gen("d(x1)^d(x2)"), nabla.module.gen("d(x1)"))
    assert result.images["d(x1)"] == expected
    assert result.images["d(x2)"].is_zero()


def test_circle_flat_because_wedge_vanishes(circle):
    nabla = helpers.circle_canonical(circle)
    w2 = wedge_square(kahler_module(circle))
    assert all(w2.gen(g).is_zero() for g in w2.gens)
    assert module_curvature(nabla).flat


def test_curvature_a_linearity(plane, sphere2, elliptic):
    rng = random.Random(71)
    cases = [
        helpers.plane_twisted(plane),
        helpers.sphere_canonical(sphere2),
        helpers.elliptic_connection(elliptic),
    ]
    for nabla in cases:
        M = nabla.module
        A = nabla.base
        for _ in range(10):
            a = A.element(
                Polynomial.monomial(
                    A.field, A.gens, tuple(rng.randint(0, 2) for _ in A.gens), rng.randint(-3, 3)
                )
            )
            e = M.gen(M.gens[rng.randrange(M.rank)]).scaled(
                A.element(rng.randint(-2, 2))
            ) + M.gen(M.gens[0])
            lhs = curvature_of_element(nabla, e.scaled(a))
            rhs = curvature_of_element(nabla, e).scaled(a)
            assert lhs == rhs


def test_phi_psi_is_doubling_on_wedge_basis(plane, sphere2):
    for A, make in ((plane, helpers.plane_twisted), (sphere2, helpers.sphere_canonical)):
        nabla = make(A)
        target = curvature_target_of(nabla)
        for g in target.gens:
            basis_elt = target.gen(g)
            if basis_elt.is_zero():
                continue
            raw = nabla.ctx.curvature_shapes.write(basis_elt)
            back, stray = nabla.ctx.curvature_shapes.read(raw)
            assert back == basis_elt.scaled(2)
            assert stray.is_zero()


def curvature_target_of(nabla):
    from kcx.curvature import curvature_target

    return curvature_target(nabla)


def test_phi_kills_other_shapes(plane):
    nabla = helpers.plane_zero(plane)
    ctx = nabla.ctx
    T2S = ctx.S_maps.TTA
    var = lambda n: Polynomial.variable(T2S.field, T2S.gens, n)
    # mixed second-level sort: d'd of a base generator times a module generator
    poly = var("dpd_x1") * var("d(x1)")
    assert ctx.curvature_shapes.read(poly) == (ctx.curvature_shapes.module.zero(), poly)
    assert ctx.curvature_shapes.read(Polynomial.zero(T2S.field, T2S.gens))[0].is_zero()


def test_psi_of_zero_is_zero(plane):
    nabla = helpers.plane_zero(plane)
    target = curvature_target_of(nabla)
    assert nabla.ctx.curvature_shapes.write(target.zero()).is_zero()


def test_tangent_curvature_values(plane):
    # C fixes the base and kills module generators exactly when flat.
    nabla = helpers.plane_zero(plane)
    C = tangent_curvature(nabla)
    ctx = nabla.ctx
    for x in plane.gens:
        assert C(ctx.S.gen(x)) == ctx.S_maps.TTA.element(
            Polynomial.variable(ctx.S_maps.TTA.field, ctx.S_maps.TTA.gens, x)
        )
    for m in nabla.module.gens:
        assert C.image_of(m).is_zero()


def test_curvature_correspondence_sphere_and_elliptic(sphere2, elliptic):
    sphere_result = check_curvature_correspondence(helpers.sphere_canonical(sphere2))
    assert sphere_result.residuals_zero, {
        g: [r.render() for r in rs if not r.is_zero()]
        for g, rs in sphere_result.residuals.items()
    }
    assert not sphere_result.flat  # the two-sphere connection is genuinely curved
    # the elliptic curve is a smooth curve: its wedge square vanishes, so the
    # correspondence holds with both sides zero
    elliptic_result = check_curvature_correspondence(helpers.elliptic_connection(elliptic))
    assert elliptic_result.residuals_zero
    assert elliptic_result.flat


def test_curvature_correspondence_plane_cases(plane, circle):
    for nabla in (
        helpers.plane_zero(plane),
        helpers.plane_twisted(plane),
        helpers.circle_canonical(circle),
    ):
        result = check_curvature_correspondence(nabla)
        assert result.residuals_zero


def test_module_torsion_values(plane):
    sym = helpers.plane_twisted(plane)  # Gamma has only the 11-slot: symmetric
    assert module_torsion(sym).torsion_free
    anti = helpers.plane_antisymmetric(plane)
    result = module_torsion(anti)
    assert not result.torsion_free
    w2 = wedge_square(kahler_module(plane))
    assert result.images["d(x1)"] == w2.gen("d(x1)^d(x2)")
    zero = helpers.plane_zero(plane)
    assert module_torsion(zero).torsion_free


@pytest.mark.parametrize(
    "refuse",
    [
        module_torsion,
        tangent_torsion,
        check_torsion_correspondence,
        lambda nabla: nabla.ctx.affine_flip,
        lambda nabla: nabla.ctx.torsion_shapes,
    ],
    ids=[
        "module_torsion",
        "tangent_torsion",
        "check_torsion_correspondence",
        "ctx.affine_flip",
        "ctx.torsion_shapes",
    ],
)
def test_every_kahler_only_map_refuses_a_free_module(plane, refuse):
    with pytest.raises(ModuleNotKahler):
        refuse(free_canonical_connection(plane, 2))


def test_disagreeing_torsion_routes_fail_the_check(plane, monkeypatch):
    helpers.double_the_horizontal_torsion_route(monkeypatch)
    nabla = helpers.plane_antisymmetric(plane)
    result = check_torsion_correspondence(nabla)
    assert (result.routes_agree.status, result.routes_agree.witness) == ("fail", "d(x1)")
    assert all(r.is_zero() for rs in result.residuals.values() for r in rs)
    assert not result.residuals_zero
    with pytest.raises(KcxError, match="torsion routes disagree"):
        tangent_torsion(nabla)


def test_tangent_torsion_routes_agree(plane, circle):
    for nabla in (
        helpers.plane_antisymmetric(plane),
        helpers.plane_zero(plane),
        helpers.circle_canonical(circle),
    ):
        V = tangent_torsion(nabla)  # raises if the two routes disagree
        for x in nabla.base.gens:
            assert V(nabla.ctx.S.gen(x)) == nabla.ctx.TS.element(
                Polynomial.variable(nabla.ctx.TS.field, nabla.ctx.TS.gens, x)
            )


def test_torsion_correspondence_plane(plane):
    nabla = helpers.plane_antisymmetric(plane)
    result = check_torsion_correspondence(nabla)
    assert result.residuals_zero, {
        g: [r.render() for r in rs if not r.is_zero()] for g, rs in result.residuals.items()
    }
    assert not result.torsion_free
    assert result.routes_agree.status == "pass"


def test_torsion_correspondence_circle(circle):
    result = check_torsion_correspondence(helpers.circle_canonical(circle))
    assert result.residuals_zero
    assert result.torsion_free  # Omega^2 of the circle vanishes


def test_phi_hat_psi_hat_doubling(plane):
    nabla = helpers.plane_antisymmetric(plane)
    w2 = wedge_square(kahler_module(plane))
    for g in w2.gens:
        raw = nabla.ctx.torsion_shapes.write(w2.gen(g))
        back, stray = nabla.ctx.torsion_shapes.read(raw)
        assert back == w2.gen(g).scaled(2)
        assert stray.is_zero()


def test_torsionfree_horizontal_criterion(plane, circle):
    criterion = helpers.torsionfree_horizontal_criterion
    assert criterion(helpers.plane_zero(plane))
    assert criterion(helpers.plane_twisted(plane))
    assert not criterion(helpers.plane_antisymmetric(plane))
    assert criterion(helpers.circle_canonical(circle))
