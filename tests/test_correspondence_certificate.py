"""The raw certificate of the factor-of-two correspondences.

`curvature._correspond` settles a generator m from the raw bundle image V(m)
when V(m) - psi(w) passes `ShapeMap.proves_zero`: it is psi of terms that
combine to zero in the module, term for term.  The certificate needs no 1/2,
so it runs in characteristic two as well; every other generator goes through
the reduced route.  These tests check the fact the certificate rests on (psi
sends relation rows into the bundle's ideal), compare both routes with
`oracles.reference_correspond` on seeded connections and on images perturbed
to force each fallback, and show that sphere checks, over QQ and GF(2), build
no double-tangent basis.
"""

import random

import pytest

from kcx.algebra import AlgebraMorphism, make_algebra
from kcx.connections import make_connection
from kcx.curvature import (
    _correspond,
    check_curvature_correspondence,
    check_torsion_correspondence,
    module_curvature,
    tangent_curvature,
    tangent_torsion,
)
from kcx.fields import GF, QQ
from kcx.modules import free_module, kahler_module, make_module
from kcx.poly import Polynomial
from kcx.tangent import bundle_context

import helpers
from oracles import reference_correspond

FIELDS = [QQ, GF(3)]


def _modules(field):
    """Kahler, free and presented modules over fresh curves and surfaces."""
    circle = make_algebra(field, ("x", "y"), ["x^2 + y^2 - 1"])
    return [
        kahler_module(circle),
        kahler_module(helpers.sphere(2, field)),
        kahler_module(make_algebra(field, ("x", "y"), ["y^2 - x^3 - 1"])),
        free_module(circle, 2),
        make_module(circle, ("e1", "e2"), [["x", "y"], ["y", "0"]]),
    ]


def _rows(module):
    """The module's relation rows and the ideal's relations times each generator."""
    A = module.base
    zero = Polynomial.zero(A.field, A.gens)
    ideal_rows = [
        tuple(r if i == k else zero for i in range(module.rank)) for r in A.relations for k in range(module.rank)
    ]
    return list(module.relations) + ideal_rows


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_psi_sends_every_relation_row_into_the_bundle_ideal(field):
    presented = 0
    for M in _modules(field):
        ctx = bundle_context(M)
        rows = _rows(ctx.curvature_shapes.module)
        presented += len(ctx.curvature_shapes.module.relations)
        for row in rows:
            assert ctx.S_maps.TTA.element(ctx.curvature_shapes.write_raw(enumerate(row))).is_zero(), (M, row)
        if M.provenance == "kahler":
            for row in _rows(ctx.torsion_shapes.module):
                assert ctx.TS.element(ctx.torsion_shapes.write_raw(enumerate(row))).is_zero(), (M, row)
    assert presented  # Kahler and presented modules do carry relation rows


def _connections(field):
    plane = make_algebra(field, ("x1", "x2"))
    rng = random.Random(17)
    free = free_module(plane, 2)
    target = bundle_context(free).omega_tensor_M

    def rand_poly():
        return Polynomial.monomial(field, plane.gens, (rng.randint(0, 2), rng.randint(0, 1)), rng.randint(-3, 3))

    out = [helpers.sphere_connection(helpers.sphere(n, field)) for n in (1, 2)]
    out += [helpers.random_plane_connection(plane, rng) for _ in range(4)]
    out.append(make_connection(free, {g: target.element([rand_poly() for _ in range(4)]) for g in free.gens}))
    return out


def _renders(residuals):
    return {m: [r.render() for r in rs] for m, rs in residuals.items()}


def _check_against_reference(nabla, result, shapes):
    images, residuals = reference_correspond(nabla, result.images, result.bundle_map, shapes)
    assert _renders(result.residuals) == _renders(residuals)
    assert result.residuals_zero == all(r.is_zero() for rs in residuals.values() for r in rs)
    assert result.tangent_images == images


def _certifies(bundle_map, images, shapes) -> bool:
    return all(shapes.proves_zero(bundle_map.images[m] - shapes.write(w)) for m, w in images.items())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_certified_route_matches_the_reduced_route(field):
    for nabla in _connections(field):
        checks = [(check_curvature_correspondence, nabla.ctx.curvature_shapes)]
        if nabla.module.provenance == "kahler":
            checks.append((check_torsion_correspondence, nabla.ctx.torsion_shapes))
        for check, shapes in checks:
            result = check(nabla)
            assert result.residuals_zero
            assert _certifies(result.bundle_map, result.images, shapes)
            _check_against_reference(nabla, result, shapes)


def _perturbed(bundle_map, m, extra):
    images = dict(bundle_map.images)
    images[m] = images[m] + extra
    return AlgebraMorphism(bundle_map.dom, bundle_map.cod, images, certify=False, name="perturbed")


def _fallback_case(nabla, extra_of):
    """(result, bundle map) of the curvature check on a bundle map whose first
    generator's raw image gets `extra_of(ctx, m)` added."""
    ctx, m = nabla.ctx, nabla.module.gens[0]
    V = _perturbed(tangent_curvature(nabla), m, extra_of(ctx, m))
    result = _correspond(module_curvature(nabla), V, ctx.curvature_shapes)
    return result, V


def _var(ctx, name):
    return Polynomial.variable(ctx.S_maps.TTA.field, ctx.S_maps.TTA.gens, name)


def _pair(ctx, m, sign):
    """m d(x1) d'(x2) + sign * m d'(x1) d(x2)."""
    x1, x2 = ctx.A.gens[:2]
    d, dp = ctx.TS.dmap, ctx.S_maps.TTA.dmap
    return _var(ctx, m) * (_var(ctx, d[x1]) * _var(ctx, dp[x2]) + (_var(ctx, dp[x1]) * _var(ctx, d[x2])).scale(sign))


PERTURBATIONS = {
    # a monomial no table product has: m d'd(x1)
    "stray": lambda ctx, m: _var(ctx, m) * _var(ctx, ctx.S_maps.TTA.dmap[ctx.TS.dmap[ctx.A.gens[0]]]),
    # symmetric in the two levels: its raw phi is zero, its class is not
    "symmetric": lambda ctx, m: _pair(ctx, m, 1),
    # psi of a nonzero wedge: antisymmetric, but 2w - phi(V) is not zero
    "shifted": lambda ctx, m: _pair(ctx, m, -1),
}


@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
def test_each_fallback_gives_the_reduced_route_failure_output(kind):
    nabla = helpers.sphere_connection(helpers.sphere(2))
    result, V = _fallback_case(nabla, PERTURBATIONS[kind])
    assert not _certifies(V, result.images, nabla.ctx.curvature_shapes)
    assert not result.residuals_zero
    _check_against_reference(nabla, result, nabla.ctx.curvature_shapes)


def test_characteristic_two_gives_the_reduced_route_output():
    plane = make_algebra(GF(2), ("x1", "x2"))
    for nabla in (helpers.plane_twisted(plane), helpers.sphere_connection(helpers.sphere(2, GF(2)))):
        assert not module_curvature(nabla).flat
        _check_against_reference(nabla, check_curvature_correspondence(nabla), nabla.ctx.curvature_shapes)
        # a zero bundle image: in characteristic two phi reads zero from psi(w)
        # as from 0, so only V(m) - psi(w) tells them apart
        result, _ = _fallback_case(nabla, lambda ctx, m: -tangent_curvature(nabla).images[m])
        assert not result.residuals_zero
        _check_against_reference(nabla, result, nabla.ctx.curvature_shapes)


def test_characteristic_two_certifies_without_a_double_tangent_basis():
    plane = make_algebra(GF(2), ("x1", "x2"))
    for nabla in (helpers.plane_twisted(plane), helpers.sphere_connection(helpers.sphere(2, GF(2)))):
        result = check_curvature_correspondence(nabla)
        assert result.residuals_zero and "basis" not in nabla.ctx.S_maps.TTA.__dict__
        # no 1/2 in characteristic two: no third residual
        assert {len(rs) for rs in result.residuals.values()} == {2}


def test_images_off_by_a_relation_row_certify_without_a_double_tangent_basis():
    nabla = helpers.sphere_connection(helpers.sphere(2))
    ctx = nabla.ctx
    shapes = ctx.curvature_shapes
    row = next(r for r in shapes.module.relations if any(r))
    result, V = _fallback_case(nabla, lambda ctx, m: shapes.write_raw(enumerate(row)))
    assert result.residuals_zero and "basis" not in ctx.S_maps.TTA.__dict__
    assert _certifies(V, result.images, shapes)
    _check_against_reference(nabla, result, shapes)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_checks_build_no_double_tangent_basis(n):
    nabla = helpers.sphere_connection(helpers.sphere(n))
    curvature = check_curvature_correspondence(nabla)
    torsion = check_torsion_correspondence(nabla)
    assert curvature.residuals_zero and torsion.residuals_zero
    assert "basis" not in nabla.ctx.S_maps.TTA.__dict__
    # the bundle images are still there, reduced when read
    ctx = nabla.ctx
    for m, w in curvature.images.items():
        assert curvature.tangent_images[m] == ctx.S_maps.TTA.element(ctx.curvature_shapes.write(w))
    assert torsion.tangent_images == {m: tangent_torsion(nabla).image_of(m) for m in nabla.module.gens}
