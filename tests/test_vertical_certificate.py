"""The vertical form K, certified from the connection's Leibniz residues.

`Connection.K` is certified with no basis of T(S_A(M)) when, for each
relation row of M with linear form rho and Leibniz terms L, K(rho) is
d(rho) - U(write(L)) term for term and L combines to zero in Omega (x) M;
otherwise the full certificate decides and reports.  These tests check the
fact the certificate rests on (U after write sends every relation row of
Omega (x) M, and A's ideal times each generator, to zero in T(S_A(M)); write
alone sends them to zero in T(A) (x)_A S_A(M), which H's certificate needs),
compare the certificate with the full one on admissible and on random data,
pin the failure text of the fallback, and show that K and H are built once
per connection.
"""

import random

import pytest

from kcx.algebra import AlgebraMorphism, make_algebra
from kcx.connections import (
    Connection,
    connection_equal,
    from_horizontal,
    make_connection,
    to_horizontal,
    to_vertical,
    verify_connection_axioms,
)
from kcx.curvature import check_curvature_correspondence, check_torsion_correspondence
from kcx.errors import WellDefinednessFailure
from kcx.fields import GF, QQ
from kcx.modules import christoffel_target, free_module, kahler_module, make_module
from kcx.poly import Polynomial
from kcx.tangent import bundle_context

import helpers

FIELDS = [QQ, GF(3)]


def _modules(field):
    """Kahler, free and presented modules over fresh curves and surfaces."""
    circle = make_algebra(field, ("x", "y"), ["x^2 + y^2 - 1"])
    cusp = make_algebra(field, ("x", "y"), ["x^2 - y^3"])
    return [
        kahler_module(circle),
        kahler_module(helpers.sphere(2, field)),
        kahler_module(make_algebra(field, ("x", "y"), ["y^2 - x^3 - 1"])),
        free_module(circle, 2),
        make_module(circle, ("e1", "e2"), [["x", "y"], ["y", "0"]]),
        make_module(cusp, ("u", "v"), [["x", "y"]]),
    ]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_u_after_write_sends_relation_rows_and_the_ideal_to_zero(field):
    rows_seen = nonzero = 0
    for M in _modules(field):
        ctx = bundle_context(M)
        shapes, A = ctx.omega_m_shapes, ctx.A
        target = shapes.module
        zero = Polynomial.zero(A.field, A.gens)
        ideal_rows = [
            tuple(b if i == k else zero for i in range(target.rank)) for b in A.basis.basis for k in range(target.rank)
        ]
        for row in list(target.relations) + ideal_rows:
            written = shapes.write_raw(enumerate(row))
            assert ctx.TAS.element(written).is_zero(), (M, row)  # what H's certificate rests on
            assert ctx.TS.element(ctx.U.apply_raw(written)).is_zero(), (M, row)
        rows_seen += len(target.relations)
        # the check can fail: a generator of Omega (x) M is not zero there
        unit = Polynomial.const(A.field, A.gens, 1)
        nonzero += not ctx.TS.element(ctx.U.apply_raw(shapes.write_raw([(0, unit)]))).is_zero()
        nonzero += not ctx.TAS.element(shapes.write_raw([(0, unit)])).is_zero()
    assert rows_seen and nonzero


def _unchecked_k(nabla: Connection) -> AlgebraMorphism:
    """K with the images `Connection.K` has, certified by nothing yet."""
    ctx = nabla.ctx
    images = {x: Polynomial.variable(ctx.TS.field, ctx.TS.gens, x) for x in ctx.A.gens}
    for m in ctx.M.gens:
        dm = Polynomial.variable(ctx.TS.field, ctx.TS.gens, ctx.TS.dmap[m])
        images[m] = dm - ctx.U.apply_raw(ctx.omega_m_shapes.write(nabla.gamma[m]))
    return AlgebraMorphism(ctx.S, ctx.TS, images, certify=False, name="K")


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_leibniz_certificate_agrees_with_the_full_certificate(field):
    rng = random.Random(1901 + field.char)
    admissible = rejected = 0
    for M in _modules(field):
        gamma = helpers.random_admissible_gamma(rng, M)
        if gamma is not None:
            nabla = make_connection(M, gamma)
            K = to_vertical(nabla)
            assert K.certified and K.images == _unchecked_k(nabla).images
            assert nabla._leibniz_certifies(K)
            assert all(res.is_zero() for _, res in K.certificate())
            # K(m) + m still kills every relation, but these are not the images
            # the residues speak for, so only the full certificate shows it
            TS = nabla.ctx.TS
            shifted = dict(K.images)
            for m in M.gens:
                shifted[m] = shifted[m] + Polynomial.variable(TS.field, TS.gens, m)
            moved = AlgebraMorphism(K.dom, TS, shifted, certify=False, name="K")
            assert nabla._leibniz_certifies(moved) == (not any(any(row) for row in M.relations))
            assert moved.certify().certified
            admissible += 1
        for _ in range(2):
            nabla = Connection(M, helpers.random_gamma(rng, M))
            K = _unchecked_k(nabla)
            residues = [(rel.render(), res.render()) for rel, res in K.certificate() if not res.is_zero()]
            assert nabla._leibniz_certifies(K) == (not residues), M
            if not residues:
                assert to_vertical(nabla).certified
                continue
            rejected += 1
            with pytest.raises(WellDefinednessFailure) as err:
                to_vertical(nabla)
            assert (err.value.what, err.value.relation, err.value.residue) == ("K", *residues[0])
    assert admissible >= 3 and rejected >= 8


def _fallback_cases():
    circle = make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])
    omega = kahler_module(circle)
    cusp = make_algebra(GF(3), ("x", "y"), ["x^2 - y^3"])
    P = make_module(cusp, ("u", "v"), [["x", "y"]])
    t = christoffel_target(P)
    return [
        (omega, {g: christoffel_target(omega).zero() for g in omega.gens},
         "2*x*d(x) + 2*y*d(y)", "-2*d_x*d(x) - 2*d_y*d(y)"),
        (P, {g: t.zero() for g in P.gens}, "x*u + y*v", "2*d_x*u + 2*d_y*v"),
        (P, {"u": t.element(["0", "0", "y", "0"]), "v": t.zero()},
         "x*u + y*v", "y^2*d_y*v + 2*d_x*u + 2*d_y*v"),
    ]


@pytest.mark.parametrize("case", range(3))
def test_an_uncertified_connection_fails_with_the_full_certificate_text(case):
    """The relation and residue strings are those the full certificate of K
    reported before K was certified from the Leibniz residues."""
    M, gamma, relation, residue = _fallback_cases()[case]
    nabla = Connection(M, gamma)
    for _ in range(2):  # a failed build is not cached: it fails again
        with pytest.raises(WellDefinednessFailure) as err:
            to_vertical(nabla)
        assert (err.value.relation, err.value.residue) == (relation, residue)
        assert str(err.value) == f"K: relation {relation} has nonzero residue {residue}"


def test_k_and_h_are_built_once_per_connection(monkeypatch):
    built = []
    init = AlgebraMorphism.__init__

    def recording(self, dom, cod, images, certify=True, name=""):
        built.append(name)
        init(self, dom, cod, images, certify, name)

    monkeypatch.setattr(AlgebraMorphism, "__init__", recording)
    nabla = helpers.sphere_connection(helpers.sphere(2))
    # the benchmark's pipeline steps, each asking for the forms afresh
    assert verify_connection_axioms(to_vertical(nabla), to_horizontal(nabla), nabla.module).all_pass
    assert connection_equal(from_horizontal(to_horizontal(nabla), nabla.module), nabla)
    assert check_curvature_correspondence(nabla).residuals_zero
    assert check_torsion_correspondence(nabla).residuals_zero
    assert built.count("K") == 1 and built.count("H") == 1
    assert to_vertical(nabla) is nabla.K and to_horizontal(nabla) is nabla.H
