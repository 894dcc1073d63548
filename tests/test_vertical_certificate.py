"""The vertical form K, read off the horizontal form H.

`Connection.K` is `vertical_from_horizontal(H, M)`, that is {1 - U.H}, and
inherits H's certificate: the identity and U are certified, and composition,
the fibrewise difference and bracketing pass the flag on.  K has no
certificate of its own.  These tests check the fact H's Leibniz certificate
rests on (write sends every relation row of Omega (x) M, and A's ideal times
each generator, to zero in T(A) (x)_A S_A(M); U after it sends them to zero
in T(S_A(M))), compare K with the reference builder `_unchecked_k` and its
full certificate on admissible and on random data, show that K fails exactly
as H fails on bad Christoffel data, and that K and H are built once per
connection.
"""

import random

import pytest

from kcx.algebra import AlgebraMorphism, identity_morphism, make_algebra
from kcx.connections import (
    Connection,
    connection_equal,
    from_horizontal,
    make_connection,
    to_horizontal,
    to_vertical,
    verify_connection_axioms,
    vertical_from_horizontal,
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
    """K with the images d(m) - U(write(Gamma(m))), certified by nothing yet."""
    ctx = nabla.ctx
    images = {x: Polynomial.variable(ctx.TS.field, ctx.TS.gens, x) for x in ctx.A.gens}
    for m in ctx.M.gens:
        dm = Polynomial.variable(ctx.TS.field, ctx.TS.gens, ctx.TS.dmap[m])
        images[m] = dm - ctx.U.apply_raw(ctx.omega_m_shapes.write(nabla.gamma[m]))
    return AlgebraMorphism(ctx.S, ctx.TS, images, certify=False, name="K")


def _failure(build):
    """(what, relation, residue) of the `WellDefinednessFailure` `build` raises."""
    with pytest.raises(WellDefinednessFailure) as err:
        build()
    return err.value.what, err.value.relation, err.value.residue


def _fails_as_h(nabla: Connection):
    """Check that K raises exactly H's failure, twice (a failed build is not
    cached), and return it."""
    failures = [_failure(lambda: to_horizontal(nabla))]
    for _ in range(2):
        failures.append(_failure(lambda: to_vertical(nabla)))
    assert failures[0][0] == "H" and failures.count(failures[0]) == 3, failures
    return failures[0]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_leibniz_certificate_agrees_with_the_full_certificate(field, monkeypatch):
    rng = random.Random(1901 + field.char)
    calls = helpers.record_certify_calls(monkeypatch)
    admissible = rejected = 0
    for M in _modules(field):
        gamma = helpers.random_admissible_gamma(rng, M)
        if gamma is not None:
            nabla = make_connection(M, gamma)
            nabla.ctx.omega_m_shapes  # the bundle's own maps are certified as they are built
            calls.clear()
            K = to_vertical(nabla)
            assert K.certified and len(calls) == 1 and calls[0] is nabla.H  # H's own certify; K adds none
            assert "basis" not in nabla.ctx.TS.__dict__
            reference = _unchecked_k(nabla)
            assert {g: p.terms for g, p in K.images.items()} == {g: p.terms for g, p in reference.images.items()}
            assert all(res.is_zero() for _, res in reference.certificate())
            admissible += 1
        for _ in range(2):
            nabla = Connection(M, helpers.random_gamma(rng, M))
            residues = [res for _, res in _unchecked_k(nabla).certificate() if not res.is_zero()]
            if not residues:
                assert to_vertical(nabla).certified
                continue
            rejected += 1
            _fails_as_h(nabla)
    assert admissible >= 3 and rejected >= 8


def _fallback_cases():
    """Bad Christoffel data, with the first relation and residue of the
    reference K's full certificate."""
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
    """The reference K's full certificate rejects the data; `to_vertical`
    raises H's failure, with H's relation and residue."""
    M, gamma, relation, residue = _fallback_cases()[case]
    nabla = Connection(M, gamma)
    full = [(r.render(), e.render()) for r, e in _unchecked_k(nabla).certificate() if not e.is_zero()]
    assert full[0] == (relation, residue)
    _, h_relation, h_residue = _fails_as_h(nabla)
    with pytest.raises(WellDefinednessFailure) as err:
        to_vertical(nabla)
    assert str(err.value) == f"H: relation {h_relation} has nonzero residue {h_residue}"


@pytest.mark.parametrize("n", [1, 2])
def test_k_read_off_a_certified_h_is_certified(n):
    nabla = helpers.sphere_connection(helpers.sphere(n))
    M = nabla.module
    assert identity_morphism(nabla.ctx.TS).certified and identity_morphism(M.base).certified
    assert nabla.H.certified and vertical_from_horizontal(nabla.H, M).certified


def test_k_and_h_are_built_once_per_connection(monkeypatch):
    built = []
    init = AlgebraMorphism.__init__

    def recording(self, dom, cod, images, certify=True, name=""):
        built.append(name)
        init(self, dom, cod, images, certify, name)

    monkeypatch.setattr(AlgebraMorphism, "__init__", recording)
    nabla = helpers.sphere_connection(helpers.sphere(2))
    # the benchmark's pipeline steps, each asking for the forms afresh
    K = to_vertical(nabla)
    assert verify_connection_axioms(to_vertical(nabla), to_horizontal(nabla), nabla.module).all_pass
    assert connection_equal(from_horizontal(to_horizontal(nabla), nabla.module), nabla)
    assert check_curvature_correspondence(nabla).residuals_zero
    assert check_torsion_correspondence(nabla).residuals_zero
    # K is the bracketing of 1 - U.H, built once from the one H
    assert built.count("H") == 1 and built.count("{(id-U.H)}") == 1
    assert to_vertical(nabla) is K is nabla.K and to_horizontal(nabla) is nabla.H
