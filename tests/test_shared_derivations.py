"""What the engine derives once and shares, and what it builds only when read.

T(f) is built once per certified map and kept on it, so the axiom checks,
`from_horizontal` and the bundle curvature read one T(H) and one T(K).  The
module curvature and torsion images are worked out once per connection, and
each `module_curvature` / `module_torsion` call returns a fresh result over
them, so the residuals one correspondence check fills in show in no other
result.  A module builds its zero and each unit generator once, and every
caller, a certified correspondence's zero residuals among them, shares them;
a single standard term is its own module normal form, with no reduction.
"""

import pytest

from kcx import curvature, groebner
from kcx.algebra import AlgebraMorphism, make_algebra
from kcx.connections import (
    connection_equal,
    from_horizontal,
    to_horizontal,
    to_vertical,
    verify_connection_axioms,
)
from kcx.curvature import (
    check_curvature_correspondence,
    check_torsion_correspondence,
    module_curvature,
    module_torsion,
    tangent_curvature,
)
from kcx.errors import WellDefinednessFailure
from kcx.fields import GF, QQ
from kcx.modules import WedgeSquare, free_module, kahler_module, make_module, tensor_modules
from kcx.poly import Polynomial
from kcx.tangent import _tangent_map, tangent_apply_functor

import helpers


@pytest.fixture
def nabla():
    """The canonical connection on a fresh S^2, so no other test shares its caches."""
    return helpers.sphere_connection(helpers.sphere(2))


def _swap_map(certify: bool) -> AlgebraMorphism:
    """(x, y) -> (y, x) on the circle, certified or not."""
    A = make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])
    return AlgebraMorphism(A, A, {"x": A.polynomial("y"), "y": A.polynomial("x")}, certify=certify, name="s")


def test_each_bundle_form_has_one_tangent_map(nabla):
    H, K = to_horizontal(nabla), to_vertical(nabla)
    TH, TK = tangent_apply_functor(H), tangent_apply_functor(K)
    assert verify_connection_axioms(K, H, nabla.module).all_pass
    assert connection_equal(from_horizontal(H, nabla.module), nabla)
    tangent_curvature(nabla)
    assert tangent_apply_functor(H) is TH and tangent_apply_functor(K) is TK
    assert TH.certified and TK.certified
    assert TH == _tangent_map(H) and TK == _tangent_map(K)  # the kept map is the one a fresh build gives


def test_a_map_certified_after_its_tangent_was_built_reports_it():
    f = _swap_map(certify=False)
    before = tangent_apply_functor(f)
    assert not before.certified
    assert tangent_apply_functor(f) is not before  # an uncertified map's T(f) is not kept
    f.certify()
    after = tangent_apply_functor(f)
    assert after.certified and after is tangent_apply_functor(f)
    assert after == before


def test_a_map_that_fails_its_certificate_keeps_no_tangent_map():
    A = make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])
    f = AlgebraMorphism(A, A, {"x": A.polynomial("x"), "y": A.polynomial("2*y")}, certify=False, name="f")
    with pytest.raises(WellDefinednessFailure):
        f.certify()
    assert not tangent_apply_functor(f).certified and not f._memo


def test_the_correspondence_checks_reuse_the_module_images(nabla, monkeypatch):
    curved, torsion = module_curvature(nabla), module_torsion(nabla)
    calls = []
    of_element = curvature.curvature_of_element
    monkeypatch.setattr(curvature, "curvature_of_element", lambda *a: calls.append(a) or of_element(*a))
    from_tensor = WedgeSquare.from_tensor
    monkeypatch.setattr(WedgeSquare, "from_tensor", lambda *a: calls.append(a) or from_tensor(*a))
    assert check_curvature_correspondence(nabla).images == curved.images
    assert check_torsion_correspondence(nabla).images == torsion.images
    assert module_curvature(nabla).images == curved.images
    assert calls == []


@pytest.mark.parametrize(
    "module_side, check",
    [(module_curvature, check_curvature_correspondence), (module_torsion, check_torsion_correspondence)],
)
def test_each_call_returns_a_fresh_result(nabla, module_side, check):
    checked = check(nabla)
    plain = module_side(nabla)
    again = check(nabla)
    assert len({id(checked), id(plain), id(again)}) == 3
    assert plain.bundle_map is None and plain.residuals == {}
    assert set(checked.residuals) == set(nabla.module.gens) and checked.residuals_zero
    assert again.residuals is not checked.residuals and again.images is not checked.images
    plain.images.clear()
    assert module_side(nabla).images == checked.images


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_a_module_builds_its_zero_and_units_once(field):
    A = make_algebra(field, ("x", "y"), ["x^2 + y^2 - 1"])
    omega = kahler_module(A)
    one = Polynomial.const(field, A.gens, 1)
    for M in (omega, free_module(A, 2), make_module(A, ("a", "b"), [["x", "y"]]), tensor_modules(omega, omega)):
        assert M.zero() is M.zero() and M.zero() == M.combine(())
        for k, g in enumerate(M.gens):
            assert M.gen(g) is M.gen(g) and M.gen(g) == M.combine([(k, one)])


def test_certified_correspondence_residuals_are_the_module_zero(nabla):
    result = check_curvature_correspondence(nabla)
    zero = nabla.ctx.curvature_shapes.module.zero()
    assert result.residuals_zero and set(result.residuals) == set(nabla.module.gens)
    for first, *rest in result.residuals.values():
        assert first.is_zero() and rest and all(r is zero for r in rest)


def test_a_standard_unit_vector_is_its_own_normal_form(monkeypatch):
    A = make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])
    bases = [M.lifted for M in (kahler_module(A), free_module(A, 2))]  # built before counting
    calls = []
    reduce = groebner._reduce
    monkeypatch.setattr(groebner, "_reduce", lambda *a: calls.append(a) or reduce(*a))
    one, zero = Polynomial.const(QQ, A.gens, 1), Polynomial.zero(QQ, A.gens)
    for basis in bases:
        for k in range(basis.rank):
            unit = tuple(one if i == k else zero for i in range(basis.rank))
            assert basis.normal_form(unit) == unit == basis._vector(basis.sparse_normal_form({k: dict(one.terms)}))
    assert calls == []
