"""Raw in, reduced once: constructors keep raw values, and the one normal form
that decides gives what reducing every input first gave.

`oracles.eager_make_morphism` reduces each image before the map is built;
`make_morphism` stores the images raw and must agree with it on the
certified flag, the images' normal forms, the certificate residues and the
failure text.
"""

import random

import pytest

from kcx.algebra import AlgebraElement, AlgebraMorphism, localize, make_algebra, make_morphism
from kcx.errors import OwnerMismatch, WellDefinednessFailure
from kcx.fields import GF, QQ
from kcx.groebner import IdealBasis
from kcx.modules import kahler_module, universal_derivation
from kcx.poly import Polynomial
from kcx.tangent import bundle_context

from oracles import eager_make_morphism


def codomains(field):
    """The circle, S^2, the fat point and k[x] localized at x."""
    return [
        make_algebra(field, ("x", "y"), ["x^2 + y^2 - 1"]),
        make_algebra(field, ("x1", "x2", "x3"), ["x1^2 + x2^2 + x3^2 - 1"]),
        make_algebra(field, ("x",), ["x^2"]),
        localize(make_algebra(field, ("x",)), "x"),
    ]


def random_poly(rng, C, degree: int, terms: int) -> Polynomial:
    p = Polynomial.zero(C.field, C.gens)
    for _ in range(terms):
        exp = tuple(rng.randint(0, degree) for _ in C.gens)
        p = p + Polynomial.monomial(C.field, C.gens, exp, rng.randint(-3, 3))
    return p


def random_image(rng, C, g: str):
    """An image of generator g of C: an int, or g itself (a well-defined
    choice) or a random polynomial, plus multiples of the relations so that
    it reduces, given as a string, an element or a polynomial."""
    kind = rng.choice(("str", "elt", "poly", "int"))
    if kind == "int":
        return rng.randint(-3, 3)
    p = Polynomial.variable(C.field, C.gens, g) if rng.random() < 0.6 else random_poly(rng, C, 2, 3)
    for rel in C.relations:
        p = p + rel * random_poly(rng, C, 1, 2)
    return {"str": p.render(), "elt": AlgebraElement(C, p), "poly": p}[kind]


def outcome(build, C, images) -> tuple[bool, str]:
    try:
        return build(C, C, images, name="f").certified, ""
    except WellDefinednessFailure as exc:
        return False, str(exc)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_raw_images_decide_what_reduced_images_decide(field):
    rng = random.Random(1505)
    verdicts = set()
    for C in codomains(field):
        for _ in range(12):
            images = {g: random_image(rng, C, g) for g in C.gens}
            raw = AlgebraMorphism(C, C, {g: C.polynomial(v) for g, v in images.items()}, certify=False)
            eager = eager_make_morphism(C, C, images, certify=False)
            for g in C.gens:
                assert raw.image_of(g) == eager.image_of(g)
            assert [(rel, res.poly) for rel, res in raw.certificate()] == [
                (rel, res.poly) for rel, res in eager.certificate()
            ]
            verdict = outcome(make_morphism, C, images)
            assert verdict == outcome(eager_make_morphism, C, images)
            verdicts.add(verdict[0])
    assert verdicts == {True, False}


def test_a_bundle_context_builds_no_factor_basis():
    ctx = bundle_context(kahler_module(make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])))
    assert "basis" not in ctx.TA.__dict__
    assert "basis" not in ctx.S.__dict__


def test_module_values_take_no_ideal_normal_form(monkeypatch):
    circle = make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])
    omega = kahler_module(circle)
    omega.lifted  # the module basis is built once, before counting
    y_cubed = circle.element("y^3")
    calls = []
    reduce = IdealBasis.normal_form
    monkeypatch.setattr(IdealBasis, "normal_form", lambda basis, p: calls.append(p) or reduce(basis, p))
    values = [
        omega.element(["x^3 + x*y^2", "y"]),
        omega.element({"d(y)": y_cubed}),
        omega.gen("d(x)").scaled("x^2 + y^2"),
        universal_derivation(circle, "x^3*y + x*y^3"),
    ]
    assert calls == []
    monkeypatch.undo()
    x, y = omega.gen("d(x)"), omega.gen("d(y)")
    assert values == [
        x.scaled(circle.element("x")) + y.scaled(circle.element("y")),
        y.scaled(y_cubed),
        x,
        x.scaled(circle.element("y")) + y.scaled(circle.element("x")),
    ]


def test_the_value_reader_keeps_every_refusal():
    circle = make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])
    omega = kahler_module(circle)
    elsewhere = [
        Polynomial.variable(GF(3), circle.gens, "x"),
        Polynomial.zero(GF(3), circle.gens),
        Polynomial.variable(QQ, ("x", "z"), "x"),
    ]
    for bad in elsewhere:
        for read in (
            circle.polynomial,
            circle.element,
            lambda p: make_morphism(circle, circle, {"x": p, "y": "y"}),
            lambda p: eager_make_morphism(circle, circle, {"x": p, "y": "y"}),
            lambda p: omega.element([p, 0]),
        ):
            with pytest.raises(ValueError, match="not in the ambient ring"):
                read(bad)
    # the same generator tuple over another field: identity of the names is not enough
    shared = make_algebra(GF(3), circle.gens)
    assert shared.gens is circle.gens
    stray = Polynomial.variable(GF(3), shared.gens, "x")
    with pytest.raises(ValueError, match="not in the ambient ring"):
        circle.polynomial(stray)
    with pytest.raises(ValueError, match="not in the base ring"):
        omega.combine([(0, stray)])
    twin = make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])
    with pytest.raises(OwnerMismatch):
        circle.polynomial(twin.gen("x"))
    with pytest.raises(OwnerMismatch):
        make_morphism(circle, circle, {"x": twin.gen("x"), "y": "y"})
