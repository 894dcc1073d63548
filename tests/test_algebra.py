import random

import pytest

from kcx.algebra import (
    AlgebraElement,
    AlgebraMorphism,
    PresentedAlgebra,
    compose_morphisms,
    identity_morphism,
    localize,
    make_algebra,
    make_morphism,
    relabel,
    tensor_over_base,
)
from kcx.dualnum import dual_numbers_structure
from kcx.errors import OwnerMismatch, WellDefinednessFailure
from kcx.fields import GF, QQ
from kcx.gallery import GALLERY, run_gallery
from kcx.parse import ParseError
from kcx.poly import Polynomial

import helpers
from oracles import signed_sum_images


def test_make_algebra_gallery(circle, fat_point, plane):
    assert circle.element("x^2 + y^2") == circle.one()
    assert fat_point.element("x^3").is_zero()
    assert plane.relations == ()


def test_nonprime_char_rejected():
    with pytest.raises(ValueError):
        make_algebra(GF(4), ("x",))


def test_element_equal(circle, plane, fat_point):
    assert circle.element("x^2 + y^2") == circle.element(1)
    assert plane.element("x1") != plane.element("x2")
    assert fat_point.element("x^3") == fat_point.zero()
    with pytest.raises(OwnerMismatch):
        circle.element("x") == plane.element("x1")  # noqa: B015


def test_element_equality_refuses_what_the_algebra_cannot_read(circle):
    x = circle.element("x")
    for bad in ("z", "x +"):
        with pytest.raises(ParseError):
            x == bad  # noqa: B015
        with pytest.raises(ParseError):
            x != bad  # noqa: B015
    with pytest.raises(ValueError, match="not in the ambient ring"):
        x == Polynomial.variable(GF(3), circle.gens, "x")  # noqa: B015
    # only an operand of a type the reader cannot read compares unequal
    assert (x == None) is False and (x != None) is True  # noqa: E711
    assert x != [1] and x != object()
    assert x == "x" and circle.element("x^2") == "1 - y^2" and x != 1


def test_relabel_tables():
    A = make_algebra(QQ, ("x", "y"))
    f = relabel(A, A, {"x": "-y", "y": ("x", "x", "-y")}, "f")
    assert f(A.gen("x")) == -A.gen("y")
    assert f(A.gen("y")) == A.element("2*x - y")
    assert relabel(A, A, {"x": None}, "kill x")(A.element("x + y")) == A.gen("y")
    with pytest.raises(ValueError):
        relabel(A, A, {"z": "x"})  # not a domain generator
    with pytest.raises(ValueError):
        relabel(A, A, {"x": "z"})  # not a codomain generator


def test_relabel_images_match_signed_sums():
    """Seeded tables of single names, tuples with repeats, a with -a, None and
    absent generators give the images of the sum-of-signed-variables definition;
    "-b" is a codomain generator of its own and stays literal."""
    rng = random.Random(2121)
    dom_gens = ("a", "b", "c", "e")
    names = ["a", "b", "c", "d", "-a", "-b", "-c", "-d"]
    for field in (QQ, GF(2), GF(3)):
        dom = PresentedAlgebra(field, dom_gens, [])
        cod = PresentedAlgebra(field, ("a", "b", "c", "d", "e", "-b"), [])
        for _ in range(60):
            table = {}
            for g in rng.sample(dom_gens, rng.randint(0, len(dom_gens))):
                kind = rng.randrange(4)
                if kind == 0:
                    table[g] = None
                elif kind == 1:
                    table[g] = rng.choice(names)
                elif kind == 2:
                    x = rng.choice("abcd")
                    table[g] = (x, f"-{x}", rng.choice(names))
                else:
                    table[g] = tuple(rng.choices(names, k=rng.randint(0, 4)))
            got = relabel(dom, cod, table, certify=False).images
            want = signed_sum_images(dom_gens, cod, table)
            assert {g: p.terms for g, p in got.items()} == {g: p.terms for g, p in want.items()}, table
        literal = relabel(dom, cod, {"a": "-b"}, certify=False).images["a"]
        assert literal == Polynomial.variable(field, cod.gens, "-b")
    for target in ("z", "-z", ("a", "z"), "-"):
        with pytest.raises(ValueError):
            relabel(dom, cod, {"a": target})
    with pytest.raises(ValueError):
        relabel(cod, dom, {})  # "d" is absent from the table and from the codomain


def test_fresh_names_avoid_existing_generators():
    A = make_algebra(QQ, ("x", "x_inv", "eps", "epsp"))
    assert localize(A, "x").gens[-1] == "x_inv_"
    dn = dual_numbers_structure(A)
    assert (dn.eps, dn.epsp) == ("eps_", "epsp_")


def test_identity_and_composition(circle):
    ident = identity_morphism(circle)
    f = make_morphism(circle, circle, {"x": "y", "y": "x"}, name="swap")
    assert compose_morphisms(f, ident) == f
    assert compose_morphisms(ident, f) == f
    assert compose_morphisms(f, f) == ident


def test_projective_transition_morphism():
    # R[x] -> R[y, w]/(y*w - 1), x -> w models x -> 1/y.
    line = make_algebra(QQ, ("x",))
    target = make_algebra(QQ, ("y", "w"), ["y*w - 1"])
    t = make_morphism(line, target, {"x": "w"})
    # substitution then normal form is multiplicative: x^2 -> w^2
    assert t(line.element("x^2")) == target.element("w^2")


def test_ill_defined_morphism_rejected(fat_point):
    target = make_algebra(QQ, ())
    with pytest.raises(WellDefinednessFailure) as err:
        make_morphism(fat_point, target, {"x": 1})
    assert "x^2" in str(err.value)


def test_morphism_rejection_order_independent():
    # Acceptance is about the ideal, not the generator listing order.
    a1 = make_algebra(QQ, ("u", "v"), ["u^2 - v", "v^2"])
    a2 = make_algebra(QQ, ("v", "u"), ["v^2", "u^2 - v"])
    target = make_algebra(QQ, ("t",), ["t^4"])
    images = {"u": "t", "v": "t^2"}
    m1 = make_morphism(a1, target, images)
    m2 = make_morphism(a2, target, images)
    assert m1(a1.element("u*v")) == m2(a2.element("u*v"))
    bad = {"u": "t", "v": "t^3"}
    for alg in (a1, a2):
        with pytest.raises(WellDefinednessFailure):
            make_morphism(alg, target, bad)


def test_apply_morphism_multiplicative_random(circle):
    rng = random.Random(23)
    f = make_morphism(circle, circle, {"x": "-x", "y": "-y"})
    for _ in range(100):
        e1 = circle.element(
            Polynomial.monomial(QQ, circle.gens, (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-3, 3))
        ) + circle.element(rng.randint(-2, 2))
        e2 = circle.element(
            Polynomial.monomial(QQ, circle.gens, (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-3, 3))
        )
        assert f(e1 * e2) == f(e1) * f(e2)


def test_tensor_base_collapse(circle):
    ident = identity_morphism(circle)
    t = tensor_over_base(ident, ident)
    # A (x)_A A collapses: both injections agree on everything.
    for g in circle.gens:
        assert t.i0(circle.gen(g)) == t.i1(circle.gen(g))
    assert helpers.algebra_pair(t, "x", "y") == t.i0(circle.element("x*y"))


def test_tensor_injections_agree_on_base(circle, plane):
    # two different circle-algebras over the plane-subring via x1 -> x, x2 -> y
    f = make_morphism(plane, circle, {"x1": "x", "x2": "y"})
    t = tensor_over_base(f, f)
    for g in plane.gens:
        lhs = compose_morphisms(t.i0, f)
        rhs = compose_morphisms(t.i1, f)
        assert lhs.image_of(g) == rhs.image_of(g)


def test_tensor_refuses_factor_maps_from_different_bases(circle, plane):
    f = make_morphism(plane, circle, {"x1": "x", "x2": "y"})
    with pytest.raises(ValueError, match="share their domain"):
        tensor_over_base(f, identity_morphism(circle))


def test_localize_basics():
    line = make_algebra(QQ, ("x",))
    loc = localize(line, "x")
    assert loc.gens == ("x", "x_inv")
    assert loc.element("x*x_inv") == loc.one()
    # localizing again at x: the new inverse collapses onto the old one
    loc2 = localize(loc, "x")
    inv2 = loc2.gens[-1]
    assert loc2.element(inv2) == loc2.element("x_inv")


def test_localize_builds_one_localization_per_generator():
    A = make_algebra(QQ, ("x", "y"))
    assert localize(A, "x") is localize(A, "x")
    assert localize(A, "y") is not localize(A, "x")
    memo = dict(A._memo)
    with pytest.raises(ValueError):
        localize(A, "z")
    assert A._memo == memo


def test_zero_elements_leave_the_basis_unbuilt():
    A = make_algebra(QQ, ("x", "y"), ["x*y"])
    line = make_algebra(QQ, ("t",))
    assert A.zero().is_zero() and "basis" not in A.__dict__
    f = make_morphism(A, line, {"x": "t", "y": "0"})  # the relation's image is 0
    assert f.certified and "basis" not in line.__dict__
    assert f.apply_poly(A.relations[0]).is_zero() and "basis" not in line.__dict__
    with pytest.raises(ValueError):
        AlgebraElement(line, Polynomial.zero(QQ, A.gens))  # the ring check stays
    assert A.element("x^2 + x*y").render() == "x^2" and "basis" in A.__dict__


def test_images_matching_relations_certify_without_a_basis():
    target = make_algebra(QQ, ("u", "v"), ["u^2 + v^2 - 1"])
    circle = make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])
    for images in ({"x": "v", "y": "u"}, {"x": "-u", "y": "v"}):
        assert make_morphism(circle, target, images).certified
    assert "basis" not in target.__dict__
    assert -target.relations[0] in target.signed_relations
    # x -> 2*s sends (x - 2)^2 to 4*(s - 1)^2: not a relation up to sign
    square = make_algebra(QQ, ("x",), ["x^2 - 4*x + 4"])
    doubled = make_algebra(QQ, ("s",), ["s^2 - 2*s + 1"])
    assert make_morphism(square, doubled, {"x": "2*s"}).certified
    assert "basis" in doubled.__dict__
    with pytest.raises(WellDefinednessFailure) as err:
        make_morphism(square, doubled, {"x": "s"})
    assert (err.value.relation, err.value.residue) == ("x^2 - 4*x + 4", "-2*s + 3")


def test_matched_images_above_the_grade_cap_are_refused():
    """A truncated codomain decides nothing above its cap, so an image equal
    to one of its relations there still reaches the out-of-cap refusal."""
    gens = ("t", "dt")
    rel = Polynomial.monomial(QQ, gens, (0, 2), 1)
    capped = PresentedAlgebra(QQ, gens, [rel], grading={"t": (0,), "dt": (1,)}, cap=(1,))
    assert capped.signed_relations == frozenset()
    square = make_algebra(QQ, ("s",), ["s^2"])
    with pytest.raises(ValueError, match="graded truncation bound"):
        AlgebraMorphism(square, capped, {"s": Polynomial.variable(QQ, gens, "dt")})
    within = PresentedAlgebra(QQ, gens, [rel], grading={"t": (0,), "dt": (1,)}, cap=(2,))
    assert AlgebraMorphism(square, within, {"s": Polynomial.variable(QQ, gens, "dt")}).certified
    assert "basis" not in within.__dict__


def test_maps_settled_by_reading_in_the_gallery_have_zero_full_certificates(monkeypatch):
    """Every map that `certify` settles with no `certificate` call while the
    14 gallery cases run (H among them) has an all-zero full certificate,
    with no image refused above the grade cap: `PresentedAlgebra.proves_zero`
    and `ShapeMap.proves_zero` checked against normal forms on the engine's
    own traffic."""
    full, settled = helpers.record_certificate_calls(monkeypatch), []
    certify = AlgebraMorphism.certify

    def spying_certify(self, *args):
        before = len(full)
        out = certify(self, *args)
        if len(full) == before:
            settled.append(self)
        return out

    monkeypatch.setattr(AlgebraMorphism, "certify", spying_certify)
    cases = run_gallery()
    monkeypatch.undo()
    assert len(cases) == len(GALLERY) == 14 and all(case.passed for case in cases), cases
    assert "H" in {m.name for m in settled}
    for m in settled:
        assert all(res.is_zero() for _, res in m.certificate()), m.name


def test_well_definedness_certificate_content(circle):
    m = make_morphism(circle, circle, {"x": "y", "y": "x"})
    assert all(res.is_zero() for _, res in m.certificate())


def test_identical_images_within_the_cap_agree_with_no_basis():
    line = make_algebra(QQ, ("t",))
    for cod in (
        make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"]),
        PresentedAlgebra(QQ, ("t", "dt"), [Polynomial.monomial(QQ, ("t", "dt"), (0, 2), 1)],
                         grading={"t": (0,), "dt": (1,)}, cap=(1,)),
    ):
        image = {"t": "x + y" if "x" in cod.gens else "t*dt - 1"}
        f, g = make_morphism(line, cod, image), make_morphism(line, cod, image)
        assert f.images["t"] is not g.images["t"]
        assert f.agrees_on(g, "t") and f == g
        assert "basis" not in cod.__dict__


def test_identical_images_above_the_cap_are_refused_like_image_of():
    gens = ("t", "dt")
    capped = PresentedAlgebra(QQ, gens, [], grading={"t": (0,), "dt": (1,)}, cap=(1,))
    line = make_algebra(QQ, ("s",))
    f, g = (make_morphism(line, capped, {"s": "dt^2"}) for _ in range(2))
    with pytest.raises(ValueError) as refused:
        f.image_of("s")
    with pytest.raises(ValueError) as err:
        f.agrees_on(g, "s")
    assert str(err.value) == str(refused.value)
    with pytest.raises(ValueError):
        f == g  # noqa: B015


def test_images_equal_modulo_the_ideal_agree():
    circle = make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])
    line = make_algebra(QQ, ("t",))
    f = make_morphism(line, circle, {"t": "x^2 + y^2"})
    assert f.agrees_on(make_morphism(line, circle, {"t": "1"}), "t")
    assert "basis" in circle.__dict__
    assert not f.agrees_on(make_morphism(line, circle, {"t": "x"}), "t")
    assert f != make_morphism(line, circle, {"t": "x"})
