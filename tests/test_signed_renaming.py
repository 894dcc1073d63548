"""Signed renamings applied by moving exponents, and composed by reading images.

An `AlgebraMorphism` whose every image is zero or c*y for one codomain
generator y applies itself to polynomials over its own domain ring with
`Polynomial.move_exponents`; every other input goes through `substitute`.
The two must give the same term dict, insertion order included, so these
tests compare them on random polynomials and random tables over QQ, GF(2)
and GF(3), and check that every other input behaves as `substitute` does.

`compose_morphisms(g, f)` with f a signed renaming reads each image off g's
images, with no `apply_raw`; the composed images must equal `g.apply_raw(p)`
on f's images term for term, so they are compared on the bundle structure
maps and on random maps.
"""

import random
from fractions import Fraction

import pytest

from kcx.algebra import AlgebraMorphism, compose_morphisms, make_algebra, relabel
from kcx.connections import to_horizontal, to_vertical
from kcx.fields import GF, QQ, Field
from kcx.poly import Polynomial
from kcx.tangent import tangent_apply_functor

import helpers

FIELDS = [QQ, GF(2), GF(3)]


def _rings(field):
    dom = make_algebra(field, tuple(f"x{i}" for i in range(5)))
    cod = make_algebra(field, ("a", "b", "c"))  # fewer generators: renamings merge
    return dom, cod


def _random_renaming(rng: random.Random, dom, cod) -> AlgebraMorphism:
    f = cod.field
    images = {}
    for g in dom.gens:
        c = f.of(rng.choice([1, -1, 2, -3] + ([Fraction(1, 2), Fraction(-2, 3)] if f.char == 0 else [])))
        y = rng.choice(cod.gens)
        zero = rng.random() < 0.2 or not c
        images[g] = Polynomial.zero(f, cod.gens) if zero else Polynomial.monomial(f, cod.gens, _unit(cod, y), c)
    return AlgebraMorphism(dom, cod, images, certify=False)


def _unit(A, name):
    return tuple(int(g == name) for g in A.gens)


def _random_poly(rng: random.Random, A, terms: int = 8) -> Polynomial:
    exps = [tuple(rng.choice([0, 0, 1, 2, 3]) for _ in A.gens) for _ in range(terms)]
    return Polynomial(A.field, A.gens, {e: rng.randint(-4, 4) for e in exps})


def _items(p: Polynomial):
    return list(p.terms.items())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_renamings_apply_as_substitute_does(field, monkeypatch):
    rng = random.Random(1902 + field.char)
    dom, cod = _rings(field)
    cases = [(_random_renaming(rng, dom, cod), _random_poly(rng, dom)) for _ in range(200)]
    expected = [p.substitute(m.images, cod.gens) for m, p in cases]

    def refused(*args):
        raise AssertionError("a renaming went through substitute")

    monkeypatch.setattr(Polynomial, "substitute", refused)
    merged = 0
    for (m, p), want in zip(cases, expected):
        assert m._renaming is not None
        got = m.apply_raw(p)
        assert _items(got) == _items(want)
        assert got.vars is cod.gens and got.field is p.field
        merged += len(got.terms) < len(p.terms)
    assert merged  # some terms did collide or vanish


def test_structure_maps_apply_as_substitute_does():
    nabla = helpers.sphere_connection(helpers.sphere(2))
    ctx = nabla.ctx
    maps = [ctx.U, ctx.lam, ctx.q, ctx.z, helpers.bundle_negation(ctx.q), ctx.affine_flip]
    maps += [ctx.S_maps.p, ctx.S_maps.zero, ctx.S_maps.lift, ctx.S_maps.flip]
    H = to_horizontal(nabla)
    for m in maps:
        assert m._renaming is not None, m.name
        sources = list(m.dom.relations) + ([H.images[g] for g in H.dom.gens] if m.dom is H.cod else [])
        for p in sources:
            assert _items(m.apply_raw(p)) == _items(p.substitute(m.images, m.cod.gens)), m.name


def test_other_maps_and_inputs_go_through_substitute(monkeypatch):
    dom, cod = _rings(QQ)
    calls = []
    substitute = Polynomial.substitute

    def counting(self, images, target_vars):
        calls.append(self)
        return substitute(self, images, target_vars)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    renaming = relabel(dom, cod, {"x0": "a", "x1": "-b", "x2": None, "x3": "c", "x4": "a"}, certify=False)
    rng = random.Random(1903)
    p = _random_poly(rng, dom)
    fast = renaming.apply_raw(p)
    assert calls == []

    # a sum of generators is not a renaming
    a, b, c = (Polynomial.variable(QQ, cod.gens, y) for y in cod.gens)
    summing = AlgebraMorphism(dom, cod, {"x0": a + b, "x1": b, "x2": c, "x3": c, "x4": a}, certify=False)
    assert summing._renaming is None
    summing.apply_raw(p)
    assert calls == [p]

    # equal generators built apart take the general path, with the same result
    apart = Polynomial(QQ, tuple(list(dom.gens)), p.terms)
    assert apart.vars == dom.gens and apart.vars is not dom.gens
    assert _items(renaming.apply_raw(apart)) == _items(fast)
    assert calls[-1] is apart
    # Field(0) is QQ itself, so a polynomial built over it moves exponents
    same_char = Polynomial(Field(0), dom.gens, p.terms)
    assert same_char.field is QQ
    assert _items(renaming.apply_raw(same_char)) == _items(fast)
    assert calls == [p, apart]


def test_missing_images_and_foreign_rings_fail_as_before():
    dom, cod = _rings(QQ)
    renaming = relabel(dom, cod, {"x0": "a", "x1": "-b", "x2": None, "x3": "c", "x4": "a"}, certify=False)
    wider = dom.gens + ("z",)
    with pytest.raises(KeyError, match="no image for variable 'z'"):
        renaming.apply_raw(Polynomial.variable(QQ, wider, "z"))
    with pytest.raises(ValueError, match="polynomials live in different rings"):
        renaming.apply_raw(Polynomial.variable(GF(3), dom.gens, "x0"))
    # a map between rings over different fields is refused when it is built
    dom3 = make_algebra(GF(3), dom.gens)
    with pytest.raises(ValueError, match=r"^morphism: domain over GF\(3\), codomain over QQ$"):
        AlgebraMorphism(dom3, cod, {g: Polynomial.variable(QQ, cod.gens, "a") for g in dom3.gens}, certify=False)


def test_images_over_the_codomain_objects_compare_no_fields(monkeypatch):
    dom, cod = _rings(GF(3))
    images = {g: Polynomial.variable(cod.field, cod.gens, "b") for g in dom.gens}
    compared = []
    eq = Field.__eq__

    def counting(self, other):
        compared.append(other)
        return eq(self, other)

    monkeypatch.setattr(Field, "__eq__", counting)
    AlgebraMorphism(dom, cod, images, certify=False)
    assert compared == []
    # equal generators built apart still pass; Field(3) is GF(3) itself
    assert Field(3) is GF(3) is cod.field
    apart = {g: Polynomial.variable(Field(3), tuple(list(cod.gens)), "b") for g in dom.gens}
    AlgebraMorphism(dom, cod, apart, certify=False)
    assert compared == []
    with pytest.raises(ValueError, match="not in the codomain ring"):
        AlgebraMorphism(dom, cod, {**images, "x0": Polynomial.variable(GF(2), cod.gens, "b")}, certify=False)


def _composed_as_applied(pairs, monkeypatch):
    """Compose each (g, f); check the images against g.apply_raw on f's images,
    and that a renaming f composes with no `apply_raw` call."""
    expected = [{x: g.apply_raw(p) for x, p in f.images.items()} for g, f in pairs]
    calls = []
    apply_raw = AlgebraMorphism.apply_raw

    def counting(self, poly):
        calls.append(self)
        return apply_raw(self, poly)

    monkeypatch.setattr(AlgebraMorphism, "apply_raw", counting)
    for (g, f), want in zip(pairs, expected):
        calls.clear()
        h = compose_morphisms(g, f)
        assert list(h.images) == list(want)
        for x, p in h.images.items():
            assert _items(p) == _items(want[x]), (g.name, f.name, x)
            assert p.vars is g.cod.gens and p.field is want[x].field
        assert (calls == []) == (f._renaming is not None), (g.name, f.name)
    monkeypatch.undo()


def test_compositions_with_bundle_maps_equal_applied_images(monkeypatch):
    nabla = helpers.sphere_connection(helpers.sphere(2))
    ctx = nabla.ctx
    maps = [ctx.U, ctx.lam, ctx.q, ctx.z, helpers.bundle_negation(ctx.q), ctx.affine_flip]
    maps += [ctx.S_maps.p, ctx.S_maps.zero, ctx.S_maps.lift, ctx.S_maps.flip]
    maps += [tangent_apply_functor(ctx.q), tangent_apply_functor(ctx.lam), ctx.h3_down, ctx.h4_down, to_horizontal(nabla), to_vertical(nabla)]
    pairs = [(g, f) for f in maps for g in maps if f.cod is g.dom]
    kinds = {(f._renaming is not None, g._renaming is not None) for g, f in pairs}
    assert {(True, True), (True, False), (False, True)} <= kinds
    renamed = [f._renaming for _, f in pairs if f._renaming is not None]
    assert any(slot is None for table in renamed for slot in table)  # a zero image
    assert any(slot is not None and slot[1] != 1 for table in renamed for slot in table)  # a negated one
    _composed_as_applied(pairs, monkeypatch)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_compositions_after_random_renamings_equal_applied_images(field, monkeypatch):
    rng = random.Random(2020 + field.char)
    dom, cod = _rings(field)
    far = make_algebra(field, ("s", "t"))
    pairs = []
    for _ in range(100):
        f = _random_renaming(rng, dom, cod)
        if rng.random() < 0.5:
            g = _random_renaming(rng, cod, far)
        else:  # a general map: sums and products, so no table
            g = AlgebraMorphism(cod, far, {y: _random_poly(rng, far, 3) for y in cod.gens}, certify=False)
        pairs.append((g, f))
    assert any(g._renaming is None for g, _ in pairs) and any(g._renaming is not None for g, _ in pairs)
    _composed_as_applied(pairs, monkeypatch)
    # the reverse order (f a general map) goes through apply_raw
    general = AlgebraMorphism(dom, cod, {x: _random_poly(rng, cod, 3) for x in dom.gens}, certify=False)
    _composed_as_applied([(_random_renaming(rng, cod, far), general)], monkeypatch)


def test_compositions_over_other_rings_apply_as_before():
    dom, cod = _rings(QQ)
    far = make_algebra(QQ, ("s", "t"))
    g = relabel(cod, far, {"a": "s", "b": "-t", "c": None}, certify=False)
    # images over an equal ring built apart: composed through apply_raw, same result
    apart = tuple(list(cod.gens))
    f = AlgebraMorphism(dom, cod, {x: Polynomial.variable(QQ, apart, y) for x, y in zip(dom.gens, "abcab")}, certify=False)
    assert f._renaming is not None
    h = compose_morphisms(g, f)
    for x, p in f.images.items():
        assert _items(h.images[x]) == _items(g.apply_raw(p))
    # a map into another field is refused when it is built, so none composes
    far3 = make_algebra(GF(3), ("s", "t"))
    with pytest.raises(ValueError, match=r"^morphism: domain over QQ, codomain over GF\(3\)$"):
        AlgebraMorphism(cod, far3, {y: Polynomial.variable(GF(3), far3.gens, "s") for y in cod.gens}, certify=False)
