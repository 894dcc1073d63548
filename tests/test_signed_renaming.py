"""Signed renamings applied by moving exponents.

An `AlgebraMorphism` whose every image is zero or c*y for one codomain
generator y applies itself to polynomials over its own domain ring with
`Polynomial.move_exponents`; every other input goes through `substitute`.
The two must give the same term dict, insertion order included, so these
tests compare them on random polynomials and random tables over QQ, GF(2)
and GF(3), and check that every other input behaves as `substitute` does.
"""

import random
from fractions import Fraction

import pytest

from kcx.algebra import AlgebraMorphism, make_algebra, relabel
from kcx.connections import to_horizontal
from kcx.fields import GF, QQ, Field
from kcx.poly import Polynomial

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
    maps = [ctx.U, ctx.lam, ctx.q, ctx.z, ctx.iota, ctx.p_S, ctx.zero_S, ctx.lift_S, ctx.flip_S, ctx.affine_flip]
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
    summing = relabel(dom, cod, {"x0": ("a", "b"), "x1": "b", "x2": "c", "x3": "c", "x4": "a"}, certify=False)
    assert summing._renaming is None
    summing.apply_raw(p)
    assert calls == [p]

    # an equal ring built apart takes the general path, with the same result
    apart = Polynomial(QQ, tuple(list(dom.gens)), p.terms)
    assert apart.vars == dom.gens and apart.vars is not dom.gens
    assert _items(renaming.apply_raw(apart)) == _items(fast)
    assert calls[-1] is apart
    same_char = Polynomial(Field(0), dom.gens, p.terms)
    assert _items(renaming.apply_raw(same_char)) == _items(fast)
    assert calls[-1] is same_char


def test_missing_images_and_foreign_rings_fail_as_before():
    dom, cod = _rings(QQ)
    renaming = relabel(dom, cod, {"x0": "a", "x1": "-b", "x2": None, "x3": "c", "x4": "a"}, certify=False)
    wider = dom.gens + ("z",)
    with pytest.raises(KeyError, match="no image for variable 'z'"):
        renaming.apply_raw(Polynomial.variable(QQ, wider, "z"))
    with pytest.raises(ValueError, match="polynomials live in different rings"):
        renaming.apply_raw(Polynomial.variable(GF(3), dom.gens, "x0"))
    # a map between rings over different fields keeps no table
    dom3 = make_algebra(GF(3), dom.gens)
    across = AlgebraMorphism(dom3, cod, {g: Polynomial.variable(QQ, cod.gens, "a") for g in dom3.gens}, certify=False)
    assert across._renaming is None
    with pytest.raises(ValueError, match="polynomials live in different rings"):
        across.apply_raw(Polynomial.variable(GF(3), dom3.gens, "x0"))


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
    apart = {g: Polynomial.variable(GF(3), tuple(list(cod.gens)), "b") for g in dom.gens}
    AlgebraMorphism(dom, cod, apart, certify=False)  # equal rings built apart still pass
    assert compared
    with pytest.raises(ValueError, match="not in the codomain ring"):
        AlgebraMorphism(dom, cod, {**images, "x0": Polynomial.variable(GF(2), cod.gens, "b")}, certify=False)
