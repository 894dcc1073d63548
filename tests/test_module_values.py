"""Module values built once: `PresentedModule.combine` against the chain oracles.

Each value the checks read (Leibniz images and residues, curvature, pullback
and retract images, the P^1 glue residues) is a sum of raw representatives
reduced once.  A reduced basis gives every class one normal form, so these
must equal, component for component, the values built as chains of `pair`,
`scaled` and `+` with every link reduced.
"""

import random

import pytest

from kcx.algebra import localize, make_algebra, make_morphism
from kcx.connections import Connection, apply_connection, connection_residues, make_connection
from kcx.connections import pullback_connection, retract_connection
from kcx.curvature import curvature_of_element
from kcx.fields import GF, QQ
from kcx.groebner import ModuleBasis
from kcx.modules import ModuleMorphism, christoffel_target, free_module, kahler_module, make_module
from kcx.poly import Polynomial
from kcx.solve import _glue_residues, kahler_map, localized_gamma, solve_connection_space

from helpers import random_admissible_gamma
from oracles import (
    chain_curvature_of_element,
    chain_glue_residues,
    chain_leibniz,
    chain_pullback_images,
    chain_retract_images,
    quotient_rule_gamma,
)

FIELDS = (QQ, GF(3))


def algebras(F):
    return {
        "plane": make_algebra(F, ("x1", "x2")),
        "circle": make_algebra(F, ("x", "y"), ["x^2 + y^2 - 1"]),
        "S^2": make_algebra(F, ("x1", "x2", "x3"), ["x1^2 + x2^2 + x3^2 - 1"]),
        "fat point": make_algebra(F, ("x",), ["x^2"]),
    }


def modules(F):
    """Kahler modules of the four algebras and one presented module."""
    alg = algebras(F)
    out = {label: kahler_module(A) for label, A in alg.items()}
    out["presented"] = make_module(alg["circle"], ("u", "v"), [["x", "y"]])
    return out


def random_poly(rng: random.Random, A, terms: int = 3, degree: int = 2) -> Polynomial:
    exps = [tuple(rng.randint(0, degree) for _ in A.gens) for _ in range(terms)]
    return Polynomial(A.field, A.gens, {e: rng.randint(-3, 3) for e in exps})


def random_gamma(rng: random.Random, M) -> dict:
    """Christoffel data with random components; admissible only when M is free."""
    target = christoffel_target(M)
    return {g: target.element([random_poly(rng, M.base) for _ in target.gens]) for g in M.gens}


def random_element(rng: random.Random, M):
    return M.element([random_poly(rng, M.base) for _ in M.gens])


# ---------------------------------------------------------------------------
# the writer itself
# ---------------------------------------------------------------------------


def test_combine_adds_repeated_indices(circle):
    omega = kahler_module(circle)
    x = Polynomial.variable(circle.field, circle.gens, "x")
    e = omega.combine([(0, x), (1, x * x), (0, x.scale(2))])
    assert e == omega.element(["3*x", "x^2"])


def test_combine_cancelling_terms_give_zero(circle):
    T = christoffel_target(kahler_module(circle))
    y = Polynomial.variable(circle.field, circle.gens, "y")
    assert T.combine([(2, y), (3, y * y), (2, -y), (3, -(y * y))]).is_zero()
    # 2x d(x) + 2y d(y) is the Kahler relation: raw, it reduces to zero
    omega = kahler_module(circle)
    x = Polynomial.variable(circle.field, circle.gens, "x")
    assert omega.combine([(0, x.scale(2)), (1, y.scale(2))]).is_zero()


def test_combine_of_no_terms_is_zero(circle):
    omega = kahler_module(circle)
    assert omega.combine([]) == omega.zero()
    assert omega.combine(iter(())).is_zero()


def test_combine_refuses_a_component_over_another_ring(circle, plane):
    omega = kahler_module(circle)
    with pytest.raises(ValueError):
        omega.combine([(0, Polynomial.variable(plane.field, plane.gens, "x1"))])


def test_one_apply_connection_call_makes_one_module_normal_form(circle, monkeypatch):
    M = kahler_module(circle)
    nabla = Connection(M, random_gamma(random.Random(5), M))
    e = random_element(random.Random(6), M)
    christoffel_target(M).lifted  # build the basis before counting
    calls = []
    normal_form = ModuleBasis.normal_form

    def counting(self, v):
        calls.append(self)
        return normal_form(self, v)

    monkeypatch.setattr(ModuleBasis, "normal_form", counting)
    apply_connection(nabla, e)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the values against the chain oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_leibniz_values_match_the_chain(F):
    rng = random.Random(1401 + F.char)
    for label, M in modules(F).items():
        target = christoffel_target(M)
        for _ in range(3):
            gamma = random_gamma(rng, M)
            nabla = Connection(M, gamma)
            for e in [M.gen(g) for g in M.gens] + [random_element(rng, M) for _ in range(3)]:
                assert apply_connection(nabla, e).comps == chain_leibniz(M, target, e.comps, gamma).comps, label
            for row, residue in connection_residues(M, gamma):
                assert residue.comps == chain_leibniz(M, target, row, gamma).comps, label


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_curvature_matches_the_chain(F):
    rng = random.Random(1402 + F.char)
    checked = 0
    for label, M in modules(F).items():
        gamma = random_gamma(rng, M) if not M.relations else random_admissible_gamma(rng, M)
        if gamma is None:
            continue  # the fat point has no connection
        nabla = make_connection(M, gamma)
        for e in [M.gen(g) for g in M.gens] + [random_element(rng, M) for _ in range(2)]:
            assert curvature_of_element(nabla, e).comps == chain_curvature_of_element(nabla, e).comps, label
        checked += 1
    assert checked == 4


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_pullback_images_match_the_chain(F):
    rng = random.Random(1403 + F.char)
    alg = algebras(F)
    plane, circle, sphere, fat = alg["plane"], alg["circle"], alg["S^2"], alg["fat point"]
    maps = [
        make_morphism(plane, circle, {"x1": "x", "x2": "y"}),
        make_morphism(plane, sphere, {"x1": "x1 - x3", "x2": "x2*x3 + 1"}),
        make_morphism(plane, fat, {"x1": "x", "x2": "x + 2"}),
        make_morphism(circle, circle, {"x": "y", "y": "-x"}),
    ]
    for f in maps:
        A = f.dom
        row = ["x", "y"] if A is circle else ["1", A.gens[0]]  # each has connections
        cases = [free_module(A, 2), kahler_module(A), make_module(A, ("u", "v"), [row])]
        for M in cases:
            gamma = random_gamma(rng, M) if not M.relations else random_admissible_gamma(rng, M)
            nabla = make_connection(M, gamma)
            pulled = pullback_connection(nabla, f)
            expected = chain_pullback_images(nabla, f)
            assert all(pulled.gamma[g].comps == expected[g].comps for g in M.gens), (f.cod, M)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_retract_images_match_the_chain(F):
    rng = random.Random(1404 + F.char)
    alg = algebras(F)
    splittings = []
    circle = alg["circle"]
    omega, fr = kahler_module(circle), free_module(circle, 2)
    s = ModuleMorphism(omega, fr, {"d(x)": fr.element(["y^2", "-x*y"]), "d(y)": fr.element(["-x*y", "x^2"])})
    r = ModuleMorphism(fr, omega, {"e1": omega.gen("d(x)"), "e2": omega.gen("d(y)")})
    splittings.append((s, r))
    sphere = alg["S^2"]
    omega, fr = kahler_module(sphere), free_module(sphere, 3)
    xs = sphere.gens
    s_images = {
        omega.gens[i]: fr.element([f"{int(i == j)} - {xs[i]}*{xs[j]}" for j in range(3)]) for i in range(3)
    }
    s = ModuleMorphism(omega, fr, s_images)
    r = ModuleMorphism(fr, omega, {e: omega.gen(d) for e, d in zip(fr.gens, omega.gens)})
    splittings.append((s, r))
    for s, r in splittings:
        for _ in range(2):
            nabla = make_connection(s.cod, random_gamma(rng, s.cod))
            retracted = retract_connection(nabla, s, r)
            expected = chain_retract_images(nabla, s, r)
            assert all(retracted.gamma[g].comps == expected[g].comps for g in s.dom.gens)
    # the identity splitting of an admissible connection on a presented module
    M = make_module(circle, ("u", "v"), [["x", "y"]])
    nabla = make_connection(M, random_admissible_gamma(rng, M))
    ident = ModuleMorphism(M, M, {g: M.gen(g) for g in M.gens})
    expected = chain_retract_images(nabla, ident, ident)
    assert all(retract_connection(nabla, ident, ident).gamma[g].comps == expected[g].comps for g in M.gens)


@pytest.mark.parametrize("F", (QQ, GF(2), GF(3), GF(5)), ids=str)
def test_localized_gamma_is_the_quotient_rule_term_for_term(F):
    """The Leibniz image of d(x_inv) = -x_inv^2 d(x) is the normal form of the
    hand-derived quotient rule, on Omega(k[x]) and Omega(k[x, y]) at x."""
    rng = random.Random(1406 + F.char)
    nonzero = 0
    for A in (make_algebra(F, ("x",)), make_algebra(F, ("x", "y"))):
        L = localize(A, "x")
        for _ in range(8):
            gamma = random_gamma(rng, kahler_module(A))
            ours, want = localized_gamma(L, gamma), quotient_rule_gamma(L, gamma)
            assert list(ours) == list(want) == list(kahler_module(L).gens)
            for g in ours:
                assert [c.terms for c in ours[g].comps] == [c.terms for c in want[g].comps], (A.gens, g)
            nonzero += not ours[kahler_module(L).gens[-1]].is_zero()
    assert nonzero > 8  # most draws give d(x_inv) a nonzero image


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_p1_glue_residues_match_the_chain(F):
    rng = random.Random(1405 + F.char)
    A1, A2 = make_algebra(F, ("x",)), make_algebra(F, ("y",))
    L1, L2 = localize(A1, "x"), localize(A2, "y")
    t = make_morphism(L1, L2, {"x": "y_inv", "x_inv": "y"}, name="t")
    omega_t = kahler_map(t)
    for _ in range(4):
        gammas = [random_gamma(rng, kahler_module(A)) for A in (A1, A2)]
        ours = _glue_residues(t, omega_t, *gammas)
        expected = chain_glue_residues(A1, L1, A2, L2, t, omega_t, *gammas)
        assert [r.comps for r in ours] == [r.comps for r in expected]
