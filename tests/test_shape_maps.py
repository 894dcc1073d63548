"""The three module-to-bundle correspondences of a bundle context, written
and read by `tangent.ShapeMap`, against the hand-written loops in
`tests/oracles.py`: Omega(A) (x) M in T(A) (x)_A S_A(M), psi/phi for
curvature in T^2(S_A(M)) and psi-hat/phi-hat for torsion in T(S_A(Omega)).
`ShapeMap.proves_zero`, the certificate that only reads, is checked against
normal forms in each bundle presentation.

Raw polynomials are drawn with random base parts and random non-base
products: the exact shapes, their diagonals, mixed sorts and squares, many
of them above the grade cap of the presentation they live in.
"""

import random
from types import SimpleNamespace

import pytest

import oracles
from kcx.algebra import make_algebra
from kcx.errors import ModuleNotKahler
from kcx.fields import GF, QQ
from kcx.modules import free_module, kahler_module, make_module
from kcx.poly import Polynomial
from kcx.tangent import bundle_context


def modules(plane, circle, sphere2):
    """Kahler, free and presented modules over QQ and GF(3)."""
    circle3 = make_algebra(GF(3), ("x", "y"), ["x^2 + y^2 - 1"])
    out = [kahler_module(A) for A in (plane, circle, sphere2, circle3)]
    for A in (circle, circle3):
        out += [free_module(A, 2), make_module(A, ("u", "v"), [["x", "y"]])]
    return out


def random_base_poly(rng, A, terms: int = 3) -> Polynomial:
    out = {}
    for _ in range(terms):
        out[tuple(rng.randint(0, 2) for _ in A.gens)] = rng.randint(-3, 3)
    return Polynomial(A.field, A.gens, out)


def random_element(rng, module):
    return module.combine((rng.randrange(module.rank), random_base_poly(rng, module.base)) for _ in range(3))


def random_raw(rng, P, base, products, terms: int = 10, shaped: float = 0.6) -> Polynomial:
    """Terms of random base part (generators of P that `base` renames) times
    a random product: one of `products` with probability `shaped`, else 0-3
    random non-base generators."""
    free = [g for g in P.gens if g not in base]
    out = {}
    for _ in range(terms):
        exp = {g: rng.randint(0, 2) if g in base else 0 for g in P.gens}
        names = rng.choice(products) if rng.random() < shaped else rng.choices(free, k=rng.randint(0, 3))
        for g in names:
            exp[g] += 1
        out[tuple(exp[g] for g in P.gens)] = rng.randint(-3, 3)
    return Polynomial(P.field, P.gens, out)


def omega_m_products(ctx):
    d = [f"{ctx.TA.dmap[x]}#0" for x in ctx.A.gens]
    return [(di, f"{m}#1") for di in d for m in ctx.M.gens]


def curvature_products(ctx):
    """m d(x_i) d'(x_j) for every i and j, the diagonal included."""
    d, dp = ctx.TS.dmap, ctx.S_maps.TTA.dmap
    return [(m, d[x], dp[y]) for m in ctx.M.gens for x in ctx.A.gens for y in ctx.A.gens]


def torsion_products(ctx):
    """m_i d(x_j) for every i and j, the diagonal included."""
    return [(m, ctx.TS.dmap[x]) for m in ctx.M.gens for x in ctx.A.gens]


def test_omega_m_shapes_match_the_hand_written_loops(plane, circle, sphere2):
    rng = random.Random(1601)
    for M in modules(plane, circle, sphere2):
        ctx = bundle_context(M)
        shapes, T, target = ctx.omega_m_shapes, ctx.TAS, ctx.omega_tensor_M
        for _ in range(4):
            e = random_element(rng, target)
            assert shapes.write(e) == oracles.omega_m_to_tensor_algebra(ctx, e)
        back = {f"{g}#1": g for g in ctx.A.gens}
        d_pos = {f"{ctx.TA.dmap[g]}#0": i for i, g in enumerate(ctx.A.gens)}
        m_pos = {f"{m}#1": l for l, m in enumerate(M.gens)}
        for _ in range(6):
            p = random_raw(rng, T, back, omega_m_products(ctx))
            found, stray = oracles.split_shapes(T, p, ("d", "module"), ctx.A.gens, back)
            expected = target.combine((target.pair_index(d_pos[d], m_pos[m]), c) for (d, m), c in found)
            assert shapes.read(p) == (expected, stray)
        # within the grade cap: the reading of a normal form
        within = omega_m_products(ctx) + [(g,) for g in d_pos] + [(g,) for g in m_pos] + [()]
        for _ in range(4):
            p = random_raw(rng, T, back, within, terms=4, shaped=1)
            assert shapes.read(T.element(p)) == oracles.tensor_algebra_to_omega_m(ctx, p)


def check_wedge_reading(shapes, p, expected, project):
    """phi(p) is the oracle's, and the stray rest is exactly what phi leaves:
    nothing in it is read, and everything else is."""
    element, stray = shapes.read(p)
    assert element == expected
    assert shapes.read(stray) == (shapes.module.zero(), stray)
    assert project(stray).is_zero()
    assert shapes.read(p - stray)[1].is_zero()
    assert all(p.terms[e] == c for e, c in stray.terms.items())


def test_curvature_shapes_match_psi_and_phi(plane, circle, sphere2):
    rng = random.Random(1602)
    read = strays = 0
    for M in modules(plane, circle, sphere2):
        ctx = bundle_context(M)
        nabla = SimpleNamespace(ctx=ctx, base=ctx.A, module=M)
        shapes = ctx.curvature_shapes
        for _ in range(4):
            w = random_element(rng, shapes.module)
            assert shapes.write(w) == oracles.embed_wedge_curvature(nabla, w)
        project = lambda p: oracles.project_wedge_curvature(nabla, p)
        for _ in range(6):
            p = random_raw(rng, ctx.S_maps.TTA, {x: x for x in ctx.A.gens}, curvature_products(ctx))
            check_wedge_reading(shapes, p, project(p), project)
            element, stray = shapes.read(p)
            read += not element.is_zero()
            strays += not stray.is_zero()
    assert read >= 10 and strays >= 40


def test_torsion_shapes_match_psi_hat_and_phi_hat(plane, circle, sphere2):
    rng = random.Random(1603)
    for M in modules(plane, circle, sphere2):
        if M.provenance != "kahler":
            continue
        ctx = bundle_context(M)
        nabla = SimpleNamespace(ctx=ctx, base=ctx.A, module=M)
        shapes = ctx.torsion_shapes
        for _ in range(4):
            w = random_element(rng, shapes.module)
            assert shapes.write(w) == oracles.embed_wedge_torsion(nabla, w)
        project = lambda p: oracles.project_wedge_torsion(nabla, p)
        for _ in range(6):
            p = random_raw(rng, ctx.TS, {x: x for x in ctx.A.gens}, torsion_products(ctx))
            check_wedge_reading(shapes, p, project(p), project)


@pytest.mark.parametrize("name, factor", [("omega_m_shapes", 1), ("curvature_shapes", 2), ("torsion_shapes", 2)])
def test_read_after_write_is_the_generator_once_or_twice(plane, circle, sphere2, name, factor):
    rng = random.Random(1604)
    for M in modules(plane, circle, sphere2):
        if name == "torsion_shapes" and M.provenance != "kahler":
            continue
        shapes = getattr(bundle_context(M), name)
        zero = Polynomial.zero(shapes.P.field, shapes.P.gens)
        elements = [shapes.module.gen(g) for g in shapes.module.gens]
        for e in elements + [random_element(rng, shapes.module) for _ in range(3)]:
            assert shapes.read(shapes.write(e)) == (e.scaled(factor), zero)


def test_write_refuses_an_element_of_another_module(plane):
    ctx = bundle_context(kahler_module(plane))
    for shapes, other in (
        (ctx.omega_m_shapes, ctx.curvature_shapes.module),
        (ctx.curvature_shapes, ctx.omega_m_shapes.module),
        (ctx.torsion_shapes, ctx.omega_m_shapes.module),
    ):
        with pytest.raises(ValueError, match="different module"):
            shapes.write(other.gen(other.gens[0]))


def test_torsion_shapes_need_the_differentials_module(circle):
    for M in (free_module(circle, 2), make_module(circle, ("u", "v"), [["x", "y"]])):
        with pytest.raises(ModuleNotKahler):
            bundle_context(M).torsion_shapes


def shape_maps(field):
    """All three shape maps of Kahler, free and presented modules over a circle."""
    circle = make_algebra(field, ("x", "y"), ["x^2 + y^2 - 1"])
    out = []
    for M in (kahler_module(circle), free_module(circle, 2), make_module(circle, ("u", "v"), [["x", "y"]])):
        ctx = bundle_context(M)
        out += [ctx.omega_m_shapes, ctx.curvature_shapes] + ([ctx.torsion_shapes] if M.provenance == "kahler" else [])
    return out


def zero_terms(rng, module) -> list:
    """Raw (k, p) terms that combine to zero: multiples of relation rows, of
    the base ideal at each position, and a term split three ways."""
    A = module.base
    ideal_rows = [[r if i == k else 0 for i in range(module.rank)] for r in A.relations for k in range(module.rank)]
    rows = [*module.relations, *ideal_rows]
    terms = []
    for _ in range(3):
        row, c = rng.choice(rows), random_base_poly(rng, A)
        terms += [(k, c * p) for k, p in enumerate(row) if p]
    k, p, q = rng.randrange(module.rank), random_base_poly(rng, A), random_base_poly(rng, A)
    return terms + [(k, p), (k, q), (k, -(p + q))]


@pytest.mark.parametrize("field", [QQ, GF(3), GF(2)], ids=repr)
def test_proves_zero_reads_writes_of_zero_and_refuses_the_rest(field):
    rng = random.Random(3011)
    for shapes in shape_maps(field):
        P, module = shapes.P, shapes.module
        for _ in range(3):
            terms = zero_terms(rng, module)
            assert module.combine(terms).is_zero()
            zero = shapes.write_raw(terms)
            assert shapes.proves_zero(zero) and P.element(zero).is_zero(), (module, terms)
            k = rng.randrange(module.rank)
            unit = Polynomial.const(module.base.field, module.base.gens, 1)
            shape_terms = shapes.write_raw([(k, unit)]).terms
            # a stray monomial: the square of a shape product
            stray = Polynomial(P.field, P.gens, {tuple(2 * e for e in next(iter(shape_terms))): 1})
            assert not shapes.proves_zero(zero + stray)
            # one shape of a generator without the other
            if len(shape_terms) == 2:
                one_shape = Polynomial(P.field, P.gens, dict([next(iter(shape_terms.items()))]))
                assert not shapes.proves_zero(zero + one_shape)
            # terms that combine to a nonzero element
            if not module.gen(module.gens[k]).is_zero():
                assert not shapes.proves_zero(shapes.write_raw([*terms, (k, unit)]))
