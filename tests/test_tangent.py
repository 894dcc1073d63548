import gc
import random
import weakref

import pytest

from kcx import gallery
from kcx.algebra import AlgebraMorphism, PresentedAlgebra, compose_chain, compose_morphisms, identity_morphism, localize
from kcx.algebra import make_algebra, make_morphism
from kcx.connections import connection_equal, free_canonical_connection, from_horizontal, to_horizontal, to_vertical
from kcx.connections import make_connection
from kcx.connections import verify_connection_axioms
from kcx.connections import verify_horizontal_axioms, verify_vertical_axioms
from kcx.curvature import check_curvature_correspondence, check_torsion_correspondence
from kcx.curvature import module_curvature, module_torsion
from kcx.dualnum import dual_numbers_structure
from kcx.errors import BaseMismatch, BracketingConditionFailure, WellDefinednessFailure
from kcx.fields import GF, QQ
from kcx.groebner import IdealBasis
from kcx.modules import free_module, kahler_module, make_module
from kcx.poly import Polynomial
from kcx.tangent import (
    bracketing,
    bundle_combine,
    bundle_context,
    tangent_algebra,
    tangent_apply_functor,
    tangent_structure_maps,
)

import helpers
from oracles import bidegree_split, leibniz_tensor_presentation, partial_differential
from oracles import role_kind_lambda_table, role_kind_lift_table, signed_images


def axiom_maps(ctx) -> list[AlgebraMorphism]:
    """The maps the axiom checks share: S_A(M)'s p, 0 and l from its tangent
    structure, T(q) and T(lambda), kept on q and lambda, and h3_down and
    h4_down, built once per module on its bundle context."""
    S_maps = ctx.S_maps
    T_q, T_lam = tangent_apply_functor(ctx.q), tangent_apply_functor(ctx.lam)
    return [S_maps.p, S_maps.zero, T_q, S_maps.lift, T_lam, ctx.h3_down, ctx.h4_down]


# the maps of a tangent structure, each built on first use
STRUCTURE_MAPS = {"p", "zero", "lift", "flip"}


def test_tangent_plane_free(plane):
    T = tangent_algebra(plane)
    assert set(T.gens) == {"x1", "x2", "d_x1", "d_x2"}
    assert T.relations == ()


def random_polynomial(rng: random.Random, field, gens, terms: int = 6) -> Polynomial:
    """Seeded polynomial with exponents up to 6, so over GF(2) and GF(3) many
    exponents are multiples of p and their terms differentiate to zero."""
    exps = [tuple(rng.choice((0, 0, 1, 2, 3, 4, 6)) for _ in gens) for _ in range(terms)]
    return Polynomial(field, gens, {e: rng.randint(-5, 5) for e in exps})


def test_differential_matches_the_sum_of_partials():
    rng = random.Random(1313)
    vanished = 0
    for field in (QQ, GF(2), GF(3), GF(32003)):
        for gens, rels in ((("x", "y", "z"), []), (("x", "y"), ["x^2 + y^2 - 1"])):
            T = tangent_algebra(make_algebra(field, gens, rels))
            for _ in range(40):
                p = random_polynomial(rng, field, gens)
                got = T.differential(p)
                assert got.terms == partial_differential(T, p).terms, (field, p.render())
                vanished += sum(1 for e in p.terms for k in e if k and not field.of(k))
    assert vanished > 0
    with pytest.raises(ValueError):
        T.differential(Polynomial.variable(QQ, ("x", "y"), "x"))  # GF(32003) presentation


def test_differential_matches_the_sum_of_partials_on_gallery_relations():
    for A in (gallery.plane_algebra(), gallery.circle_algebra(), gallery.sphere_algebra(),
              gallery.elliptic_algebra(), gallery.fat_point_algebra()):
        ctx = bundle_context(kahler_module(A))
        for T in (tangent_algebra(A), tangent_algebra(tangent_algebra(A)), ctx.TS, ctx.S_maps.TTA):
            for r in T.source.relations:
                assert T.differential(r).terms == partial_differential(T, r).terms


def test_tangent_circle_relations(circle):
    T = tangent_algebra(circle)
    assert T.element("x^2 + y^2 - 1").is_zero()
    assert T.element("2*x*d_x + 2*y*d_y").is_zero()
    assert not T.element("d_x").is_zero()


def test_double_tangent_roles(circle):
    T2 = tangent_algebra(tangent_algebra(circle))
    kinds = {T2.roles[g].kind for g in T2.gens}
    assert kinds == {"base", "d", "dp", "dpd"}
    assert "dpd_x" in T2.gens and "dp_x" in T2.gens


def test_structure_map_values(plane):
    maps = tangent_structure_maps(plane)
    T, T2 = maps.TA, maps.TTA
    assert maps.lift(T2.gen("dpd_x1")) == T.gen("d_x1")
    assert maps.lift(T2.gen("d_x1")).is_zero()
    assert maps.lift(T2.gen("dp_x1")).is_zero()
    assert maps.flip(T2.gen("d_x1")) == T2.gen("dp_x1")
    assert maps.flip(T2.gen("dpd_x1")) == T2.gen("dpd_x1")


def test_flip_is_involution(circle):
    maps = tangent_structure_maps(circle)
    assert compose_morphisms(maps.flip, maps.flip) == identity_morphism(maps.TTA)


def test_projection_zero_identity(circle):
    maps = tangent_structure_maps(circle)
    assert compose_morphisms(maps.zero, maps.p) == identity_morphism(circle)


def test_plus_and_tau_certified(circle):
    maps = tangent_structure_maps(circle)
    plus = helpers.fibrewise_sum(maps.p, "+")
    tau = helpers.tangent_tau(plus)
    assert plus.certified and tau.certified and helpers.tangent_minus(maps).certified
    # tau swaps the two copies
    d0 = plus.cod.i0(maps.TA.gen("d_x"))
    d1 = plus.cod.i1(maps.TA.gen("d_x"))
    assert tau(d0) == d1


def test_structure_maps_certified_on_gallery(plane, circle, fat_point, elliptic, sphere2):
    for A in (plane, circle, fat_point, elliptic, sphere2):
        maps = tangent_structure_maps(A)
        plus = helpers.fibrewise_sum(maps.p, "+")
        minus, tau = helpers.tangent_minus(maps), helpers.tangent_tau(plus)
        for m in (maps.p, maps.zero, plus, minus, maps.lift, maps.flip, tau):
            assert m.certified


def test_shared_structure_map_builders(plane, circle, fat_point, sphere2):
    """A bundle context reads the tangent structures of A, S_A(M) and T(A)
    themselves: one object per algebra, each map built once."""
    for A in (plane, circle, fat_point, sphere2):
        maps = tangent_structure_maps(A)
        M = kahler_module(A)
        ctx = bundle_context(M)
        assert ctx.A_maps is maps and ctx.S_maps is tangent_structure_maps(ctx.S)
        assert ctx.TA is maps.TA and ctx.TS is ctx.S_maps.TA
        assert ctx.TAS.factors == (maps.TA, ctx.S)
        assert tangent_structure_maps(maps.TA).TA is maps.TTA
        assert ctx.curvature_shapes.P is ctx.S_maps.TTA
        for B, T in ((A, maps), (ctx.S, ctx.S_maps)):
            assert {g for g in T.TA.gens if T.zero.image_of(g).is_zero()} == set(T.TA.dmap.values())
            assert T.zero.cod is B and T.lift.cod is T.TA and T.flip.dom is T.TTA
        assert {g for g in ctx.S.gens if ctx.z.image_of(g).is_zero()} == set(M.gens)
        assert all(m.certified for m in axiom_maps(ctx))
        dn = dual_numbers_structure(A)
        dual_maps = (dn.p, dn.zero, helpers.dual_plus(dn), helpers.dual_minus(dn), dn.lift, dn.flip)
        assert all(m.certified for m in dual_maps)


def test_sym_bundle_basics(circle):
    omega = kahler_module(circle)
    b = bundle_context(omega)
    row = b.S.gen("x") * b.S.gen("d(x)") * 2 + b.S.gen("y") * b.S.gen("d(y)") * 2
    assert row.is_zero()
    assert b.z(b.S.gen("d(x)")).is_zero()
    iota = helpers.bundle_negation(b.q)
    assert iota(b.S.gen("d(x)")) == -b.S.gen("d(x)")
    assert b.q(circle.gen("x")) == b.S.gen("x")
    for m in (b.q, b.z, iota, helpers.fibrewise_sum(b.q, "sigma"), b.lam):
        assert m.certified


def test_sym_bundle_zero_module(circle):
    zero_mod = free_module(circle, 0)
    b = bundle_context(zero_mod)
    assert b.S.gens == circle.gens


def test_lambda_values_and_lift_embedding(circle):
    omega = kahler_module(circle)
    b = bundle_context(omega)
    TS = b.TS
    assert b.lam(TS.gen("d_d(x)")) == b.S.gen("d(x)")
    assert b.lam(TS.gen("d_x")).is_zero()
    assert b.lam(TS.gen("d(x)")).is_zero()
    # The composite m -> lam(d(m)) is the identity embedding of the module.
    for m in omega.gens:
        assert b.lam(helpers.d(TS, b.S.gen(m))) == b.S.gen(m)


def assert_images_are_the_table(f, table):
    want = signed_images(f.dom.gens, f.cod, table)
    for g in f.dom.gens:
        assert f.images[g].vars == f.cod.gens and f.images[g].terms == want[g].terms, (f.name, g)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
def test_vertical_lifts_are_the_role_kind_tables(field):
    """l at A and at S_A(M), and lambda, built from T's dmap, against the
    tables read from generator roles, on seeded algebras and modules."""
    rng = random.Random(3607)
    for _ in range(3):
        gens = ("x", "y", "z")[: rng.randint(1, 3)]
        A = PresentedAlgebra(field, gens, [random_polynomial(rng, field, gens, 3)] * rng.randint(0, 1))
        rows = [[random_polynomial(rng, field, gens, 2) for _ in range(2)]]
        for M in (kahler_module(A), free_module(A, rng.randint(1, 2)), make_module(A, ("u", "v"), rows)):
            ctx = bundle_context(M)
            for maps in (tangent_structure_maps(A), ctx.S_maps):
                assert_images_are_the_table(maps.lift, role_kind_lift_table(maps))
            assert_images_are_the_table(ctx.lam, role_kind_lambda_table(ctx))


def test_derived_structures_die_with_their_algebra():
    A = make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])
    ctx = bundle_context(kahler_module(A))
    assert ctx.S_maps.TTA is tangent_algebra(ctx.TS)
    tangent_structure_maps(A)
    dead = weakref.ref(A)
    del A, ctx
    gc.collect()
    assert dead() is None  # no cache outside the algebra holds it


def test_each_axiom_suite_builds_only_the_maps_it_uses():
    A = make_algebra(QQ, ("x1", "x2"))
    nabla = free_canonical_connection(A, 1)
    ctx = nabla.ctx
    assert STRUCTURE_MAPS & set(vars(ctx.A_maps)) == {"p"}  # what the context itself builds
    assert not STRUCTURE_MAPS & set(vars(ctx.S_maps))
    assert verify_vertical_axioms(to_vertical(nabla), nabla.module).all_pass
    assert ctx.lam._memo and {"lift", "p"} <= set(vars(ctx.S_maps))  # T(lambda) is kept on lambda
    assert not {"h3_down", "h4_down"} & set(vars(ctx))
    assert "TTA" not in vars(ctx.A_maps)
    assert not ctx.TA._memo  # T(T(A)) was never built
    assert verify_horizontal_axioms(to_horizontal(nabla), nabla.module).all_pass
    assert {"h3_down", "h4_down"} <= set(vars(ctx)) and "TTA" in vars(ctx.A_maps)


def test_u_map_values(circle):
    omega = kahler_module(circle)
    ctx = bundle_context(omega)
    U = ctx.U
    T = ctx.TAS
    d_a = ctx.TA.gen("d_x")
    m = ctx.S.gen("d(y)")
    assert U(helpers.algebra_pair(T, d_a, 1)) == ctx.TS.gen("d_x")
    assert U(helpers.algebra_pair(T, 1, m)) == ctx.TS.gen("d(y)")
    assert U(helpers.algebra_pair(T, d_a, m)) == ctx.TS.gen("d(y)") * ctx.TS.gen("d_x")


def test_bracketing_accepts_lambda_like(circle):
    omega = kahler_module(circle)
    b = bundle_context(omega)
    lam_bracket = bracketing(b, b.lam)
    # {lambda}(m) = lambda(d(m)) = m
    for m in omega.gens:
        assert lam_bracket(b.S.gen(m)) == b.S.gen(m)


def test_bracketing_rejects_identity(circle):
    omega = kahler_module(circle)
    b = bundle_context(omega)
    with pytest.raises(BracketingConditionFailure):
        bracketing(b, identity_morphism(b.TS))


def test_bundle_combine(circle):
    omega = kahler_module(circle)
    b = bundle_context(omega)
    fibre = set(omega.gens)
    z_like = bundle_combine(identity_morphism(b.S), identity_morphism(b.S), "minus", fibre)
    for m in omega.gens:
        assert z_like(b.S.gen(m)).is_zero()
    assert z_like(b.S.gen("x")) == b.S.gen("x")
    # plus recovers doubling on module generators
    dbl = bundle_combine(identity_morphism(b.S), identity_morphism(b.S), "plus", fibre)
    assert dbl(b.S.gen("d(x)")) == b.S.gen("d(x)") * 2
    # disagreeing on a base generator is an error
    sq = AlgebraMorphism(b.S, b.S, {g: b.S.polynomial(b.S.gen(g) * b.S.gen(g)) for g in b.S.gens}, certify=False)
    with pytest.raises(BaseMismatch):
        bundle_combine(identity_morphism(b.S), sq, "minus", fibre)


def test_tangent_functor_identity_and_transition(circle):
    T_id = tangent_apply_functor(identity_morphism(circle))
    assert T_id == identity_morphism(tangent_algebra(circle))

    line1 = make_algebra(QQ, ("x",))
    line2 = make_algebra(QQ, ("y",))
    L1, L2 = localize(line1, "x"), localize(line2, "y")
    t = make_morphism(L1, L2, {"x": "y_inv", "x_inv": "y"}, name="t")
    Tt = tangent_apply_functor(t).certify()
    TL2 = tangent_algebra(L2)
    assert Tt(tangent_algebra(L1).gen("d_x")) == TL2.element("-y_inv^2*d_y")


def test_tangent_functor_composition(circle):
    f = make_morphism(circle, circle, {"x": "y", "y": "x"})
    g = make_morphism(circle, circle, {"x": "-x", "y": "-y"})
    lhs = tangent_apply_functor(compose_morphisms(g, f))
    rhs = compose_morphisms(tangent_apply_functor(g), tangent_apply_functor(f))
    assert lhs == rhs


def test_affine_flip_and_swap_certified(circle):
    omega = kahler_module(circle)
    ctx = bundle_context(omega)
    c = ctx.affine_flip
    assert c(ctx.TS.gen("d(x)")) == ctx.TS.gen("d_x")
    assert compose_morphisms(c, c) == identity_morphism(ctx.TS)
    tau = helpers.affine_swap(ctx)
    pair = helpers.algebra_pair
    assert tau(pair(ctx.TAS, ctx.TA.gen("d_x"), 1)) == pair(ctx.TAS, 1, ctx.S.gen("d(x)"))
    assert compose_morphisms(tau, tau) == identity_morphism(ctx.TAS)


def test_generic_flip_on_bundle_double_tangent(circle):
    omega = kahler_module(circle)
    ctx = bundle_context(omega)
    flip = ctx.S_maps.flip
    T2S = ctx.S_maps.TTA
    assert flip is tangent_structure_maps(ctx.S).flip and T2S is tangent_algebra(ctx.TS)
    assert flip.certified
    assert compose_morphisms(flip, flip) == identity_morphism(T2S)
    for m in omega.gens:  # the module sort's two levels swap, its mixed sort stays
        d, dp = ctx.TS.dmap[m], T2S.dmap[m]
        assert flip(T2S.gen(d)) == T2S.gen(dp) and flip(T2S.gen(dp)) == T2S.gen(d)
        assert flip(T2S.gen(T2S.dmap[d])) == T2S.gen(T2S.dmap[d])


def leibniz_cases(plane, circle, sphere2):
    presented = make_module(circle, ("u", "v"), [["x", "y"]])
    return [kahler_module(A) for A in (plane, circle, sphere2)] + [presented]


def test_leibniz_identification_is_the_tensor_recipe(plane, circle, sphere2):
    """T(T(A) (x)_A S) is T^2(A) (x)_{T(A)} T(S) on one copy of T(A).  The
    recipe shifts sorts (d_x -> dp_x), so it keeps both copies: it has the
    same generator names plus x#0 and dp_x#0, and with x#0 -> x#1 and
    dp_x#0 -> d_x#1 each one's relations reduce to zero in the other."""
    for M in leibniz_cases(plane, circle, sphere2):
        ctx = bundle_context(M)
        ours, recipe = tangent_algebra(ctx.TAS), leibniz_tensor_presentation(ctx)
        shared = {f"{x}#0": f"{x}#1" for x in ctx.A.gens}
        shared.update({f"{ctx.A_maps.TTA.dmap[x]}#0": f"{ctx.TS.dmap[x]}#1" for x in ctx.A.gens})
        assert set(ours.gens) == set(recipe.gens) - set(shared)
        for rel in ours.relations:
            assert recipe.element(rel.change_vars(recipe.gens)).is_zero(), (M, rel.render())
        for rel in recipe.relations:
            assert ours.element(rel.change_vars(ours.gens, shared)).is_zero(), (M, rel.render())


def test_h3_and_h4_right_hand_sides_are_certified(plane, circle, sphere2):
    presented = make_module(plane, ("u", "v"), [["1", "x1"]])
    connections = [
        free_canonical_connection(plane, 2),
        helpers.circle_canonical(circle),
        helpers.sphere_canonical(sphere2),
        make_connection(presented, {"u": {"d(x1)@v": -1}, "v": {}}),
    ]
    for nabla in connections:
        ctx, TH = nabla.ctx, tangent_apply_functor(to_horizontal(nabla))
        assert compose_chain([TH, ctx.h3_down]).certified
        assert compose_chain([TH, ctx.h4_down]).certified


def test_t_of_q_and_t_of_lambda_inherit_their_certificates(monkeypatch):
    """T(q) and T(lambda) carry the certificates of q and lambda
    (functoriality), so building them certifies nothing."""
    ctx = bundle_context(kahler_module(make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])))
    calls = helpers.record_certify_calls(monkeypatch)
    assert tangent_apply_functor(ctx.q).certified and tangent_apply_functor(ctx.lam).certified
    assert calls == []


def test_tensor_injections_are_certified_with_no_basis():
    """i0 and i1 send every relation of their factor to a relation of
    T(A) (x)_A S_A(M), so they are certified by matching, and maps composed
    through them (C.1's right-hand side) inherit it."""
    ctx = bundle_context(kahler_module(make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])))
    assert ctx.TAS.i0.certified and ctx.TAS.i1.certified
    assert compose_chain([ctx.z, ctx.q, ctx.TAS.i1]).certified
    assert "basis" not in vars(ctx.TAS)


def test_down_refuses_factors_that_disagree_on_the_tangent_of_the_base(circle):
    """T(T(A) (x)_A S) has one copy of T(A), so f0 (x) f1 needs f0 and f1 to
    agree there.  T(0) sends dp_x to d_x while the 0 of T(S) kills d_x: the
    pair disagrees on T(A)'s d_x.  The 0 of T(T(A)) kills dp_x and agrees."""
    ctx = bundle_context(kahler_module(circle))
    with pytest.raises(BaseMismatch) as err:
        ctx._down(tangent_apply_functor(ctx.A_maps.zero), ctx.S_maps.zero, "T(0)(x)0")
    assert (err.value.generator, err.value.left, err.value.right) == ("d_x", "d_x#0", "0")
    assert ctx._down(tangent_structure_maps(ctx.TA).zero, ctx.S_maps.zero, "0(x)0").certified


def test_dual_numbers_vs_module_presentation(fat_point):
    # S over an explicitly presented module matches S over the kahler module.
    omega = kahler_module(fat_point)
    explicit = make_module(fat_point, ("d(x)",), [["2*x"]])
    b1 = bundle_context(omega)
    b2 = bundle_context(explicit)
    assert b1.S.gens == b2.S.gens
    assert b1.S.relations == b2.S.relations


# ---------------------------------------------------------------------------
# certification by relation matching
# ---------------------------------------------------------------------------


def every_structure_map(A, M) -> list[AlgebraMorphism]:
    """The tangent, dual-numbers, bundle, axiom, flip and swap maps over A and M."""
    tm = tangent_structure_maps(A)
    dn = dual_numbers_structure(A)
    ctx = bundle_context(M)
    plus = helpers.fibrewise_sum(tm.p, "+")
    maps = [tm.p, tm.zero, plus, helpers.tangent_minus(tm), tm.lift, tm.flip, helpers.tangent_tau(plus)]
    maps += [dn.p, dn.zero, helpers.dual_plus(dn), helpers.dual_minus(dn), dn.lift, dn.flip]
    sigma = helpers.fibrewise_sum(ctx.q, "sigma")
    maps += [ctx.q, ctx.z, helpers.bundle_negation(ctx.q), sigma, ctx.lam, ctx.A_maps.p, ctx.U, ctx.S_maps.flip]
    maps += axiom_maps(ctx)
    if M.provenance == "kahler":
        maps += [ctx.affine_flip, helpers.affine_swap(ctx)]
    return maps


def matched(m: AlgebraMorphism) -> bool:
    """Whether every raw relation image is zero or a codomain relation up to sign."""
    known = m.cod.signed_relations
    return all(p.is_zero() or p in known for p in map(m.apply_raw, m.dom.relations))


def test_maps_certified_by_matching_have_zero_certificates():
    algebras = {
        "plane": make_algebra(QQ, ("x1", "x2")),
        "circle": make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"]),
        "fat point": make_algebra(QQ, ("x",), ["x^2"]),
        "S^2": make_algebra(QQ, ("x1", "x2", "x3"), ["x1^2 + x2^2 + x3^2 - 1"]),
    }
    by_matching = reduced = 0
    for label, A in algebras.items():
        x = A.gens[0]
        modules = (kahler_module(A), free_module(A, 2), make_module(A, ("u", "v"), [[x, "1"]]))
        for M in modules:
            for m in every_structure_map(A, M):
                if not matched(m):
                    reduced += 1
                    continue
                by_matching += 1
                again = AlgebraMorphism(m.dom, m.cod, m.images, name=m.name)
                assert again.certified
                assert all(res.is_zero() for _, res in again.certificate()), (label, m.name)
    assert by_matching > 10 * reduced > 0


def test_seeded_wrong_relabel_tables_fail_like_their_certificates():
    """A flip or sign map with one sign dropped or two targets swapped fails
    with the relation and residue its full certificate reports first, or with
    the same out-of-cap refusal."""
    rng = random.Random(1010)
    failures = refusals = 0
    for A in (make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"]), make_algebra(QQ, ("x",), ["x^2"])):
        maps = tangent_structure_maps(A)
        for good in (maps.flip, helpers.tangent_minus(maps), bundle_context(kahler_module(A)).affine_flip):
            gens = list(good.dom.gens)
            for _ in range(8):
                images = dict(good.images)
                if rng.random() < 0.5:
                    g = rng.choice(gens)
                    images[g] = -images[g]
                else:
                    g, h = rng.sample(gens, 2)
                    images[g], images[h] = images[h], images[g]
                bad = AlgebraMorphism(good.dom, good.cod, images, certify=False, name="bad")
                try:
                    certificate = bad.certificate()
                except ValueError as exc:
                    refusals += 1
                    with pytest.raises(ValueError, match=str(exc)):
                        bad.certify()
                    continue
                residues = [(rel.render(), res.render()) for rel, res in certificate if not res.is_zero()]
                if not residues:
                    assert bad.certify().certified
                    continue
                failures += 1
                with pytest.raises(WellDefinednessFailure) as err:
                    bad.certify()
                assert (err.value.relation, err.value.residue) == residues[0]
                assert not bad.certified
    assert failures >= 10 and refusals >= 1


def run_sphere_pipeline(A):
    """The benchmark's pipeline steps on the canonical connection over A."""
    nabla = gallery.sphere_canonical_connection(A)
    H, K = to_horizontal(nabla), to_vertical(nabla)
    assert verify_connection_axioms(K, H, nabla.module).all_pass
    assert connection_equal(from_horizontal(H, nabla.module), nabla)
    assert not module_curvature(nabla).flat
    assert check_curvature_correspondence(nabla).residuals_zero
    assert module_torsion(nabla).torsion_free
    assert check_torsion_correspondence(nabla).residuals_zero
    return nabla


def test_only_maps_built_from_connection_data_reach_normal_forms(monkeypatch):
    """On the S^2 pipeline every structure map is certified by matching, and K
    and H by the Leibniz residues: the normal-form certificate never runs, and
    no basis of T(S_A(M)) or of T(A) (x)_A S_A(M) is built."""
    reached, rings = [], []
    certificate = AlgebraMorphism.certificate
    init = IdealBasis.__init__

    def recording(self, *args):
        reached.append(self.name)
        return certificate(self, *args)

    def recording_rings(self, field, variables, *args):
        rings.append(variables)
        init(self, field, variables, *args)

    monkeypatch.setattr(AlgebraMorphism, "certificate", recording)
    monkeypatch.setattr(IdealBasis, "__init__", recording_rings)
    nabla = run_sphere_pipeline(make_algebra(QQ, ("x1", "x2", "x3"), ["x1^2 + x2^2 + x3^2 - 1"]))
    assert set(reached) == set()
    assert nabla.ctx.TS.gens not in rings
    assert nabla.ctx.TAS.gens not in rings
    assert rings  # the recorder saw the bases that were built


def test_sigma_is_certified_on_s_tensor_s(monkeypatch):
    """sigma: S -> S (x)_A S of the S^2 Kahler bundle is certified, and its
    certification reduces in S (x)_A S, one copy of A's generators."""
    rings = []
    init = IdealBasis.__init__

    def recording(self, field, variables, *args):
        rings.append(variables)
        init(self, field, variables, *args)

    monkeypatch.setattr(IdealBasis, "__init__", recording)
    ctx = bundle_context(kahler_module(make_algebra(QQ, ("x1", "x2", "x3"), ["x1^2 + x2^2 + x3^2 - 1"])))
    sigma = helpers.fibrewise_sum(ctx.q, "sigma")
    assert sigma.certified
    assert sigma.cod.gens == tuple(f"{m}#0" for m in ctx.M.gens) + tuple(f"{g}#1" for g in ctx.S.gens)
    assert sigma.cod.gens in rings


# ---------------------------------------------------------------------------
# the shape reader against the bidegree split
# ---------------------------------------------------------------------------


def random_bundle_poly(rng: random.Random, ctx, bidegrees) -> Polynomial:
    """A T(A) (x)_A S_A(M) polynomial whose terms have (d-degree,
    module-degree) drawn from `bidegrees`, times base monomials over A#1."""
    T = ctx.TAS
    d_gens = [f"{ctx.TA.dmap[g]}#0" for g in ctx.A.gens]
    m_gens = [f"{m}#1" for m in ctx.M.gens]
    terms = {}
    for _ in range(8):
        a, b = rng.choice(bidegrees)
        exp = dict.fromkeys(T.gens, 0)
        for g in ctx.A.gens:
            exp[f"{g}#1"] = rng.randint(0, 2)
        for g in rng.choices(d_gens, k=a) + rng.choices(m_gens, k=b):
            exp[g] += 1
        terms[tuple(exp[g] for g in T.gens)] = rng.randint(-3, 3)
    return Polynomial(T.field, T.gens, terms)


def shape_cases(plane, circle, sphere2):
    circle3 = make_algebra(GF(3), ("x", "y"), ["x^2 + y^2 - 1"])
    presented = make_module(circle, ("u", "v"), [["x", "y"]])
    return [kahler_module(A) for A in (plane, circle, sphere2, circle3)] + [presented]


def test_omega_m_read_matches_the_bidegree_split(plane, circle, sphere2):
    rng = random.Random(1406)
    for M in shape_cases(plane, circle, sphere2):
        ctx = bundle_context(M)
        for _ in range(6):
            p = random_bundle_poly(rng, ctx, [(0, 0), (1, 0), (0, 1), (1, 1), (1, 1)])
            element, stray = ctx.omega_m_shapes.read(ctx.TAS.element(p))
            comps, expected_stray = bidegree_split(ctx, ctx.TAS.element(p).poly)
            assert element.comps == ctx.omega_tensor_M.element(comps).comps
            assert stray == expected_stray


def test_shape_read_matches_the_bidegree_split_on_every_bidegree(plane, circle, sphere2, monkeypatch):
    """Raw polynomials, above the grade cap too: (2,0), (0,2), (2,1) and
    (1,2) terms are stray, exactly as the bidegree split finds them, and the
    raw components handed to `combine` are the split's own."""
    rng = random.Random(1407)
    strays = 0
    for M in shape_cases(plane, circle, sphere2):
        ctx = bundle_context(M)
        target = ctx.omega_tensor_M
        handed = []
        combine = target.combine
        monkeypatch.setattr(target, "combine", lambda terms: combine(handed.extend(terms) or handed))
        for _ in range(6):
            handed.clear()
            p = random_bundle_poly(rng, ctx, [(2, 0), (0, 2), (2, 1), (1, 2), (1, 1), (0, 0), (2, 2)])
            element, stray = ctx.omega_m_shapes.read(p)
            comps = [Polynomial.zero(ctx.A.field, ctx.A.gens)] * target.rank
            for k, c in handed:
                comps[k] = comps[k] + c
            assert (tuple(comps), stray) == bidegree_split(ctx, p)
            assert element == target.element(comps)
            strays += not stray.is_zero()
    assert strays >= 20
