import random

import pytest

from kcx.algebra import identity_morphism, make_algebra, make_morphism
from kcx.connections import (
    apply_connection,
    connection_equal,
    free_canonical_connection,
    from_horizontal,
    make_connection,
    pullback_connection,
    retract_connection,
    to_horizontal,
    to_vertical,
    verify_connection_axioms,
    verify_horizontal_axioms,
    verify_vertical_axioms,
    vertical_from_horizontal,
    zero_gamma_connection,
)
from kcx.algebra import AlgebraMorphism
from kcx.errors import AxiomFailure, BaseMismatch, SectionRetractionFailure, WellDefinednessFailure
from kcx.fields import QQ
from kcx.modules import ModuleMorphism, christoffel_target, free_module, kahler_module, make_module
from kcx.tangent import bundle_context
from kcx.poly import Polynomial

import helpers
from oracles import module_pair, normal_form_agrees


def test_circle_canonical_accepted(circle):
    nabla = helpers.circle_canonical(circle)
    t = nabla.ctx.omega_tensor_M
    # display form reduces canonically (x d(x)@v rewrites via the slot relation)
    assert nabla.gamma["d(x)"] == t.element(["-x", "0", "0", "-x"])
    assert nabla.gamma["d(y)"] == t.element(["-y", "0", "0", "-y"])


def test_repr_names_every_generator_and_its_image(plane, circle, sphere2, elliptic):
    connections = [
        helpers.plane_zero(plane),
        helpers.plane_twisted(plane),
        helpers.plane_antisymmetric(plane),
        helpers.circle_canonical(circle),
        helpers.sphere_canonical(sphere2),
        helpers.elliptic_connection(elliptic),
        free_canonical_connection(plane, 2),
    ]
    for nabla in connections:
        text = repr(nabla)
        assert text.startswith("<connection ") and text.endswith(">")
        for g in nabla.module.gens:
            assert f"{g} -> {nabla.gamma[g].render()}" in text
    assert repr(connections[2]) == "<connection d(x1) -> d(x1)@d(x2); d(x2) -> 0>"


def test_circle_naive_rejected_with_exact_residue(circle):
    omega = kahler_module(circle)
    with pytest.raises(WellDefinednessFailure) as err:
        zero_gamma_connection(omega)
    assert err.value.residue == "2*d(x)@d(x) + 2*d(y)@d(y)"


def test_fat_point_rejects_everything(fat_point):
    omega = kahler_module(fat_point)
    t = bundle_context(omega).omega_tensor_M
    with pytest.raises(WellDefinednessFailure):
        make_connection(omega, {"d(x)": t.zero()})
    with pytest.raises(WellDefinednessFailure):
        make_connection(omega, {"d(x)": t.element(["x"])})


def test_plane_leibniz_displayed_value(plane):
    nabla = helpers.plane_zero(plane)
    omega = kahler_module(plane)
    t = bundle_context(omega).omega_tensor_M
    result = apply_connection(nabla, omega.element(["x1^3", "0"]))
    assert result == t.element(["3*x1^2", "0", "0", "0"])
    # nabla of a generator is its Christoffel image; nabla(0) = 0
    assert apply_connection(nabla, omega.gen("d(x1)")) == nabla.gamma["d(x1)"]
    assert apply_connection(nabla, omega.zero()).is_zero()


def test_elliptic_paper_images_rejected(elliptic):
    # The displayed images do not kill the Jacobian row; the residue is nonzero
    # even after reduction (checked independently at a rational curve point).
    omega = kahler_module(elliptic)
    with pytest.raises(WellDefinednessFailure):
        make_connection(
            omega,
            {
                "d(x)": ["-2*x^2", "0", "0", "-2/3*x"],
                "d(y)": ["3*x*y", "0", "0", "y"],
            },
        )


def test_elliptic_retract_connection_certifies(elliptic):
    nabla = helpers.elliptic_connection(elliptic)
    assert set(nabla.gamma) == {"d(x)", "d(y)"}


def test_connection_is_not_a_linear(circle, plane):
    # For a in A, m in M with d(a) (x) m nonzero, nabla(am) != a nabla(m).
    for nabla, a_name, g in (
        (helpers.circle_canonical(circle), "x", "d(x)"),
        (helpers.plane_zero(plane), "x1", "d(x1)"),
    ):
        M = nabla.module
        a = M.base.element(a_name)
        lhs = apply_connection(nabla, M.gen(g).scaled(a))
        rhs = apply_connection(nabla, M.gen(g)).scaled(a)
        assert lhs != rhs


def test_horizontal_images_plane(plane):
    nabla = helpers.plane_twisted(plane)
    H = to_horizontal(nabla)
    ctx = nabla.ctx
    T, pair = ctx.TAS, helpers.algebra_pair
    assert H(ctx.TS.gen("x1")) == pair(T, "x1", 1)
    assert H(ctx.TS.gen("d(x1)")) == pair(T, 1, ctx.S.gen("d(x1)"))
    assert H(ctx.TS.gen("d_x1")) == pair(T, ctx.TA.gen("d_x1"), 1)
    expected = pair(T, ctx.TA.element("x2") * ctx.TA.gen("d_x1"), ctx.S.gen("d(x1)"))
    assert H(ctx.TS.gen("d_d(x1)")) == ctx.TAS.element(
        ctx.omega_m_shapes.write(nabla.gamma["d(x1)"])
    )
    assert H(ctx.TS.gen("d_d(x1)")) == expected


def test_vertical_images_circle(circle):
    nabla = helpers.circle_canonical(circle)
    K = to_vertical(nabla)
    ctx = nabla.ctx
    TS = ctx.TS
    # K(d(x)) = d_d(x) + x d(x) d_x + x d(y) d_y
    expected = (
        TS.gen("d_d(x)")
        + TS.gen("d(x)") * TS.gen("d_x") * TS.element("x")
        + TS.gen("d(y)") * TS.gen("d_y") * TS.element("x")
    )
    assert K(ctx.S.gen("d(x)")) == expected
    assert K(ctx.S.gen("x")) == TS.gen("x")


def test_vertical_gamma_zero_free(plane):
    nabla = free_canonical_connection(plane, 2)
    K = to_vertical(nabla)
    ctx = nabla.ctx
    for m in nabla.module.gens:
        assert K(ctx.S.gen(m)) == ctx.TS.gen(ctx.TS.dmap[m])


def test_round_trip_gallery(circle, plane, sphere2, elliptic):
    gallery = [
        helpers.circle_canonical(circle),
        helpers.plane_zero(plane),
        helpers.plane_twisted(plane),
        helpers.sphere_canonical(sphere2),
        helpers.elliptic_connection(elliptic),
    ]
    for nabla in gallery:
        H = to_horizontal(nabla)
        back = from_horizontal(H, nabla.module)
        assert connection_equal(nabla, back)
        H2 = to_horizontal(back)
        assert H2 == H


def test_round_trip_random_plane(plane):
    rng = random.Random(59)
    for _ in range(20):
        nabla = helpers.random_plane_connection(plane, rng)
        H = to_horizontal(nabla)
        back = from_horizontal(H, nabla.module)
        assert connection_equal(nabla, back)
        assert to_horizontal(back) == H


def test_vertical_from_horizontal_agreement(circle, plane):
    for nabla in (helpers.circle_canonical(circle), helpers.plane_twisted(plane)):
        H = to_horizontal(nabla)
        K1 = vertical_from_horizontal(H, nabla.module)
        K2 = to_vertical(nabla)
        assert K1 == K2


def test_axiom_suite_passes(circle, plane):
    for nabla in (helpers.circle_canonical(circle), helpers.plane_zero(plane)):
        K, H = to_vertical(nabla), to_horizontal(nabla)
        report = verify_connection_axioms(K, H, nabla.module)
        assert report.all_pass, [e for e in report.entries if e.status != "pass"]
        ids = [e.axiom_id for e in report.entries]
        assert ids == ["H.1", "H.2", "H.3", "H.4", "K.1", "K.2", "K.3", "K.4", "C.1", "C.2"]


def test_h_u_retract_identity(circle):
    # H composed after the multiplication map U is the identity on the tensor.
    nabla = helpers.circle_canonical(circle)
    H = to_horizontal(nabla)
    ctx = nabla.ctx
    from kcx.algebra import compose_morphisms

    assert compose_morphisms(H, ctx.U) == identity_morphism(ctx.TAS)


def test_perturbed_horizontal_fails(plane):
    nabla = helpers.plane_zero(plane)
    H = to_horizontal(nabla)
    ctx = nabla.ctx
    # violate H.2: double the module image
    bad = dict(H.images)
    bad["d(x1)"] = H.images["d(x1)"] * Polynomial.const(QQ, ctx.TAS.gens, 2)
    H_bad = AlgebraMorphism(ctx.TS, ctx.TAS, bad, certify=False)
    report = verify_horizontal_axioms(H_bad, nabla.module)
    assert not report.all_pass
    assert any(e.axiom_id == "H.2" and e.status == "fail" for e in report.entries)
    with pytest.raises(AxiomFailure):
        from_horizontal(H_bad, nabla.module)
    # violate H.3/H.4: add a pure module term to the d(m) image (not of the
    # form-tensor-module shape, so the two Leibniz routes disagree)
    bad2 = dict(H.images)
    extra = Polynomial.variable(QQ, ctx.TAS.gens, "d(x1)#1")
    bad2[ctx.TS.dmap["d(x1)"]] = bad2[ctx.TS.dmap["d(x1)"]] + extra
    H_bad2 = AlgebraMorphism(ctx.TS, ctx.TAS, bad2, certify=False)
    report2 = verify_horizontal_axioms(H_bad2, nabla.module)
    failed = {e.axiom_id for e in report2.entries if e.status == "fail"}
    assert failed & {"H.3", "H.4"}


def test_degenerate_vertical_fails_k1(circle):
    nabla = helpers.circle_canonical(circle)
    ctx = nabla.ctx
    # K = p after z: collapses the module part, not a retract of the lift
    from kcx.algebra import compose_chain
    from kcx.connections import verify_vertical_axioms

    K_bad = compose_chain([ctx.z, ctx.q, AlgebraMorphism(
        ctx.S, ctx.TS, {g: ctx.TS.polynomial(ctx.TS.gen(g)) for g in ctx.S.gens}, certify=False
    )])
    report = verify_vertical_axioms(K_bad, nabla.module)
    assert any(e.axiom_id == "K.1" and e.status == "fail" for e in report.entries)


def perturbed(f: AlgebraMorphism, rng: random.Random) -> AlgebraMorphism:
    """f with one image changed: plus a signed codomain generator, plus a base
    generator times a codomain relation (the same element), or swapped with
    another image.  Every change stays within the codomain's grade cap."""
    cod, images = f.cod, dict(f.images)
    gen = rng.choice(f.dom.gens)
    kind = rng.randrange(3)
    if kind == 0:
        v = Polynomial.variable(cod.field, cod.gens, rng.choice(cod.gens))
        images[gen] = images[gen] + v.scale(rng.choice((-1, 1)))
    elif kind == 1:
        base = [g for g in cod.gens if cod.roles[g].kind == "base"]
        x = Polynomial.variable(cod.field, cod.gens, rng.choice(base))
        images[gen] = images[gen] + x * rng.choice(cod.relations)
    else:
        other = rng.choice(f.dom.gens)
        images[gen], images[other] = images[other], images[gen]
    return AlgebraMorphism(f.dom, cod, images, certify=False, name=f.name)


def test_seeded_broken_bundle_maps_fail_like_normal_form_comparisons(circle, elliptic, monkeypatch):
    """K or H with one image broken gives the same axiom entries, or the same
    error, as suites whose images are compared by normal forms alone.  A
    composite of a broken map may leave the grade cap; both suites then
    refuse it alike."""
    rng = random.Random(4242)
    seen = set()
    for nabla in (helpers.circle_canonical(circle), helpers.elliptic_connection(elliptic)):
        M = nabla.module
        K, H = to_vertical(nabla), to_horizontal(nabla)
        for _ in range(20):
            if rng.random() < 0.5:
                K_bad, H_bad = perturbed(K, rng), H
            else:
                K_bad, H_bad = K, perturbed(H, rng)

            def outcomes():
                out = []
                for run in (
                    lambda: verify_horizontal_axioms(H_bad, M),
                    lambda: verify_vertical_axioms(K_bad, M),
                    lambda: verify_connection_axioms(K_bad, H_bad, M),
                ):
                    try:
                        out.append(run().entries)
                    except (BaseMismatch, ValueError) as err:  # C.2's bundle_combine; out of cap
                        out.append((type(err).__name__, str(err)))
                return out

            got = outcomes()
            with monkeypatch.context() as patch:
                patch.setattr(AlgebraMorphism, "agrees_on", normal_form_agrees)
                assert outcomes() == got
            for entries in got:
                seen.update(e.status for e in entries) if isinstance(entries, list) else seen.add(entries[0])
    assert seen == {"pass", "fail", "BaseMismatch", "ValueError"}


def test_membership_failure_on_alien_horizontal(plane):
    nabla = helpers.plane_zero(plane)
    H = to_horizontal(nabla)
    ctx = nabla.ctx
    bad = dict(H.images)
    # a d_x1#0 term of bidegree (1,0) added to a d(m) image reads as stray;
    # such an H fails H.4, and `from_horizontal` checks the axioms before it
    # reads (the padded oracle in test_horizontal_certificate.py), so only
    # the raw read is tested here
    extra = Polynomial.variable(QQ, ctx.TAS.gens, "d_x1#0")  # bidegree (1,0): stray
    elem = ctx.TAS.element(bad[ctx.TS.dmap["d(x1)"]] + extra)
    _, stray = ctx.omega_m_shapes.read(elem)
    assert not stray.is_zero()


def test_free_canonical_connection(plane):
    nabla = free_canonical_connection(plane, 2)
    t = nabla.ctx.omega_tensor_M
    out = apply_connection(nabla, nabla.module.element(["x1^3", "0"]))
    expected = module_pair(t, kahler_module(plane).element(["3*x1^2", "0"]), nabla.module.gen("e1"))
    assert out == expected
    assert all(nabla.gamma[g].is_zero() for g in nabla.module.gens)
    vac = free_canonical_connection(plane, 0)
    assert vac.module.rank == 0


def test_pullback_identity(circle):
    nabla = helpers.circle_canonical(circle)
    pulled = pullback_connection(nabla, identity_morphism(circle))
    assert connection_equal(pulled, nabla)


def test_pullback_free_from_rationals(plane):
    # Rank-2 free module over the rationals, pulled back along QQ -> plane.
    base = make_algebra(QQ, ())
    nabla = free_canonical_connection(base, 2)
    f = make_morphism(base, plane, {})
    pulled = pullback_connection(nabla, f)
    assert connection_equal(pulled, free_canonical_connection(plane, 2))


def test_pullback_certifies_an_uncertified_morphism_first(circle, plane):
    nabla = helpers.circle_canonical(circle)
    x, y = (Polynomial.variable(QQ, circle.gens, g) for g in circle.gens)
    f = AlgebraMorphism(circle, circle, {"x": x, "y": y}, certify=False)
    assert not f.certified
    assert connection_equal(pullback_connection(nabla, f), nabla) and f.certified
    x1, x2 = (Polynomial.variable(QQ, plane.gens, g) for g in plane.gens)
    ill_defined = AlgebraMorphism(circle, plane, {"x": x1, "y": x2}, certify=False)
    with pytest.raises(WellDefinednessFailure):
        pullback_connection(nabla, ill_defined)
    assert not ill_defined.certified


def test_connection_equal_compares_presentations_built_apart(plane):
    """Modules built apart are equal when base, generators and relations are:
    e1 = e2 and e1 = -e2 both carry the zero connection."""

    def zero_on(row):
        M = make_module(plane, ("e1", "e2"), [row])
        return make_connection(M, {g: christoffel_target(M).zero() for g in M.gens})

    same, other = zero_on(["1", "-1"]), zero_on(["1", "-1"])
    assert same.module is not other.module
    assert connection_equal(same, other)
    assert not connection_equal(same, zero_on(["1", "1"]))


def test_retract_circle_reproduces_canonical(circle):
    omega = kahler_module(circle)
    fr = free_module(circle, 2)
    s = ModuleMorphism(
        omega,
        fr,
        {"d(x)": fr.element(["y^2", "-x*y"]), "d(y)": fr.element(["-x*y", "x^2"])},
        name="s",
    )
    r = ModuleMorphism(fr, omega, {"e1": omega.gen("d(x)"), "e2": omega.gen("d(y)")}, name="r")
    nabla = retract_connection(helpers.free_canonical_connection_on(fr), s, r)
    assert connection_equal(nabla, helpers.circle_canonical(circle))


def test_retract_identity_is_identity(circle):
    nabla = helpers.circle_canonical(circle)
    omega = nabla.module
    ident = {g: omega.gen(g) for g in omega.gens}
    s = ModuleMorphism(omega, omega, ident)
    r = ModuleMorphism(omega, omega, ident)
    assert connection_equal(retract_connection(nabla, s, r), nabla)


def test_retract_rejects_non_section(circle):
    omega = kahler_module(circle)
    fr = free_module(circle, 2)
    s = ModuleMorphism(omega, fr, {"d(x)": fr.element(["y^2", "-x*y"]), "d(y)": fr.element(["-x*y", "x^2"])})
    bad_r = ModuleMorphism(fr, omega, {"e1": omega.gen("d(y)"), "e2": omega.gen("d(x)")})
    with pytest.raises(SectionRetractionFailure):
        retract_connection(helpers.free_canonical_connection_on(fr), s, bad_r)


def test_sphere_retract_route_matches_canonical(sphere2):
    omega = kahler_module(sphere2)
    fr = free_module(sphere2, 3)
    xs = sphere2.gens
    s_images = {}
    for i in range(3):
        comps = []
        for j in range(3):
            if i == j:
                comps.append(f"1 - {xs[i]}*{xs[j]}")
            else:
                comps.append(f"-{xs[i]}*{xs[j]}")
        s_images[omega.gens[i]] = fr.element(comps)
    s = ModuleMorphism(omega, fr, s_images)
    r = ModuleMorphism(fr, omega, {f"e{j+1}": omega.gen(omega.gens[j]) for j in range(3)})
    nabla = retract_connection(helpers.free_canonical_connection_on(fr), s, r)
    assert connection_equal(nabla, helpers.sphere_canonical(sphere2))
