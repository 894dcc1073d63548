"""The horizontal form H, certified from the Leibniz residues modulo the gluing.

T(A) (x)_A S_A(M) identifies the two copies x#0 and x#1 of A's generators, and
keeps the renaming x#1 -> x#0 as `TensorAlgebra.glue`.  p - glue(p) lies in
the ideal of those identifications, so raw images that are equal after gluing
are equal elements.  `certify`, `agrees_on`, `Connection.H` and
`from_horizontal` use that in place of a basis of the tensor.  These tests
pin the gluing, compare glued `agrees_on` with normal-form equality on random
pairs over three fields, compare H's certificate with the full one and pin
the failure output of the fallback.  The fact H's certificate rests on (write
sends every relation row of Omega (x) M into the tensor's ideal) is checked
with K's in `test_vertical_certificate.py`.
"""

import random

import pytest

from kcx.algebra import AlgebraMorphism, make_algebra, make_morphism, tensor_over_base
from kcx.connections import Connection, connection_equal, from_horizontal, make_connection, to_horizontal
from kcx.errors import WellDefinednessFailure
from kcx.fields import GF, QQ
from kcx.modules import christoffel_target, free_module, kahler_module, make_module
from kcx.poly import Polynomial
from kcx.tangent import bundle_context

import helpers

FIELDS = [QQ, GF(3), GF(32003)]


def _modules(field):
    """Kahler, free and presented modules over a curve and a surface."""
    circle = make_algebra(field, ("x", "y"), ["x^2 + y^2 - 1"])
    cusp = make_algebra(field, ("x", "y"), ["x^2 - y^3"])
    return [
        kahler_module(circle),
        kahler_module(helpers.sphere(2, field)),
        free_module(circle, 2),
        make_module(circle, ("e1", "e2"), [["x", "y"], ["y", "0"]]),
        make_module(cusp, ("u", "v"), [["x", "y"]]),
    ]


def _var(T, name):
    return Polynomial.variable(T.field, T.gens, name)


# ---------------------------------------------------------------------------
# the gluing itself
# ---------------------------------------------------------------------------


def test_the_bundle_tensor_glues_the_second_copy_onto_the_first():
    for M in _modules(QQ)[:2]:
        ctx = bundle_context(M)
        T = ctx.TAS
        expected = {g: _var(T, g) for g in T.gens}
        expected.update({f"{x}#1": _var(T, f"{x}#0") for x in ctx.A.gens})
        assert T.glue.images == expected
        assert T.glue.dom is T and T.glue.cod is T


def test_only_plain_renamings_of_the_base_give_a_gluing():
    A = make_algebra(QQ, ("a",))
    B = make_algebra(QQ, ("y", "z"))
    plain = make_morphism(A, B, {"a": "y"})
    assert tensor_over_base(A, B, B, plain, plain).glue.images["y#1"] == Polynomial.variable(
        QQ, ("y#0", "z#0", "y#1", "z#1"), "y#0"
    )
    for image in ("2*y", "-y", "y^2", "y + z", "0"):
        other = make_morphism(A, B, {"a": image})
        assert tensor_over_base(A, B, B, plain, other).glue is None, image
        assert tensor_over_base(A, B, B, other, plain).glue is None, image
    # two base generators onto one generator of the second factor: z#1 would
    # need two targets
    A2 = make_algebra(QQ, ("a", "b"))
    left = make_morphism(A2, B, {"a": "y", "b": "z"})
    right = make_morphism(A2, B, {"a": "y", "b": "y"})
    assert tensor_over_base(A2, B, B, left, right).glue is None
    glued = tensor_over_base(A2, B, B, right, left).glue  # y#1 -> y#0 and z#1 -> y#0
    assert glued.images["y#1"] == glued.images["z#1"] == _var(glued.cod, "y#0")


# ---------------------------------------------------------------------------
# agrees_on modulo the gluing, against normal forms
# ---------------------------------------------------------------------------


def _random_tensor_poly(rng: random.Random, ctx, above_cap: bool) -> Polynomial:
    """Terms of bidegree at most (1,1) over both copies of A; with `above_cap`
    every term carries one extra d(x)."""
    T = ctx.TAS
    base = [g for g in T.gens if T.grading[g] == (0, 0)]
    ds = [f"{ctx.TA.dmap[x]}#0" for x in ctx.A.gens]
    ms = [f"{m}#1" for m in ctx.M.gens]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = dict.fromkeys(T.gens, 0)
        for _ in range(rng.randint(0, 2)):
            exp[rng.choice(base)] += 1
        if rng.random() < 0.7:
            exp[rng.choice(ds)] += 1
        if rng.random() < 0.7:
            exp[rng.choice(ms)] += 1
        if above_cap:
            exp[rng.choice(ds)] += 1
        terms[tuple(exp[g] for g in T.gens)] = T.field.of(rng.choice([-2, -1, 1, 2, 3]))
    return Polynomial(T.field, T.gens, terms)


def _reglued(rng: random.Random, ctx, p: Polynomial) -> Polynomial:
    """p with each term's exponent of each base generator split at random
    between its two copies: the same element, and the same after gluing."""
    T = ctx.TAS
    pos = {g: i for i, g in enumerate(T.gens)}
    pairs = [(pos[f"{x}#0"], pos[f"{x}#1"]) for x in ctx.A.gens]
    out = {}
    for exp, c in p.terms.items():
        e = list(exp)
        for i0, i1 in pairs:
            total = e[i0] + e[i1]
            e[i0] = rng.randint(0, total)
            e[i1] = total - e[i0]
        key = tuple(e)
        out[key] = T.field.add(out.get(key, 0), c)
    return Polynomial(T.field, T.gens, out)


def _moved(p: Polynomial, src: int, dst: int) -> Polynomial:
    """p with every exponent of generator `src` moved onto generator `dst`."""
    out = {}
    for exp, c in p.terms.items():
        e = list(exp)
        e[dst] += e[src]
        e[src] = 0
        key = tuple(e)
        out[key] = p.field.add(out.get(key, 0), c)
    return Polynomial(p.field, p.vars, out)


def _outcome(run):
    try:
        return run()
    except ValueError as err:
        return ("ValueError", str(err))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_glued_agreement_matches_normal_form_equality(field):
    """Seeded pairs: re-glued copies (equal, and equal after gluing), relation
    multiples added (equal, compared by normal forms) and every move of one
    generator's exponents onto another (mostly unequal).  `agrees_on` equals
    normal-form equality, and refuses what `image_of` refuses."""
    rng = random.Random(2300 + field.char)
    line = make_algebra(field, ("t",))
    seen = {"glued": 0, "reduced": 0, "unequal": 0, "refused": 0}
    for M in _modules(field)[:4]:
        ctx = bundle_context(M)
        T = ctx.TAS
        within = [r for r in T.relations if T.within_cap(r)]
        for _ in range(6):
            above = rng.random() < 0.3
            p = _random_tensor_poly(rng, ctx, above)
            qs = [_reglued(rng, ctx, p) for _ in range(2)]
            shift = _var(T, f"{rng.choice(ctx.A.gens)}#1")  # grade zero: the cap test is unchanged
            qs.append(p + rng.choice(within) * shift)
            qs += [_moved(p, a, b) for a in range(len(T.gens)) for b in range(len(T.gens)) if a != b]
            f = AlgebraMorphism(line, T, {"t": p}, name="f")
            for q in qs:
                g = AlgebraMorphism(line, T, {"t": q}, name="g")
                expected = _outcome(lambda: f.image_of("t") == g.image_of("t"))
                assert _outcome(lambda: f.agrees_on(g, "t")) == expected, (M, p.render(), q.render())
                if isinstance(expected, tuple):
                    seen["refused"] += 1
                elif not expected:
                    seen["unequal"] += 1
                elif T.proves_equal(p, q):
                    seen["glued"] += p.terms != q.terms
                else:
                    seen["reduced"] += 1
    assert min(seen.values()) >= 5, seen


def test_glued_pairs_agree_with_no_basis_and_above_the_cap_are_refused():
    ctx = bundle_context(kahler_module(make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])))
    T = ctx.TAS
    line = make_algebra(QQ, ("t",))
    dx, m, x0, x1 = (_var(T, g) for g in ("d_x#0", "d(x)#1", "x#0", "x#1"))

    def agree(p, q):
        return AlgebraMorphism(line, T, {"t": p}).agrees_on(AlgebraMorphism(line, T, {"t": q}), "t")

    assert agree(x1 * dx * m, x0 * dx * m) and agree(x1 * x1 * m, x0 * x1 * m)
    assert "basis" not in T.__dict__
    # equal after gluing, but above the cap (d-degree 2): refused as image_of refuses
    high = dx * dx
    with pytest.raises(ValueError, match="graded truncation bound"):
        agree(x1 * high, x0 * high)
    with pytest.raises(ValueError, match="graded truncation bound"):
        agree(x1 * dx, x0 * dx + (x0 - x1) * high)  # one side above the cap


def test_certify_matches_relation_images_modulo_the_gluing():
    """S_A(M) -> T(A) (x)_A S_A(M) by x -> x#0, m -> m#1 sends each row rho to
    rho over x#0, a relation only after gluing; an image that is zero after
    gluing but lies above the cap is still refused."""
    for M in _modules(QQ)[2:]:
        ctx = bundle_context(M)
        T = ctx.TAS
        images = {x: _var(T, f"{x}#0") for x in ctx.A.gens} | {g: _var(T, f"{g}#1") for g in M.gens}
        assert AlgebraMorphism(ctx.S, T, images).certified
        assert "basis" not in T.__dict__
        if M.relations:  # swapping the module generators breaks a row
            swapped = dict(images, **{M.gens[0]: images[M.gens[1]], M.gens[1]: images[M.gens[0]]})
            unchecked = AlgebraMorphism(ctx.S, T, swapped, certify=False, name="s")
            residues = [(r.render(), e.render()) for r, e in unchecked.certificate() if not e.is_zero()]
            with pytest.raises(WellDefinednessFailure) as err:
                AlgebraMorphism(ctx.S, T, swapped, name="s")
            assert (err.value.relation, err.value.residue) == residues[0]
    T = bundle_context(_modules(QQ)[0]).TAS
    point = make_algebra(QQ, ("s",), ["s"])
    dx, x0, x1 = (_var(T, g) for g in ("d_x#0", "x#0", "x#1"))
    assert AlgebraMorphism(point, T, {"s": dx * (x0 - x1)}).certified
    assert "basis" not in T.__dict__
    with pytest.raises(ValueError, match="graded truncation bound"):
        AlgebraMorphism(point, T, {"s": dx * dx * (x0 - x1)})


# ---------------------------------------------------------------------------
# H from the Leibniz residues
# ---------------------------------------------------------------------------


def _unchecked_h(nabla: Connection) -> AlgebraMorphism:
    """H with the images `Connection.H` has, certified by nothing yet."""
    ctx = nabla.ctx
    T = ctx.TAS
    images = {}
    for x in ctx.A.gens:
        images[x] = _var(T, f"{x}#0")
        images[ctx.TS.dmap[x]] = _var(T, f"{ctx.TA.dmap[x]}#0")
    for m in ctx.M.gens:
        images[m] = _var(T, f"{m}#1")
        images[ctx.TS.dmap[m]] = ctx.omega_m_shapes.write(nabla.gamma[m])
    return AlgebraMorphism(ctx.TS, T, images, certify=False, name="H")


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_leibniz_certificate_of_h_agrees_with_the_full_certificate(field):
    rng = random.Random(2311 + field.char)
    admissible = rejected = refused = 0
    for M in _modules(field):
        gamma = helpers.random_admissible_gamma(rng, M)
        if gamma is not None:
            nabla = make_connection(M, gamma)
            H = to_horizontal(nabla)
            assert H.certified and H.images == _unchecked_h(nabla).images
            assert nabla._horizontal_certifies(H)
            assert "basis" not in nabla.ctx.TAS.__dict__
            assert all(res.is_zero() for _, res in H.certificate())
            admissible += 1
            # images of x, d(x), m or d(m) moved off the ones the residues speak
            # for: the certificate may only accept what the full one accepts
            T, dmap = nabla.ctx.TAS, nabla.ctx.TS.dmap
            for gen in [*nabla.ctx.A.gens, dmap[nabla.ctx.A.gens[0]], *M.gens, *(dmap[m] for m in M.gens)]:
                moved = dict(H.images)
                moved[gen] = moved[gen] + rng.choice([_var(T, rng.choice(T.gens)), Polynomial.const(field, T.gens, 1)])
                bad = AlgebraMorphism(H.dom, T, moved, certify=False, name="H")
                if nabla._horizontal_certifies(bad):
                    assert all(res.is_zero() for _, res in bad.certificate()), gen
                else:
                    refused += 1
        for _ in range(2):
            nabla = Connection(M, helpers.random_gamma(rng, M))
            H = _unchecked_h(nabla)
            residues = [(rel.render(), res.render()) for rel, res in H.certificate() if not res.is_zero()]
            assert nabla._horizontal_certifies(H) == (not residues), M
            if not residues:
                assert to_horizontal(nabla).certified
                continue
            rejected += 1
            with pytest.raises(WellDefinednessFailure) as err:
                Connection(M, nabla.gamma).H
            assert (err.value.what, err.value.relation, err.value.residue) == ("H", *residues[0])
    assert admissible >= 3 and rejected >= 6 and refused >= 6


def _fallback_cases():
    circle = make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])
    omega = kahler_module(circle)
    cusp = make_algebra(GF(3), ("x", "y"), ["x^2 - y^3"])
    P = make_module(cusp, ("u", "v"), [["x", "y"]])
    t = christoffel_target(P)
    return [
        (omega, {g: christoffel_target(omega).zero() for g in omega.gens},
         "2*d_d(x)*x + 2*d_d(y)*y + 2*d_x*d(x) + 2*d_y*d(y)", "2*d_x#0*d(x)#1 + 2*d_y#0*d(y)#1"),
        (P, {g: t.zero() for g in P.gens}, "d_u*x + d_v*y + d_x*u + d_y*v", "d_x#0*u#1 + d_y#0*v#1"),
        (P, {"u": t.element(["0", "0", "y", "0"]), "v": t.zero()},
         "d_u*x + d_v*y + d_x*u + d_y*v", "2*d_y#0*y#1^2*v#1 + d_x#0*u#1 + d_y#0*v#1"),
    ]


@pytest.mark.parametrize("case", range(3))
def test_bad_christoffel_data_fails_h_with_the_full_certificate_text(case):
    """The relation and residue strings are those H's full certificate
    reported before H was certified from the Leibniz residues."""
    M, gamma, relation, residue = _fallback_cases()[case]
    nabla = Connection(M, gamma)
    full = [(r.render(), e.render()) for r, e in _unchecked_h(nabla).certificate() if not e.is_zero()]
    assert full[0] == (relation, residue)
    for _ in range(2):  # a failed build is not cached: it fails again
        with pytest.raises(WellDefinednessFailure) as err:
            nabla.H
        assert str(err.value) == f"H: relation {relation} has nonzero residue {residue}"


# ---------------------------------------------------------------------------
# the round trip reads raw images
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_raw_and_normal_form_reads_of_h_give_the_same_connection(field):
    rng = random.Random(2333 + field.char)
    checked = 0
    for M in _modules(field):
        gamma = helpers.random_admissible_gamma(rng, M)
        if gamma is None:
            continue
        nabla = make_connection(M, gamma)
        H, shapes = to_horizontal(nabla), nabla.ctx.omega_m_shapes
        for m in M.gens:
            dm = nabla.ctx.TS.dmap[m]
            raw, stray = shapes.read(H.images[dm])
            reduced, stray_nf = shapes.read(H.image_of(dm))
            assert stray.is_zero() and stray_nf.is_zero() and raw == reduced
        assert connection_equal(from_horizontal(H, M), nabla)
        checked += 1
    assert checked >= 3


def test_raw_images_with_stray_terms_are_read_from_their_normal_forms():
    """An H whose d(m) images carry a multiple of x#0 - x#1 of bidegree (1,0)
    is the same map; its raw read leaves stray terms, so the round trip reads
    the normal form and recovers the connection."""
    nabla = helpers.circle_canonical(make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"]))
    ctx = nabla.ctx
    T, H = ctx.TAS, to_horizontal(nabla)
    dx, x0, x1 = (_var(T, g) for g in ("d_x#0", "x#0", "x#1"))
    images = dict(H.images)
    for m in nabla.module.gens:
        images[ctx.TS.dmap[m]] = images[ctx.TS.dmap[m]] + dx * (x0 - x1)
    padded = AlgebraMorphism(H.dom, T, images, name="H")
    _, stray = ctx.omega_m_shapes.read(padded.images[ctx.TS.dmap[nabla.module.gens[0]]])
    assert not stray.is_zero()
    assert connection_equal(from_horizontal(padded, nabla.module), nabla)
