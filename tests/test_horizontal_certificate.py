"""The horizontal form H, certified from the Leibniz residues with no basis.

T(A) (x)_A S_A(M) is presented on one copy x#1 of A's generators: the factor
maps A -> T(A) and A -> S_A(M) are inclusions, so `tensor_over_base` names
T(A)'s x as S_A(M)'s x#1 and needs no identification relation.  Raw images
are then compared as given: `certify`, `agrees_on`, `Connection.H` and
`from_horizontal` use that in place of a basis of the tensor.  These tests
pin the one-copy presentation against the two-copy one of
`oracles.two_copy_tensor` (the same normal forms after x#0 -> x#1, over three
fields), compare `agrees_on` on pairs glued from the two copies with
normal-form equality, compare H's certificate with the full one and pin the
failure output of the fallback.  The fact H's certificate rests on (write
sends every relation row of Omega (x) M into the tensor's ideal) is checked
with K's in `test_vertical_certificate.py`.
"""

import random

import pytest

from kcx.algebra import AlgebraMorphism, make_algebra, make_morphism, tensor_over_base
from kcx.connections import Connection, connection_equal, from_horizontal, make_connection, to_horizontal
from kcx.errors import AxiomFailure, WellDefinednessFailure
from kcx.fields import GF, QQ
from kcx.modules import christoffel_target, free_module, kahler_module, make_module
from kcx.poly import Polynomial
from kcx.tangent import bundle_context, tangent_structure_maps

import helpers
from oracles import two_copy_tensor

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


def _two_copies(ctx):
    """The two-copy presentation of T(A) (x)_A S_A(M), and the renaming
    x#0 -> x#1 that glues a polynomial over it into `ctx.TAS`."""
    T = ctx.TAS
    P = two_copy_tensor(ctx.A, ctx.TA, ctx.S, ctx.A_maps.p, ctx.q)
    return P, lambda p: p.change_vars(T.gens, {f"{x}#0": f"{x}#1" for x in ctx.A.gens})


# ---------------------------------------------------------------------------
# one copy of the base
# ---------------------------------------------------------------------------


def test_the_bundle_tensor_has_one_copy_of_the_base():
    """T(A)'s x is S_A(M)'s x#1, with S_A(M)'s role and grading; the
    relations are those of T(A) and S_A(M), each once, and no x#0 - x#1."""
    for M in _modules(QQ)[:2]:
        ctx = bundle_context(M)
        T = ctx.TAS
        assert T.gens == tuple(f"{d}#0" for d in ctx.TA.dmap.values()) + tuple(f"{g}#1" for g in ctx.S.gens)
        assert T.rename[0] == {**{x: f"{x}#1" for x in ctx.A.gens}, **{d: f"{d}#0" for d in ctx.TA.dmap.values()}}
        for x in ctx.A.gens:
            assert T.roles[f"{x}#1"].origin == f"{x}#1" and T.grading[f"{x}#1"] == (0, 0)
        factors = [r.change_vars(T.gens, T.rename[0]) for r in ctx.TA.relations]
        factors += [r.change_vars(T.gens, T.rename[1]) for r in ctx.S.relations]
        assert T.relations == tuple(dict.fromkeys(factors))
        assert len(T.relations) == len(factors) - len(ctx.A.relations)  # A's relations once
        assert not hasattr(T, "glue")


def test_only_plain_renamings_of_the_base_share_one_copy():
    """Each base generator onto one generator with coefficient 1 on both
    sides, both of grade zero: the first factor's copy takes the second's
    name.  Any other factor map keeps both copies and the identification
    relations, as `oracles.two_copy_tensor` presents them."""
    A = make_algebra(QQ, ("a",))
    B = make_algebra(QQ, ("y", "z"))
    plain = make_morphism(A, B, {"a": "y"})
    shared = tensor_over_base(plain, plain)
    assert shared.gens == ("z#0", "y#1", "z#1") and shared.relations == ()
    assert shared.i0.images["y"] == _var(shared, "y#1")
    for image in ("2*y", "-y", "y^2", "y + z", "0"):
        other = make_morphism(A, B, {"a": image})
        for f1, f2 in ((plain, other), (other, plain)):
            T, P = tensor_over_base(f1, f2), two_copy_tensor(A, B, B, f1, f2)
            assert T.gens == P.gens == ("y#0", "z#0", "y#1", "z#1"), image
            assert T.relations == P.relations and len(T.relations) == 1, image
    # two base generators onto one generator of the first factor: y would
    # need two names
    A2 = make_algebra(QQ, ("a", "b"))
    left = make_morphism(A2, B, {"a": "y", "b": "z"})
    right = make_morphism(A2, B, {"a": "y", "b": "y"})
    assert tensor_over_base(right, left).gens == ("y#0", "z#0", "y#1", "z#1")
    merged = tensor_over_base(left, right)  # y and z of the first factor are both y#1
    assert merged.gens == ("y#1", "z#1") and merged.relations == ()
    assert merged.i0.images["y"] == merged.i0.images["z"] == _var(merged, "y#1")
    # a copy of nonzero grade keeps both copies
    graded = {"y#0": (1,), "z#0": (0,), "y#1": (0,), "z#1": (0,)}
    assert tensor_over_base(plain, plain, grading=graded).gens == ("y#0", "z#0", "y#1", "z#1")


def _random_within_cap(rng: random.Random, P) -> Polynomial:
    """Terms with at most one generator of each nonzero sort, times grade-zero
    generators to degree 2: within the cap (1, ..., 1)."""
    base = [g for g in P.gens if not any(P.grading[g])]
    sorts = {}
    for g in P.gens:
        if any(P.grading[g]):
            sorts.setdefault(P.grading[g], []).append(g)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = dict.fromkeys(P.gens, 0)
        for _ in range(rng.randint(0, 2)):
            exp[rng.choice(base)] += 1
        for gens in sorts.values():
            if rng.random() < 0.6:
                exp[rng.choice(gens)] += 1
        terms[tuple(exp[g] for g in P.gens)] = P.field.of(rng.choice([-2, -1, 1, 2, 3]))
    p = Polynomial(P.field, P.gens, terms)
    assert P.within_cap(p)
    return p


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_one_copy_normal_forms_are_the_two_copy_normal_forms(field):
    """Random elements within the cap of the two-copy presentation: their
    normal form holds no x#0, and renamed by x#0 -> x#1 it is, term for
    term, the normal form of the renamed element in the one-copy tensor.
    For T(A) (x)_A S_A(M) with Kahler, free and presented M, and for
    T(A) (x)_A T(A)."""
    rng = random.Random(2500 + field.char)
    cases = []
    for M in _modules(field)[:4]:
        ctx = bundle_context(M)
        cases.append((ctx.A, ctx.TA, ctx.S, ctx.A_maps.p, ctx.q, ctx.TAS))
        if M.provenance == "kahler":
            p_A = tangent_structure_maps(ctx.A).p
            cases.append((ctx.A, ctx.TA, ctx.TA, p_A, p_A, tensor_over_base(p_A, p_A)))
    compared = 0
    for A, B1, B2, f1, f2, T in cases:
        P = two_copy_tensor(A, B1, B2, f1, f2)
        copies = {f"{x}#0": f"{x}#1" for x in A.gens}
        assert set(T.gens) == set(P.gens) - set(copies)
        positions = [P.gens.index(g) for g in copies]
        for _ in range(8):
            p = _random_within_cap(rng, P)
            two = P.element(p).poly
            assert not any(exp[i] for exp in two.terms for i in positions)
            one = T.element(p.change_vars(T.gens, copies)).poly
            assert two.change_vars(T.gens, copies).terms == one.terms
            assert two.render() == one.render()
            compared += not one.is_zero()
    assert compared >= 40


# ---------------------------------------------------------------------------
# agrees_on on pairs glued from the two copies, against normal forms
# ---------------------------------------------------------------------------


def _random_tensor_poly(rng: random.Random, ctx, P, above_cap: bool) -> Polynomial:
    """Terms over the two-copy presentation P of bidegree at most (1,1) over
    both copies of A; with `above_cap` every term carries one extra d(x)."""
    base = [g for g in P.gens if P.grading[g] == (0, 0)]
    ds = [f"{ctx.TA.dmap[x]}#0" for x in ctx.A.gens]
    ms = [f"{m}#1" for m in ctx.M.gens]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = dict.fromkeys(P.gens, 0)
        for _ in range(rng.randint(0, 2)):
            exp[rng.choice(base)] += 1
        if rng.random() < 0.7:
            exp[rng.choice(ds)] += 1
        if rng.random() < 0.7:
            exp[rng.choice(ms)] += 1
        if above_cap:
            exp[rng.choice(ds)] += 1
        terms[tuple(exp[g] for g in P.gens)] = P.field.of(rng.choice([-2, -1, 1, 2, 3]))
    return Polynomial(P.field, P.gens, terms)


def _reglued(rng: random.Random, ctx, p: Polynomial) -> Polynomial:
    """p with each term's exponent of each base generator split at random
    between its two copies: the same element, and the same after gluing."""
    pos = {g: i for i, g in enumerate(p.vars)}
    pairs = [(pos[f"{x}#0"], pos[f"{x}#1"]) for x in ctx.A.gens]
    out = {}
    for exp, c in p.terms.items():
        e = list(exp)
        for i0, i1 in pairs:
            total = e[i0] + e[i1]
            e[i0] = rng.randint(0, total)
            e[i1] = total - e[i0]
        key = tuple(e)
        out[key] = p.field.add(out.get(key, 0), c)
    return Polynomial(p.field, p.vars, out)


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
    """Seeded pairs over the two copies, glued into the one-copy tensor:
    re-glued copies (identical once glued), relation multiples added (equal,
    compared by normal forms) and every move of one generator's exponents
    onto another (mostly unequal).  `agrees_on` equals normal-form equality,
    and refuses what `image_of` refuses."""
    rng = random.Random(2300 + field.char)
    line = make_algebra(field, ("t",))
    seen = {"glued": 0, "reduced": 0, "unequal": 0, "refused": 0}
    for M in _modules(field)[:4]:
        ctx = bundle_context(M)
        T = ctx.TAS
        P, glue = _two_copies(ctx)
        within = [r for r in P.relations if P.within_cap(r)]
        for _ in range(6):
            above = rng.random() < 0.3
            p = _random_tensor_poly(rng, ctx, P, above)
            qs = [_reglued(rng, ctx, p) for _ in range(2)]
            shift = _var(P, f"{rng.choice(ctx.A.gens)}#1")  # grade zero: the cap test is unchanged
            qs.append(p + rng.choice(within) * shift)
            qs += [_moved(p, a, b) for a in range(len(P.gens)) for b in range(len(P.gens)) if a != b]
            f = AlgebraMorphism(line, T, {"t": glue(p)}, name="f")
            for q in qs:
                g = AlgebraMorphism(line, T, {"t": glue(q)}, name="g")
                expected = _outcome(lambda: f.image_of("t") == g.image_of("t"))
                assert _outcome(lambda: f.agrees_on(g, "t")) == expected, (M, p.render(), q.render())
                if isinstance(expected, tuple):
                    seen["refused"] += 1
                elif not expected:
                    seen["unequal"] += 1
                elif T.proves_equal(glue(p), glue(q)):
                    seen["glued"] += p.terms != q.terms
                else:
                    seen["reduced"] += 1
    assert min(seen.values()) >= 5, seen


def test_glued_pairs_agree_with_no_basis_and_above_the_cap_are_refused():
    ctx = bundle_context(kahler_module(make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])))
    T = ctx.TAS
    P, glue = _two_copies(ctx)
    line = make_algebra(QQ, ("t",))
    dx, m, x0, x1 = (_var(P, g) for g in ("d_x#0", "d(x)#1", "x#0", "x#1"))

    def agree(p, q):
        return AlgebraMorphism(line, T, {"t": glue(p)}).agrees_on(AlgebraMorphism(line, T, {"t": glue(q)}), "t")

    assert agree(x1 * dx * m, x0 * dx * m) and agree(x1 * x1 * m, x0 * x1 * m)
    assert "basis" not in T.__dict__
    # identical once glued, but above the cap (d-degree 2): refused as image_of refuses
    high = dx * dx
    with pytest.raises(ValueError, match="graded truncation bound"):
        agree(x1 * high, x0 * high)
    circle = P.relations[0]  # x^2 + y^2 - 1 over x#0: equal elements, one side above the cap
    with pytest.raises(ValueError, match="graded truncation bound"):
        agree(x1 * dx, x0 * dx + circle * high)


def test_certify_matches_relation_images_as_given():
    """S_A(M) -> T(A) (x)_A S_A(M) by x -> x#1, m -> m#1 sends each row rho to
    the relation rho of the tensor; an image that is zero there but lies
    above the cap is still refused."""
    for M in _modules(QQ)[2:]:
        ctx = bundle_context(M)
        T = ctx.TAS
        images = {x: _var(T, f"{x}#1") for x in ctx.A.gens} | {g: _var(T, f"{g}#1") for g in M.gens}
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
    dx, circle = _var(T, "d_x#0"), T.relations[0]
    assert AlgebraMorphism(point, T, {"s": -circle}).certified
    assert "basis" not in T.__dict__
    with pytest.raises(ValueError, match="graded truncation bound"):
        AlgebraMorphism(point, T, {"s": dx * dx * circle})


# ---------------------------------------------------------------------------
# H from the Leibniz residues
# ---------------------------------------------------------------------------


def _unchecked_h(nabla: Connection) -> AlgebraMorphism:
    """H with the images `Connection.H` has, certified by nothing yet."""
    ctx = nabla.ctx
    T = ctx.TAS
    images = {}
    for x in ctx.A.gens:
        images[x] = _var(T, f"{x}#1")
        images[ctx.TS.dmap[x]] = _var(T, f"{ctx.TA.dmap[x]}#0")
    for m in ctx.M.gens:
        images[m] = _var(T, f"{m}#1")
        images[ctx.TS.dmap[m]] = ctx.omega_m_shapes.write(nabla.gamma[m])
    return AlgebraMorphism(ctx.TS, T, images, certify=False, name="H")


def _settled_by_reading(nabla: Connection, H: AlgebraMorphism, full: list) -> bool:
    """Certify H as `Connection.H` does, with `omega_m_shapes.proves_zero` as
    the extra raw-zero test, and tell whether it was settled by reading:
    `full` (a `helpers.record_certificate_calls` list) gained no call.  A
    failure of the full certificate, or its refusal of an image above the
    grade cap, counts as not settled."""
    full.clear()
    try:
        H.certify(nabla.ctx.omega_m_shapes.proves_zero)
    except WellDefinednessFailure:
        pass
    except ValueError as exc:
        assert "graded truncation bound" in str(exc) and full
    return full == []


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_leibniz_certificate_of_h_agrees_with_the_full_certificate(field, monkeypatch):
    rng = random.Random(2311 + field.char)
    full = helpers.record_certificate_calls(monkeypatch)
    admissible = rejected = refused = 0
    for M in _modules(field):
        gamma = helpers.random_admissible_gamma(rng, M)
        if gamma is not None:
            nabla = make_connection(M, gamma)
            H = to_horizontal(nabla)
            assert H.certified and H.images == _unchecked_h(nabla).images
            assert _settled_by_reading(nabla, H, full)
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
                if _settled_by_reading(nabla, bad, full):
                    assert all(res.is_zero() for _, res in bad.certificate()), gen
                else:
                    refused += 1
        for _ in range(2):
            nabla = Connection(M, helpers.random_gamma(rng, M))
            H = _unchecked_h(nabla)
            residues = [(rel.render(), res.render()) for rel, res in H.certificate() if not res.is_zero()]
            assert _settled_by_reading(nabla, H, full) == (not residues), M
            if not residues:
                assert to_horizontal(nabla).certified
                continue
            rejected += 1
            with pytest.raises(WellDefinednessFailure) as err:
                Connection(M, nabla.gamma).H
            assert (err.value.what, err.value.relation, err.value.residue) == ("H", *residues[0])
    assert admissible >= 3 and rejected >= 6 and refused >= 6


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_h_is_certified_by_one_certify_call_with_no_full_certificate(field, monkeypatch):
    """`Connection.H` goes through `AlgebraMorphism.certify` like every other
    map: on admissible data, building H makes one `certify` call, on H, and
    no `certificate` call."""
    rng = random.Random(4057 + field.char)
    built = 0
    for M in _modules(field):
        gamma = helpers.random_admissible_gamma(rng, M)
        if gamma is None:
            continue
        nabla = make_connection(M, gamma)
        ctx = nabla.ctx
        ctx.TS, ctx.TAS.i0, ctx.TAS.i1, ctx.omega_m_shapes  # what H reads is certified as it is built
        calls, full = helpers.record_certify_calls(monkeypatch), helpers.record_certificate_calls(monkeypatch)
        H = nabla.H
        assert H.certified and len(calls) == 1 and calls[0] is H and full == []
        monkeypatch.undo()
        built += 1
    assert built >= 3


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


def test_stray_terms_of_raw_images_are_dropped_by_one_raw_read():
    """An H whose d(m) images carry d_x#0 times A's relation over x#1, of
    bidegree (1,0), is the same map; a raw read of such an image leaves those
    terms stray, and the round trip, one raw read per image that drops the
    stray (1,0) terms, recovers the connection."""
    nabla = helpers.circle_canonical(make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"]))
    ctx = nabla.ctx
    T, H = ctx.TAS, to_horizontal(nabla)
    circle = ctx.A.relations[0].change_vars(T.gens, T.rename[0])
    images = dict(H.images)
    for m in nabla.module.gens:
        images[ctx.TS.dmap[m]] = images[ctx.TS.dmap[m]] + _var(T, "d_x#0") * circle
    padded = AlgebraMorphism(H.dom, T, images, name="H")
    _, stray = ctx.omega_m_shapes.read(padded.images[ctx.TS.dmap[nabla.module.gens[0]]])
    assert not stray.is_zero()
    assert connection_equal(from_horizontal(padded, nabla.module), nabla)


def _oracle_modules(field):
    """Kahler and free modules of the circle, S^2, the elliptic curve and the plane."""
    algebras = [
        make_algebra(field, ("x", "y"), ["x^2 + y^2 - 1"]),
        helpers.sphere(2, field),
        make_algebra(field, ("x", "y"), ["y^2 - x^3 - 1"]),
        make_algebra(field, ("x1", "x2")),
    ]
    return [M for A in algebras for M in (kahler_module(A), free_module(A, 2))]


def _bidegree(T, exp):
    return tuple(map(sum, zip((0, 0), *(tuple(e * w for w in T.grading[g]) for g, e in zip(T.gens, exp) if e))))


def _random_of_bidegree(rng, ctx, bidegree):
    """A random nonzero A-polynomial over x#1 times one generator of each
    nonzero sort in `bidegree`: d_x#0 for tangent degree 1, m#1 for fibre
    degree 1."""
    T = ctx.TAS
    sorts = [[g for g in T.gens if T.grading[g] == unit] for unit, k in zip(((1, 0), (0, 1)), bidegree) if k]
    coef = Polynomial.zero(T.field, ctx.A.gens)
    while coef.is_zero():
        coef = helpers.random_poly(rng, ctx.A.gens, 2, T.field)
    p = coef.change_vars(T.gens, {x: f"{x}#1" for x in ctx.A.gens})
    for gens in sorts:
        p = p * _var(T, rng.choice(gens))
    return p


def _random_ideal_element(rng, ctx, bidegree):
    """A random element of the tensor's ideal of the given bidegree: the sum
    of each relation of bidegree at most `bidegree` times a random
    multiplier that makes up the difference."""
    T = ctx.TAS
    out = Polynomial.zero(T.field, T.gens)
    for r in T.relations:
        rest = tuple(t - b for t, b in zip(bidegree, _bidegree(T, next(iter(r.terms)))))
        if min(rest) >= 0:
            out = out + _random_of_bidegree(rng, ctx, rest) * r
    return out


BIDEGREES = [(0, 0), (1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
def test_padded_horizontal_forms_read_back_to_their_connection(field):
    """Oracle for `from_horizontal`'s one raw read.  An admissible H whose
    d(m) images carry random ideal elements of every bidegree within the cap
    is read back to its connection, and each raw read equals the read of the
    normal form.  A padding of bidegree (0,0), (1,0) or (0,1) outside the
    ideal is refused by the axiom check."""
    rng = random.Random(3701 + field.char)
    checked = refused = 0
    for M in _oracle_modules(field):
        gamma = helpers.random_admissible_gamma(rng, M)
        if gamma is None:
            continue
        nabla = make_connection(M, gamma)
        ctx, H = nabla.ctx, to_horizontal(nabla)
        T, shapes = ctx.TAS, ctx.omega_m_shapes
        dms = [ctx.TS.dmap[m] for m in M.gens]
        for bidegree in BIDEGREES:
            images = {g: p + _random_ideal_element(rng, ctx, bidegree) if g in dms else p for g, p in H.images.items()}
            padded = AlgebraMorphism(H.dom, T, images, certify=False, name="H")
            for dm in dms:
                assert shapes.read(padded.images[dm])[0] == shapes.read(padded.image_of(dm))[0]
            assert connection_equal(from_horizontal(padded, M), nabla)
        for bidegree in BIDEGREES[:3]:
            stray = Polynomial.zero(T.field, T.gens)
            while T.element(stray).is_zero():
                stray = _random_of_bidegree(rng, ctx, bidegree)
            images = dict(H.images)
            images[rng.choice(dms)] += stray
            with pytest.raises(AxiomFailure):
                from_horizontal(AlgebraMorphism(H.dom, T, images, certify=False, name="H"), M)
            refused += 1
        checked += 1
    assert checked >= 7 and refused == 3 * checked
