import itertools
import random
from fractions import Fraction

import pytest

from kcx import groebner
from kcx.fields import GF, QQ, Field
from kcx.groebner import IdealBasis, ModuleBasis
from kcx.parse import poly_normalize
from kcx.poly import Polynomial

from helpers import random_poly
from oracles import ideal_span_bound, loop_monomial_grade, module_span_bound, module_span_contains, rescan_reduce
from oracles import reference_groebner, span_contains, vector_leading


def P(text, field=QQ, variables=("x", "y")):
    return poly_normalize(text, field, variables)


def test_single_generator_already_reduced():
    b = IdealBasis(QQ, ("x", "y"), [P("x^2 + y^2 - 1")])
    assert b.basis == [P("x^2 + y^2 - 1")]


def test_hand_reduction_x2_xy():
    # {x^2, x*y}: the S-pair reduces to 0 only after y*x^2 - x*(x*y); x^2*y must die.
    b = IdealBasis(QQ, ("x", "y"), [P("x^2"), P("x*y")])
    assert b.normal_form(P("x^2*y")).is_zero()
    assert not b.normal_form(P("x")).is_zero()


def test_unit_ideal():
    b = IdealBasis(QQ, ("x", "y"), [P("1")])
    assert b.basis == [P("1")]
    assert b.normal_form(P("x^3 + 7")).is_zero()


def test_empty_generators_zero_ideal():
    b = IdealBasis(QQ, ("x", "y"), [])
    assert b.basis == []
    assert b.normal_form(P("x")) == P("x")


def test_circle_normal_forms():
    b = IdealBasis(QQ, ("x", "y"), [P("x^2 + y^2 - 1")])
    assert b.normal_form(P("x^2 + y^2")) == P("1")
    assert b.normal_form(P("0")).is_zero()


def test_fat_point_x_cubed():
    b = IdealBasis(QQ, ("x",), [poly_normalize("x^2", QQ, ("x",))])
    assert b.normal_form(poly_normalize("x^3", QQ, ("x",))).is_zero()


def test_normal_form_idempotent_and_linear():
    rng = random.Random(3)
    b = IdealBasis(QQ, ("x", "y"), [P("x^2 + y^2 - 1"), P("x*y - 1")])
    for _ in range(25):
        p = random_poly(rng)
        q = random_poly(rng)
        nf = b.normal_form
        assert nf(nf(p)) == nf(p)
        assert nf(p + q) == nf(nf(p) + nf(q))


def test_cox_little_oshea_example():
    # Classic: twisted cubic relations give a known basis with nf decisions.
    variables = ("t", "x", "y", "z")
    gens = [
        poly_normalize("x - t^2", QQ, variables),
        poly_normalize("y - t^3", QQ, variables),
    ]
    b = IdealBasis(QQ, variables, gens)
    assert b.normal_form(poly_normalize("x^3 - y^2", QQ, variables)).is_zero()


def test_membership_matches_dense_oracle_randomized():
    rng = random.Random(101)
    agreements = 0
    for trial in range(120):
        nvars = rng.randint(1, 3)
        variables = tuple("xyz"[:nvars])
        field = GF(5) if trial % 3 == 0 else QQ
        gens = [random_poly(rng, variables, field=field) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = IdealBasis(field, variables, gens)
        # test both random elements and constructed members
        probe = random_poly(rng, variables, field=field)
        member = gens[0] * random_poly(rng, variables, degree=1, field=field)
        for p in (probe, member):
            if p.is_zero():
                continue
            bound = ideal_span_bound(p, gens)
            by_nf = basis.normal_form(p).is_zero()
            by_span = span_contains(p, gens, bound)
            assert by_nf == by_span
            agreements += 1
    assert agreements >= 150


def test_module_basis_scalar_multiple():
    field = QQ
    variables = ("x", "y")
    v = (P("2*x"), P("2*y"))
    mb = ModuleBasis(field, variables, 2, [v])
    assert mb.basis == [(P("x"), P("y"))]
    assert mb.contains((P("x"), P("y")))


def test_module_empty_and_reflexive_membership():
    mb = ModuleBasis(QQ, ("x", "y"), 2, [])
    assert mb.basis == []
    v = (P("y^2"), P("-x*y"))
    assert mb.normal_form(v) == v
    mb2 = ModuleBasis(QQ, ("x", "y"), 2, [v])
    assert mb2.contains(v)


def test_module_submodule_closure():
    v = (P("2*x"), P("2*y"))
    mb = ModuleBasis(QQ, ("x", "y"), 2, [v])
    assert mb.contains((P("x^2"), P("x*y")))
    assert not mb.contains((P("y"), P("x")))


def test_module_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        ModuleBasis(QQ, ("x", "y"), 2, [(P("x"),)])


def test_module_membership_matches_dense_oracle():
    rng = random.Random(202)
    checked = 0
    for trial in range(60):
        nvars = rng.randint(1, 2)
        variables = tuple("xy"[:nvars])
        rank = rng.randint(1, 2)
        gens = []
        for _ in range(rng.randint(1, 3)):
            vec = tuple(random_poly(rng, variables, degree=2) for _ in range(rank))
            if any(not c.is_zero() for c in vec):
                gens.append(vec)
        if not gens:
            continue
        mb = ModuleBasis(QQ, variables, rank, gens)
        probe = tuple(random_poly(rng, variables, degree=2) for _ in range(rank))
        scalar = random_poly(rng, variables, degree=1)
        member = tuple(c * scalar for c in gens[0])
        for v in (probe, member):
            bound = module_span_bound(v, gens, QQ)
            assert mb.contains(v) == module_span_contains(v, gens, bound, QQ)
            checked += 1
    assert checked >= 80


def test_buchberger_deterministic():
    gens = [P("x^2 + y^2 - 1"), P("x*y - 1"), P("x^3 - y")]
    b1 = IdealBasis(QQ, ("x", "y"), gens).basis
    for order in itertools.permutations(gens):
        assert IdealBasis(QQ, ("x", "y"), list(order)).basis == b1


def test_module_basis_independent_of_generator_order():
    rng = random.Random(303)
    for _ in range(20):
        gens = [tuple(random_poly(rng, degree=2) for _ in range(2)) for _ in range(3)]
        gens = [v for v in gens if any(v)]
        expected = ModuleBasis(QQ, ("x", "y"), 2, gens).basis
        rng.shuffle(gens)
        assert ModuleBasis(QQ, ("x", "y"), 2, gens).basis == expected


def test_module_pairs_with_coprime_leads_are_not_skipped():
    # the S-vector y*(x, 1) - x*(y, 0) = (0, y) lives only in the tails
    x, y, one, zero = P("x"), P("y"), P("1"), P("0")
    mb = ModuleBasis(QQ, ("x", "y"), 2, [(x, one), (y, zero)])
    assert mb.contains((zero, y))


def test_capped_ideal_basis_refuses_elements_above_the_cap():
    variables = ("x", "dx")
    basis = IdealBasis(QQ, variables, [P("dx^2", variables=variables)], grading=[(0,), (1,)], cap=(1,))
    assert basis.normal_form(P("x*dx", variables=variables)) == P("x*dx", variables=variables)
    with pytest.raises(ValueError):
        basis.normal_form(P("dx^2", variables=variables))


def test_grade_columns_match_the_loop_definition():
    """The cap test on precomputed weight columns agrees with grades from the
    per-variable double loop on random exponents and gradings."""
    rng = random.Random(4411)
    for _ in range(300):
        nvars, k = rng.randint(0, 5), rng.randint(1, 3)
        grading = [tuple(rng.randint(0, 2) for _ in range(k)) for _ in range(nvars)]
        cap = tuple(rng.randint(0, 4) for _ in range(k))
        columns = groebner.grade_columns(grading)
        exps = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(0, 3))]
        grades = [loop_monomial_grade(e, grading) for e in exps]
        fits = all(g <= c for grade in grades for g, c in zip(grade, cap))
        assert groebner.fits_cap(exps, columns, cap) == fits


def _random_row(rng, field, nvars, rank, monomials):
    """A rank-`rank` row with up to five terms drawn from `monomials`."""
    values = [1, -1, 2, 3, -5] + ([Fraction(1, 2), Fraction(-2, 3)] if field.char == 0 else [])
    row = [{} for _ in range(rank)]
    for _ in range(rng.randint(1, 5)):
        c = field.of(rng.choice(values))
        if c:
            row[rng.randrange(rank)][rng.choice(monomials)] = c
    return {pos: comp for pos, comp in enumerate(row) if comp}


def _reducer_cases(rng, field):
    """(rows, rank, grading, cap, probe rows): random ideals in 2-3 variables,
    rank-2/3 modules in 2 variables, and ideals homogeneous in an N^2-grading
    truncated at a cap."""
    cases = []
    for _ in range(30):
        nvars = rng.randint(2, 3)
        monos = [m for m in itertools.product(range(4), repeat=nvars) if sum(m) <= 3]
        gens = [_random_row(rng, field, nvars, 1, monos) for _ in range(rng.randint(2, 3))]
        probes = [_random_row(rng, field, nvars, 1, monos) for _ in range(3)]
        cases.append((gens, 1, None, None, probes))
    for _ in range(30):
        rank = rng.randint(2, 3)
        monos = [m for m in itertools.product(range(3), repeat=2) if sum(m) <= 2]
        gens = [_random_row(rng, field, 2, rank, monos) for _ in range(rng.randint(2, 4))]
        probes = [_random_row(rng, field, 2, rank, monos) for _ in range(3)]
        cases.append((gens, rank, None, None, probes))
    grading = [(1, 0), (1, 0), (0, 1), (0, 1)]
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(2, 4)):
            grade = rng.choice([(1, 1), (2, 0), (1, 2), (0, 2), (2, 1)])
            monos = [
                m for m in itertools.product(range(3), repeat=4)
                if loop_monomial_grade(m, grading) == grade
            ]
            gens.append(_random_row(rng, field, 4, 1, monos))
        monos = [m for m in itertools.product(range(3), repeat=4) if sum(m) <= 4]
        probes = [_random_row(rng, field, 4, 1, monos) for _ in range(3)]
        cases.append((gens, 1, grading, (3, 3), probes))
    return cases


def _sparse_row(rng, field, window, monomials):
    """A row on one to three positions of `window`, one or two terms each."""
    values = [1, -1, 2, 3] + ([Fraction(1, 2)] if field.char == 0 else [])
    row = {}
    for pos in sorted(rng.sample(window, rng.randint(1, 3))):
        comp = {rng.choice(monomials): field.of(rng.choice(values)) for _ in range(rng.randint(1, 2))}
        comp = {e: c for e, c in comp.items() if c}
        if comp:
            row[pos] = comp
    return row


def _sparse_cases(rng, field):
    """(rows, rank, None, None, probe rows) at the ranks of the solver targets
    (8-24), with every row on one to three positions of a four-position window,
    plus probes that are monomial multiples of a generator."""
    monos = [m for m in itertools.product(range(3), repeat=2) if sum(m) <= 2]
    cases = []
    for _ in range(30):
        rank = rng.randint(8, 24)
        start = rng.randrange(rank - 3)
        window = range(start, start + 4)
        gens = [_sparse_row(rng, field, window, monos) for _ in range(rng.randint(2, 4))]
        probes = [_sparse_row(rng, field, window, monos) for _ in range(3)]
        g, shift = rng.choice(gens), rng.choice(monos)
        probes.append({q: {tuple(map(sum, zip(e, shift))): c for e, c in comp.items()} for q, comp in g.items()})
        cases.append((gens, rank, None, None, probes))
    return cases


@pytest.mark.parametrize("field", [QQ, GF(3), GF(32003)], ids=repr)
def test_module_basis_leads_are_the_leading_terms_of_its_vectors(field, monkeypatch):
    """`ModuleBasis.leads`, read off the index, is the set of dense vectors'
    leading terms (`oracles.vector_leading`), one per basis row; building the
    basis and reading `leads` build no dense vector."""
    rng = random.Random(4100 + field.char)
    built = []
    vector = ModuleBasis._vector
    monkeypatch.setattr(ModuleBasis, "_vector", lambda self, row: built.append(row) or vector(self, row))
    compared = 0
    for gens, rank, _, _, _ in _reducer_cases(rng, field) + _sparse_cases(rng, field):
        exps = [e for row in gens for comp in row.values() for e in comp]
        if rank == 1 or not exps:
            continue
        variables = tuple(f"x{i}" for i in range(len(exps[0])))
        vectors = [tuple(Polynomial(field, variables, row.get(q, {})) for q in range(rank)) for row in gens]
        mb = ModuleBasis(field, variables, rank, vectors)
        leads = mb.leads
        assert not built
        basis = mb.basis
        assert leads == {vector_leading(v) for v in basis} and len(leads) == len(basis)
        built.clear()
        compared += 1
    assert compared >= 50


def _items(row):
    return [(pos, [(e, type(c), c) for e, c in comp.items()]) for pos, comp in row.items()]


def _copy(row):
    return {pos: dict(comp) for pos, comp in row.items()}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(32003)], ids=repr)
def test_heap_reducer_matches_rescan_oracle(field, monkeypatch):
    """Bases, certificate degrees and normal forms, term order included, equal
    those of the reducer that rescans for each leading term."""
    rng = random.Random(7300 + field.char)
    cases = _reducer_cases(rng, field)
    sparse = _sparse_cases(rng, field)
    engine_reduce, engine_add = groebner._reduce, groebner._add_multiple

    def bases(cases):
        return [groebner._groebner(gens, rank, field, grading, cap) for gens, rank, grading, cap, _ in cases]

    # positions a reduction step opens in the work row, or empties there
    steps = {"opened": 0, "emptied": 0}

    def watched(work, g, delta, coef, field, skip=-1):
        before = set(work)
        engine_add(work, g, delta, coef, field, skip)
        if skip >= 0:
            steps["opened"] += bool(set(work) - before)
            steps["emptied"] += bool(before - set(work))

    monkeypatch.setattr(groebner, "_reduce", rescan_reduce)
    expected, expected_sparse = bases(cases), bases(sparse)
    monkeypatch.setattr(groebner, "_add_multiple", watched)
    # normal forms over the oracle's bases first: a wrong reduction order
    # shows in the remainder's term order long before it slows a basis build
    for (basis, certs), (_, rank, _, _, probes) in zip(expected + expected_sparse, cases + sparse):
        index = groebner._index(basis, certs, rank)
        for p in probes:
            got = engine_reduce(_copy(p), index, field)
            want = rescan_reduce(_copy(p), index, field)
            assert (_items(got[0]), got[1]) == (_items(want[0]), want[1])
    assert steps["opened"] and steps["emptied"]
    monkeypatch.setattr(groebner, "_reduce", engine_reduce)
    got, got_sparse = bases(cases), bases(sparse)
    for mine, theirs in ((got, expected), (got_sparse, expected_sparse)):
        assert [([_items(r) for r in b], c) for b, c in mine] == [
            ([_items(r) for r in b], c) for b, c in theirs
        ]
    grown = sum(len(basis) > len(gens) for (basis, _), (gens, *_) in zip(got, cases))
    assert grown >= len(cases) // 4  # S-pairs added elements, not just interreduction


@pytest.mark.parametrize("field", [QQ, GF(3), GF(32003)], ids=repr)
def test_reference_buchberger_bases_equal_the_engine_bases(field):
    """The reference Buchberger's reduced bases equal `IdealBasis` (graded
    and truncated ones too) and `ModuleBasis`, term for term, on seeded rows;
    so does the bound of `ModuleBasis.normal_form_with_bound` on each probe."""
    rng = random.Random(3800 + field.char)
    compared = grown = 0
    for gens, rank, grading, cap, probes in _reducer_cases(rng, field) + _sparse_cases(rng, field):
        exps = [e for row in gens for comp in row.values() for e in comp]
        if not exps:
            continue
        variables = tuple(f"x{i}" for i in range(len(exps[0])))
        rows, _ = reference_groebner(gens, rank, field, grading, cap)
        vectors = [tuple(Polynomial(field, variables, row.get(q, {})) for q in range(rank)) for row in gens]
        if rank == 1:
            basis = IdealBasis(field, variables, [v[0] for v in vectors], grading, cap).basis
            assert [p.terms for p in basis] == [row[0] for row in rows]
        else:
            mb = ModuleBasis(field, variables, rank, vectors)
            assert [[c.terms for c in v] for v in mb.basis] == [[row.get(q, {}) for q in range(rank)] for row in rows]
            for probe in probes:
                v = tuple(Polynomial(field, variables, probe.get(q, {})) for q in range(rank))
                assert mb.normal_form_with_bound(v) == (mb.normal_form(v), module_span_bound(v, vectors, field))
        compared += 1
        grown += len(rows) > len(gens)
    assert compared >= 100 and grown >= compared // 4


@pytest.mark.parametrize(
    "foreign",
    [
        lambda: (P("a", QQ, ("a", "b")), P("b", QQ, ("a", "b"))),
        lambda: (P("x", GF(3), ("x", "y")), P("0", GF(3), ("x", "y"))),
    ],
    ids=["variables", "field"],
)
def test_module_normal_forms_refuse_foreign_vectors(foreign):
    gens = ("x", "y")
    mb = ModuleBasis(QQ, gens, 2, [(P("x", QQ, gens), P("y", QQ, gens)), (P("y", QQ, gens), P("0", QQ, gens))])
    v = foreign()
    for call in (mb.normal_form, mb.normal_form_with_bound, mb.contains):
        with pytest.raises(ValueError, match="polynomial is not in the ambient ring"):
            call(v)
    with pytest.raises(ValueError, match="rank mismatch"):
        mb.normal_form_with_bound(v[:1])


def test_bases_over_their_own_ring_objects_compare_no_fields(monkeypatch):
    gens = ("x", "y")
    F = GF(3)
    ideal = [P("x^2 + y^2 - 1", F, gens), P("x*y - 1", F, gens)]
    vectors = [(P("x", F, gens), P("y", F, gens)), (P("y^2", F, gens), P("0", F, gens))]
    compared = []
    eq = Field.__eq__

    def counting(self, other):
        compared.append(other)
        return eq(self, other)

    monkeypatch.setattr(Field, "__eq__", counting)
    ib = IdealBasis(F, gens, ideal)
    nf = ib.normal_form(P("x^3*y", F, gens))
    mb = ModuleBasis(F, gens, 2, vectors)
    mnf = mb.normal_form((P("x^2*y", F, gens), P("y^3", F, gens)))
    assert compared == []

    # equal generators built apart still pass, with the same results; a field
    # is one object per characteristic, so Field(3) is F itself
    apart_field, apart_gens = Field(3), tuple(list(gens))
    assert apart_field is F and apart_gens is not gens

    def apart(p):
        return Polynomial(apart_field, apart_gens, p.terms)

    assert IdealBasis(F, gens, [apart(g) for g in ideal]).basis == ib.basis
    assert ib.normal_form(apart(P("x^3*y", F, gens))) == nf
    assert ModuleBasis(F, gens, 2, [tuple(map(apart, v)) for v in vectors]).basis == mb.basis
    assert mb.normal_form((apart(P("x^2*y", F, gens)), apart(P("y^3", F, gens)))) == mnf
    assert compared == []

    # another field is refused
    other = P("x^2 + y^2 - 1", GF(5), gens)
    with pytest.raises(ValueError, match="different rings"):
        IdealBasis(F, gens, [ideal[0], other])
    with pytest.raises(ValueError, match="not in the ambient ring"):
        ib.normal_form(other)
    with pytest.raises(ValueError, match="wrong ring"):
        ModuleBasis(F, gens, 2, [vectors[0], (other, P("0", F, gens))])
