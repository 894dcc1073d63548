"""Solver columns as Groebner rows.

The bounded-degree solvers write each column as a `groebner.Row` (position ->
term dict, occupied positions only) and reduce it with
`ModuleBasis.sparse_normal_form`.  These tests compare every column and
constant of the two solvers with the module element it stands for, built as
the solvers once built it: `target.combine([(idx, x^exp * r_g)])` on relation
rows and the unit column `r.scaled(scale)` on gluing rows, term for term and in
order.  They also compare `sparse_normal_form` with `normal_form` on random
vectors, and bound the module elements a solve builds by its relation rows.
"""

import itertools
import random

import pytest

import kcx.solve
from kcx import modules
from kcx.algebra import localize, make_algebra, make_morphism
from kcx.connections import connection_residues
from kcx.fields import GF, QQ
from kcx.modules import christoffel_target, kahler_module, make_module
from kcx.poly import Polynomial, _mul_terms
from kcx.solve import (
    _glue_residues,
    glued_connection_check,
    kahler_map,
    solve_connection_space,
)

import helpers
from oracles import shift


def _items(row):
    """A row's positions, each with its (exponent, coefficient) items, in order."""
    return [(pos, list(comp.items())) for pos, comp in row.items()]


def _comp_items(comps):
    """`_items` of the row holding a module element's or vector's components."""
    return _items({pos: c.terms for pos, c in enumerate(comps) if c.terms})


def _row(terms):
    """The row holding ((position, exponent), coefficient) pairs, in their order."""
    row = {}
    for (pos, e), c in terms:
        row.setdefault(pos, {})[e] = c
    return row


def _capture(monkeypatch, module):
    """Record the constants and columns `module` passes to `_affine_equations`."""
    seen = []
    build = module._affine_equations

    def recording(constants, columns, f):
        seen.append((constants, columns))
        return build(constants, columns, f)

    monkeypatch.setattr(module, "_affine_equations", recording)
    return seen


def _old_relation_columns(M, target, keys, first_row=0):
    """Relation-row columns as module elements, one `combine` per unknown and row."""
    one = M.base.field.one()
    columns = {key: {} for key in keys}
    for r, row in enumerate(M.relations, first_row):
        coefs = dict(zip(M.gens, row))
        for key in keys:
            *_, g, idx, exp = key
            if g in coefs and not coefs[g].is_zero():
                columns[key][r] = target.combine([(idx, shift(coefs[g], exp, one))])
    return columns


def _assert_columns_match(columns, old):
    for key, col in old.items():
        assert list(columns[key]) == list(col), key
        for r, element in col.items():
            assert _items(columns[key][r]) == _comp_items(element.comps), (key, r)


def _presented_gf3():
    circle = make_algebra(GF(3), ("x", "y"), ["x^2 + y^2 - 1"])
    return make_module(circle, ("e1", "e2"), [["x", "y"], ["y", "0"]])


SPACE_CASES = {
    "kahler-S2-QQ": (lambda: kahler_module(helpers.sphere(2)), 2),
    "presented-GF3": (_presented_gf3, 2),
}


@pytest.mark.parametrize("case", SPACE_CASES)
def test_space_columns_are_the_old_module_elements(case, monkeypatch):
    build, degree = SPACE_CASES[case]
    M = build()
    seen = _capture(monkeypatch, kcx.solve)
    space = solve_connection_space(M, degree)
    ((constants, columns),) = seen
    target = christoffel_target(M)
    old = _old_relation_columns(M, target, space.unknowns)
    assert any(old.values())
    _assert_columns_match(columns, old)
    zero = {g: target.zero() for g in M.gens}
    assert [_items(c) for c in constants] == [_comp_items(r.comps) for _, r in connection_residues(M, zero)]


def _old_glue_columns(A1, u1, A2, u2, transition, keys, first):
    """Gluing-row columns as before: each unit's residue difference, scaled as an element."""
    L1, L2 = localize(A1, u1), localize(A2, u2)
    t = make_morphism(L1, L2, transition, name="t")
    omega_t = kahler_map(t)
    targets = [christoffel_target(kahler_module(A)) for A in (A1, A2)]
    zeros = [{g: T.zero() for g in kahler_module(A).gens} for T, A in zip(targets, (A1, A2))]
    glue0 = _glue_residues(t, omega_t, *zeros)
    columns = {}
    for key in keys:
        chart_no, g, idx, exp = key
        chart, target, L = chart_no - 1, targets[chart_no - 1], (L1, L2)[chart_no - 1]
        unit = target.gen(target.gens[idx])
        gammas = [{**z, g: unit} if c == chart else z for c, z in enumerate(zeros)]
        rows = _glue_residues(t, omega_t, *gammas)
        mono = Polynomial.monomial(A1.field, L.gens, (*exp, 0), 1)
        scale = t.apply_raw(mono) if chart == 0 else mono
        columns[key] = {first + k: (r - r0).scaled(scale) for k, (r, r0) in enumerate(zip(rows, glue0))}
    return columns, glue0


GLUE_CASES = {
    "p1-QQ": (QQ, ("x",), (), ("y",), (), {"x": "y_inv", "x_inv": "y"}, {"y": "x_inv", "y_inv": "x"}, 3),
    "p1-GF2": (GF(2), ("x",), (), ("y",), (), {"x": "y_inv", "x_inv": "y"}, {"y": "x_inv", "y_inv": "x"}, 2),
    "circle-QQ": (
        QQ,
        ("x", "y"),
        ["x^2 + y^2 - 1"],
        ("u", "v"),
        ["u^2 + v^2 - 1"],
        {"x": "u", "y": "-v", "x_inv": "u_inv"},
        {"u": "x", "v": "-y", "u_inv": "x_inv"},
        1,
    ),
    "shear-QQ": (
        QQ,
        ("x", "y"),
        (),
        ("u", "v"),
        (),
        {"x": "u", "y": "v + u^2", "x_inv": "u_inv"},
        {"u": "x", "v": "y - x^2", "u_inv": "x_inv"},
        1,
    ),
}


@pytest.mark.parametrize("case", GLUE_CASES)
def test_glue_columns_are_the_old_module_elements(case, monkeypatch):
    field, gens1, rels1, gens2, rels2, transition, inverse, degree = GLUE_CASES[case]
    A1, A2 = make_algebra(field, gens1, rels1), make_algebra(field, gens2, rels2)
    u1, u2 = gens1[0], gens2[0]
    seen = _capture(monkeypatch, kcx.solve)
    result = glued_connection_check(A1, u1, A2, u2, transition, inverse, degree=degree)
    ((constants, columns),) = seen

    # relation rows, chart by chart, then the gluing rows
    first, old, old_constants = 0, {}, []
    for chart_no, A in enumerate((A1, A2), 1):
        omega, target = kahler_module(A), christoffel_target(kahler_module(A))
        chart = [key for key in result.space.unknowns if key[0] == chart_no]
        old.update(_old_relation_columns(omega, target, chart, first))
        old_constants += connection_residues(omega, {g: target.zero() for g in omega.gens})
        first += len(omega.relations)
    assert (first > 0) == bool(rels1)
    glued, glue0 = _old_glue_columns(A1, u1, A2, u2, transition, result.space.unknowns, first)
    assert any(not e.is_zero() for col in glued.values() for e in col.values())
    for key, col in glued.items():
        old[key].update(col)
    _assert_columns_match(columns, old)
    expected = [_comp_items(r.comps) for _, r in old_constants] + [_comp_items(r.comps) for r in glue0]
    assert [_items(c) for c in constants] == expected


def _random_vector(rng, target):
    A = target.base
    comps = []
    for _ in target.gens:
        if rng.random() < 0.4:
            comps.append(Polynomial.zero(A.field, A.gens))
            continue
        exps = [tuple(rng.randint(0, 3) for _ in A.gens) for _ in range(rng.randint(1, 4))]
        comps.append(Polynomial(A.field, A.gens, {e: rng.randint(-4, 4) for e in exps}))
    return tuple(comps)


@pytest.mark.parametrize(
    "build",
    [
        lambda: christoffel_target(kahler_module(helpers.sphere(2))),
        lambda: christoffel_target(_presented_gf3()),
        _presented_gf3,
        lambda: kahler_module(make_algebra(GF(2), ("x", "y"), ["y^2 - x^3 - 1"])),
    ],
    ids=["omega-S2-QQ", "target-presented-GF3", "presented-GF3", "kahler-elliptic-GF2"],
)
def test_sparse_normal_form_agrees_with_normal_form(build):
    target = build()
    basis = target.lifted
    rng = random.Random(2020 + target.rank)
    reduced = 0
    for _ in range(60):
        v = _random_vector(rng, target)
        terms = [((pos, e), c) for pos, comp in enumerate(v) for e, c in comp.terms.items()]
        rng.shuffle(terms)  # the input's order does not matter
        nf = basis.normal_form(v)
        got = basis.sparse_normal_form(_row(terms))
        assert _items(got) == _comp_items(nf)
        reduced += sorted((pos, e) for pos, comp in got.items() for e in comp) != sorted(key for key, _ in terms)
    assert reduced  # some vectors were not already normal


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=repr)
@pytest.mark.parametrize("n", [2, 3])
def test_single_term_inputs_take_the_standard_fast_path_exactly(n, field):
    """Every (position, monomial) up to degree 4 of the lifted Omega (x) Omega
    of S^n: `sparse_normal_form` equals `normal_form` term for term, and a
    standard term comes back as the input itself."""
    target = christoffel_target(kahler_module(helpers.sphere(n, field)))
    basis, A = target.lifted, target.base
    rng = random.Random(2100 + 10 * n + field.char)
    exps = [e for e in itertools.product(range(5), repeat=len(A.gens)) if sum(e) <= 4]
    kinds = set()
    for pos in range(target.rank):
        for e in exps:
            c = field.of(rng.choice([1, -1, 2, 5, -7, 12345]))
            v = tuple(
                Polynomial(A.field, A.gens, {e: c} if q == pos else {}) for q in range(target.rank)
            )
            row = {pos: {e: c}}
            got = basis.sparse_normal_form(row)
            nf = basis.normal_form(v)
            assert _items(got) == _comp_items(nf)
            kinds.add("standard" if got is row else "reduced")
            assert (got is row) == (got == {pos: {e: c}})
    assert kinds == {"standard", "reduced"}


def test_scaled_sparse_vectors_are_componentwise_products():
    """The glue columns scale a unit's row component by component with `_mul_terms`."""
    target = christoffel_target(_presented_gf3())
    A = target.base
    rng = random.Random(2021)
    x_plus_y = Polynomial(A.field, A.gens, {(1, 0): 1, (0, 1): 1})
    cases = [((x_plus_y,) * target.rank, x_plus_y)]  # x*y appears twice in every component
    for _ in range(40):
        v = _random_vector(rng, target)
        cases.append((v, next(c for c in _random_vector(rng, target) + (x_plus_y,) if c)))
    merged = 0
    for v, p in cases:
        row = {pos: dict(comp.terms) for pos, comp in enumerate(v) if comp.terms}
        got = {pos: _mul_terms(comp, p.terms, A.field) for pos, comp in row.items()}
        want = [((pos, e), c) for pos, comp in enumerate(v) for e, c in (p * comp).terms.items()]
        assert sorted((pos, e, c) for pos, comp in got.items() for e, c in comp.items()) == sorted(
            (pos, e, c) for (pos, e), c in want
        )
        merged += sum(map(len, got.values())) < sum(map(len, row.values())) * len(p.terms)
    assert merged  # some products collided and were added up


def test_a_solve_builds_module_elements_per_relation_row_not_per_unknown(monkeypatch):
    M = kahler_module(helpers.sphere(2))
    christoffel_target(M).lifted  # the basis is built once, outside the count
    built = []
    init = modules.ModuleElement.__init__

    def counting(self, module, comps):
        built.append(module)
        init(self, module, comps)

    monkeypatch.setattr(modules.ModuleElement, "__init__", counting)
    space = solve_connection_space(M, 3)
    assert space.dimension == 144 and len(space.unknowns) == 282
    # one zero candidate per generator and one residue per relation row
    assert len(built) <= M.rank + len(M.relations)
