import random
import tracemalloc

import pytest

import kcx.connections
import kcx.linsolve
import kcx.solve
from kcx.algebra import make_algebra, relabel
from kcx.connections import make_connection
from kcx.dualnum import DualBundle, dual_bundle, dual_connection_solve, dual_numbers_structure
from kcx.errors import KcxError, SolverTooLarge, WellDefinednessFailure
from kcx.fields import GF, QQ
from kcx.modules import (
    christoffel_target,
    free_module,
    kahler_module,
    make_module,
    module_standard_monomials,
)
from kcx.solve import contains_connection, glued_connection_check, solve_connection_space
from kcx.tangent import BundleContext

import helpers
from oracles import eager_make_morphism, linear_dual_solve


def test_standard_monomials_fat_point(fat_point):
    omega = kahler_module(fat_point)
    t = __import__("kcx.modules", fromlist=["tensor_modules"]).tensor_modules(omega, omega)
    basis = list(module_standard_monomials(t, 3))
    # x d(x)(x)d(x) reduces away, so only the constant monomial survives
    assert basis == [(0, (0,))]


def test_solve_fat_point_empty(fat_point):
    omega = kahler_module(fat_point)
    result = solve_connection_space(omega, 3)
    assert result.is_empty


def test_solve_fat_point_char2_family():
    fp2 = make_algebra(GF(2), ("x",), ["x^2"])
    omega = kahler_module(fp2)
    result = solve_connection_space(omega, 3)
    assert not result.is_empty


def test_solve_plane_dimension(plane):
    omega = kahler_module(plane)
    result = solve_connection_space(omega, 1)
    # eight Christoffel polynomials with three coefficients each
    assert not result.is_empty
    assert result.dimension == 24


def test_solve_circle_contains_canonical(circle):
    omega = kahler_module(circle)
    result = solve_connection_space(omega, 1)
    assert not result.is_empty
    nabla = helpers.circle_canonical(circle)
    assert contains_connection(result, nabla)


def test_solve_plane_contains_everything(plane):
    result = solve_connection_space(kahler_module(plane), 2)
    assert contains_connection(result, helpers.plane_twisted(plane))
    assert contains_connection(result, helpers.plane_zero(plane))


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_space_unknowns_are_generator_position_exponent_keys(circle, fat_point, degree):
    modules = [kahler_module(circle), kahler_module(fat_point), make_module(circle, ("u", "v"), [["x", "y"]])]
    for M in modules:
        pairs = list(module_standard_monomials(christoffel_target(M), degree))
        expected = tuple((g, idx, exp) for g in M.gens for idx, exp in pairs)
        assert solve_connection_space(M, degree).unknowns == expected


def test_glued_unknowns_are_chart_one_then_chart_two():
    A1, A2, t, tinv = _p1_charts(QQ)
    space = glued_connection_check(A1, "x", A2, "y", t, tinv, degree=2).space
    expected = []
    for chart, A in ((1, A1), (2, A2)):
        omega = kahler_module(A)
        pairs = list(module_standard_monomials(christoffel_target(omega), 2))
        expected += [(chart, g, idx, exp) for g in omega.gens for idx, exp in pairs]
    assert space.unknowns == tuple(expected)
    assert [key[0] for key in space.unknowns] == [1, 1, 1, 2, 2, 2]


def test_a_connection_with_a_term_above_the_window_is_not_contained(plane):
    omega = kahler_module(plane)
    nabla = make_connection(omega, {"d(x1)": ["x1^2", "0", "0", "0"], "d(x2)": ["0", "0", "0", "1"]})
    assert not contains_connection(solve_connection_space(omega, 1), nabla)
    assert contains_connection(solve_connection_space(omega, 2), nabla)


def test_solution_points_certify_and_nudged_points_fail(plane, circle, sphere2):
    rng = random.Random(20240)
    for A in (plane, circle, sphere2):
        M, f = kahler_module(A), A.field
        space = solve_connection_space(M, 1)
        pivots = [i for i in range(len(space.unknowns)) if i not in space.free]
        for _ in range(3):
            point = helpers.random_point(space, f, rng, 5)
            helpers.connection_at(M, space, point)
            if not pivots:  # no relations: every point is a connection
                assert A is plane
                continue
            nudged = list(point)
            k = rng.choice(pivots)
            nudged[k] = f.add(nudged[k], f.one())
            with pytest.raises(WellDefinednessFailure):
                helpers.connection_at(M, space, nudged)


def test_solvers_evaluate_relation_residues_once_per_module(circle, monkeypatch):
    calls = []
    original = kcx.connections.connection_residues

    def counting(M, gamma):
        calls.append(M)
        return original(M, gamma)

    for module in (kcx.connections, kcx.solve):
        monkeypatch.setattr(module, "connection_residues", counting)
    solve_connection_space(kahler_module(circle), 1)
    assert len(calls) == 1
    calls.clear()
    A1, A2, t, tinv = _p1_charts(QQ)
    glued_connection_check(A1, "x", A2, "y", t, tinv, degree=2)
    assert calls == [kahler_module(A1), kahler_module(A2)]


@pytest.mark.parametrize("degree", [2, 14])
def test_gluing_evaluates_glue_residues_once_per_unit(degree, monkeypatch):
    # once at zero and once per chart unit d(x)@d(x), d(y)@d(y), at any degree
    calls = []
    original = kcx.solve._glue_residues

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kcx.solve, "_glue_residues", counting)
    A1, A2, t, tinv = _p1_charts(QQ)
    assert glued_connection_check(A1, "x", A2, "y", t, tinv, degree=degree).space.is_empty
    assert len(calls) == 3


def test_verdicts_and_membership_run_no_backward_pass(sphere2, monkeypatch):
    """The verdict and membership read the forward pass's echelon rows alone:
    no elimination runs after the solve, and no particular solution, basis or
    reduced row is built until one is read."""
    space = solve_connection_space(kahler_module(sphere2), 3)
    A1, A2, t, tinv = _p1_charts(QQ)
    glued = glued_connection_check(A1, "x", A2, "y", t, tinv, degree=6).space
    calls = []
    original = kcx.linsolve._eliminate
    monkeypatch.setattr(kcx.linsolve, "_eliminate", lambda *args: calls.append(args) or original(*args))
    assert (space.is_empty, space.is_unique, space.dimension) == (False, False, 144)
    assert contains_connection(space, helpers.sphere_canonical(sphere2))
    assert (glued.is_empty, glued.is_unique, glued.dimension) == (True, False, -1)
    assert not glued.contains({})
    assert calls == []
    assert "_solution" not in vars(space) and "_solution" not in vars(glued)
    assert len(space.basis) == 144 and calls  # the first read runs the backward pass


def test_a_verdict_holds_no_dense_basis():
    """S^3 at degree 4 has 2,616 unknowns and a 1,570-dimensional space; its
    dense basis alone would take over 30 MiB."""
    tracemalloc.start()
    try:
        assert solve_connection_space(kahler_module(helpers.sphere(3)), 4).dimension == 1570
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_solve_and_make_connection_build_no_bundle():
    sphere = make_algebra(QQ, ("x1", "x2", "x3"), ["x1^2 + x2^2 + x3^2 - 1"])
    omega = kahler_module(sphere)
    space = solve_connection_space(omega, 1)
    nabla = helpers.connection_at(omega, space, space.particular)
    assert not any(isinstance(v, BundleContext) for v in omega._memo.values())
    assert nabla.ctx is nabla.ctx  # built on first use, then kept
    assert nabla.ctx in omega._memo.values()


# ---------------------------------------------------------------------------
# dual numbers
# ---------------------------------------------------------------------------


def test_dual_numbers_structure_basics(circle):
    dn = dual_numbers_structure(circle)
    assert dn.TA.element(dn.TA.gen(dn.eps) * dn.TA.gen(dn.eps)).is_zero()
    # flip swaps the two square-zero directions and fixes their product
    e, ep = dn.TTA.gen(dn.eps), dn.TTA.gen(dn.epsp)
    assert dn.flip(e) == ep
    assert dn.flip(e * ep) == e * ep
    for m in (dn.p, dn.zero, dn.plus, dn.minus, dn.lift, dn.flip):
        assert m.certified


def test_dual_bundle_zero_module_is_base(circle):
    zero_mod = free_module(circle, 0)
    b = dual_bundle(zero_mod)
    assert b.E.gens == circle.gens


def test_dual_bundle_lift(circle):
    omega = kahler_module(circle)
    b = dual_bundle(omega)
    m_eps = b.eps_gens[0]
    assert b.lam(b.E.gen(m_eps)) == b.TE.gen(m_eps) * b.TE.gen(b.epsp)
    assert b.q(b.E.gen(m_eps)).is_zero()
    for m in (b.q, b.z, b.iota, b.lam):
        assert m.certified


def test_dual_structure_maps_match_their_relabel_tables(circle):
    """0/p/- and z/q/iota come from `tangent._additive_bundle`, and the
    lifts from raw products; each equals the map its own table once built."""
    dn = dual_numbers_structure(circle)
    A, TA, TTA, eps = circle, dn.TA, dn.TTA, dn.eps
    b = dual_bundle(kahler_module(circle))
    E, TE = b.E, b.TE
    pairs = [
        (dn.p, relabel(TA, A, {eps: None}, "p")),
        (dn.zero, relabel(A, TA, {}, "0")),
        (dn.minus, relabel(TA, TA, {eps: f"-{eps}"}, "-")),
        (b.q, relabel(E, A, dict.fromkeys(b.eps_gens), "q")),
        (b.z, relabel(A, E, {}, "z")),
        (b.iota, relabel(E, E, {m: f"-{m}" for m in b.eps_gens}, "iota")),
    ]
    for built, table in pairs:
        assert (built.name, built.certified, built.images) == (table.name, table.certified, table.images)
        assert built.dom is table.dom and built.cod is table.cod

    def eager_lift(B, TB, fibre, epsp, name):
        images = {g: TB.gen(g) * TB.gen(epsp) if g in fibre else TB.gen(g) for g in B.gens}
        return eager_make_morphism(B, TB, images, name=name)

    for built, eager in (
        (dn.lift, eager_lift(TA, TTA, (eps,), dn.epsp, "l")),
        (b.lam, eager_lift(E, TE, b.eps_gens, b.epsp, "lambda")),
    ):
        assert (built.name, built.certified) == (eager.name, eager.certified)
        assert all(built.image_of(g) == eager.image_of(g) for g in built.dom.gens)


def test_dual_solver_no_go():
    line = make_algebra(QQ, ("x",))
    free1 = free_module(line, 1)
    assert dual_connection_solve(free1).is_empty
    # the solve needs no bundle presentation
    assert not any(isinstance(v, DualBundle) for o in (line, free1) for v in o._memo.values())

    point = make_algebra(QQ, ())
    qq_rank1 = free_module(point, 1)
    assert dual_connection_solve(qq_rank1).is_empty


def test_dual_solver_zero_module_solvable():
    line = make_algebra(QQ, ("x",))
    zero_rank = free_module(line, 0)
    assert not dual_connection_solve(zero_rank).is_empty
    # a presented zero module also works
    collapsed = make_module(line, ("e",), [["1"]])
    assert not dual_connection_solve(collapsed).is_empty


def test_dual_solver_presented_nonzero_module_empty():
    line = make_algebra(QQ, ("x",))
    # v = -x*u presents a free rank-1 module, which is nonzero
    presented = make_module(line, ("u", "v"), [["x", "1"]])
    assert dual_connection_solve(presented).is_empty


# algebra name -> (generators, relations) for the square-zero corpus
DUAL_ALGEBRAS = {
    "point": ((), []),
    "line": (("x",), []),
    "fat-point": (("x",), ["x^2"]),
    "circle": (("x", "y"), ["x^2 + y^2 - 1"]),
    "cusp": (("x", "y"), ["y^2 - x^3"]),
}


def _random_entry(rng, gens):
    """A small random polynomial in `gens` of degree at most 1, as text."""
    monomials = ["1", *gens]
    return " + ".join(f"{rng.randint(-2, 2)}*{m}" for m in rng.sample(monomials, rng.randint(1, len(monomials))))


def _dual_corpus(field, rng):
    """(label, module): Kahler, free of rank 0-2, a presented zero module and
    random presented modules, over each algebra of DUAL_ALGEBRAS."""
    for name, (gens, relations) in DUAL_ALGEBRAS.items():
        A = make_algebra(field, gens, relations)
        yield f"{name} Omega", kahler_module(A)
        for n in range(3):
            yield f"{name} free {n}", free_module(A, n)
        yield f"{name} zero", make_module(A, ("u", "v"), [["x" if gens else "0", "1"], ["1", "0"]])
        for k in range(2):
            rows = [[_random_entry(rng, gens) for _ in "uv"] for _ in range(rng.randint(1, 2))]
            yield f"{name} presented {k} {rows}", make_module(A, ("u", "v"), rows)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["QQ", "GF2", "GF3"])
def test_dual_criterion_matches_the_linear_system_and_the_bundle(field):
    """The criterion (every generator of M is zero) gives the same verdict as
    the bounded linear system at degrees 0-3, and holds exactly when every
    epsilon generator of M's square-zero bundle is zero there."""
    rng = random.Random(31)
    verdicts = []
    for label, M in _dual_corpus(field, rng):
        space = dual_connection_solve(M)
        verdict = (space.is_empty, space.dimension)
        for degree in range(4):
            reference = linear_dual_solve(M, degree)
            assert verdict == (reference.is_empty, reference.dimension), (label, degree)
        b = dual_bundle(M)
        assert space.is_empty != all(b.E.gen(e).is_zero() for e in b.eps_gens), label
        assert space.unknowns == ()
        verdicts.append(space.is_empty)
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# projective line gluing
# ---------------------------------------------------------------------------


def _p1_charts(field):
    A1 = make_algebra(field, ("x",))
    A2 = make_algebra(field, ("y",))
    transition = {"x": "y_inv", "x_inv": "y"}
    inverse = {"y": "x_inv", "y_inv": "x"}
    return A1, A2, transition, inverse


def _circle_charts(field):
    A1 = make_algebra(field, ("x", "y"), ["x^2 + y^2 - 1"])
    A2 = make_algebra(field, ("u", "v"), ["u^2 + v^2 - 1"])
    transition = {"x": "u", "y": "-v", "x_inv": "u_inv"}
    inverse = {"u": "x", "v": "-y", "u_inv": "x_inv"}
    return A1, A2, transition, inverse


def _shear_charts(field):
    A1 = make_algebra(field, ("x", "y"))
    A2 = make_algebra(field, ("u", "v"))
    transition = {"x": "u", "y": "v + u^2", "x_inv": "u_inv"}
    inverse = {"u": "x", "v": "y - x^2", "u_inv": "x_inv"}
    return A1, A2, transition, inverse


@pytest.mark.parametrize("charts", [_circle_charts, _shear_charts])
def test_glued_space_points_glue_and_nudged_points_fail(charts):
    # points of the solved space pass the concrete-connection check, which
    # evaluates the gluing residues directly rather than through columns
    rng = random.Random(20246)
    A1, A2, t, tinv = charts(QQ)
    omegas = {1: kahler_module(A1), 2: kahler_module(A2)}
    for degree in (1, 2):
        result = glued_connection_check(A1, "x", A2, "u", t, tinv, degree=degree)
        space = result.space
        assert space.dimension > 0
        pivots = [i for i in range(len(space.unknowns)) if i not in space.free]

        def glue_at(point):
            n1, n2 = (helpers.connection_at(omegas[chart], space, point, chart) for chart in (1, 2))
            return glued_connection_check(A1, "x", A2, "u", t, tinv, nabla1=n1, nabla2=n2)

        for _ in range(3):
            point = helpers.random_point(space, QQ, rng, 5)
            assert glue_at(point).report.all_pass
            nudged = list(point)
            k = rng.choice(pivots)
            nudged[k] += 1
            try:
                report = glue_at(nudged).report
            except WellDefinednessFailure:
                continue
            assert any(
                e.status == "fail" and e.axiom_id.startswith("glue[") for e in report.entries
            )


def test_p1_char0_empty():
    A1, A2, t, tinv = _p1_charts(QQ)
    result = glued_connection_check(A1, "x", A2, "y", t, tinv, degree=6)
    assert result.space is not None
    assert result.space.is_empty


def test_p1_char2_unique_zero():
    A1, A2, t, tinv = _p1_charts(GF(2))
    result = glued_connection_check(A1, "x", A2, "y", t, tinv, degree=6)
    space = result.space
    assert space is not None
    assert not space.is_empty
    assert space.is_unique
    assert all(v == 0 for v in space.particular)


@pytest.mark.parametrize("degree", [0, 2, 6])
def test_identity_gluing_solve_matches_one_chart(degree):
    # the two charts must carry the same Christoffel polynomial of degree <= d
    A1 = make_algebra(QQ, ("x",))
    A2 = make_algebra(QQ, ("y",))
    result = glued_connection_check(
        A1, "x", A2, "y", {"x": "y", "x_inv": "y_inv"}, {"y": "x", "y_inv": "x_inv"},
        degree=degree,
    )
    assert result.space.dimension == degree + 1


def test_identity_gluing_plane_passes(plane):
    # two copies of the affine line glued by the identity, equal connections
    A1 = make_algebra(QQ, ("x",))
    A2 = make_algebra(QQ, ("y",))
    omega1, omega2 = kahler_module(A1), kahler_module(A2)
    from kcx.connections import make_connection
    from kcx.modules import tensor_modules

    n1 = make_connection(omega1, {"d(x)": tensor_modules(omega1, omega1).element(["x"])})
    n2 = make_connection(omega2, {"d(y)": tensor_modules(omega2, omega2).element(["y"])})
    result = glued_connection_check(
        A1, "x", A2, "y", {"x": "y", "x_inv": "y_inv"}, {"y": "x", "y_inv": "x_inv"},
        nabla1=n1, nabla2=n2,
    )
    assert result.report.all_pass


def test_mismatched_gluing_fails():
    A1 = make_algebra(QQ, ("x",))
    A2 = make_algebra(QQ, ("y",))
    omega1, omega2 = kahler_module(A1), kahler_module(A2)
    from kcx.connections import make_connection
    from kcx.modules import tensor_modules

    n1 = make_connection(omega1, {"d(x)": tensor_modules(omega1, omega1).element(["x"])})
    n2 = make_connection(omega2, {"d(y)": tensor_modules(omega2, omega2).element(["0"])})
    result = glued_connection_check(
        A1, "x", A2, "y", {"x": "y", "x_inv": "y_inv"}, {"y": "x", "y_inv": "x_inv"},
        nabla1=n1, nabla2=n2,
    )
    assert not result.report.all_pass


def test_non_invertible_transition_rejected():
    A1 = make_algebra(QQ, ("x",))
    A2 = make_algebra(QQ, ("y",))
    with pytest.raises(KcxError):
        glued_connection_check(
            A1, "x", A2, "y", {"x": "y", "x_inv": "y_inv"}, {"y": "x_inv", "y_inv": "x"}
        )


def test_solves_over_the_unknown_limit_are_refused_before_any_column(monkeypatch):
    def no_columns(*args):
        raise AssertionError("the system was built")

    A = make_algebra(QQ, ("x",))
    M = free_module(A, 1)  # one unknown per monomial: count = degree + 1
    limit = kcx.solve.MAX_UNKNOWNS
    too_many = f"more than {limit} unknowns"
    assert solve_connection_space(M, 5).dimension == 6
    monkeypatch.setattr(kcx.solve, "_leibniz_rows", no_columns)
    with pytest.raises(SolverTooLarge, match=too_many) as exc:
        solve_connection_space(M, limit)
    assert isinstance(exc.value, ValueError)
    with pytest.raises(AssertionError, match="was built"):  # exactly the limit is admitted
        solve_connection_space(M, limit - 1)
    # the gluing counts both charts: 2 * (degree + 1) unknowns on P^1
    B = make_algebra(QQ, ("y",))
    with pytest.raises(SolverTooLarge, match=too_many):
        glued_connection_check(
            A, "x", B, "y", {"x": "y_inv", "x_inv": "y"}, {"y": "x_inv", "y_inv": "x"},
            degree=limit // 2,
        )
