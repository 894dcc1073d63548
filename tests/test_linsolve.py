import random
from fractions import Fraction

import pytest

from kcx import linsolve
from kcx.fields import GF, QQ
from kcx.linsolve import LinearEquation, affine_linear_solve

from oracles import DenseSolution, dense_affine_solve, free_columns, solution_basis


def test_inconsistent_system_is_empty():
    eqs = [LinearEquation({"c0": 1}, -1), LinearEquation({"c0": 1}, 0)]
    s = affine_linear_solve(eqs, ("c0",), QQ)
    assert s.is_empty
    assert s.dimension == -1
    assert _shape(s) == _oracle_shape(dense_affine_solve(eqs, ("c0",), QQ))


def test_unique_solution():
    eqs = [LinearEquation({"c": 2}, -4)]
    s = affine_linear_solve(eqs, ("c",), QQ)
    assert s.is_unique
    assert s.particular == [Fraction(2)]
    assert _shape(s) == _oracle_shape(dense_affine_solve(eqs, ("c",), QQ))


def test_char_two_collapse_gives_family():
    # 2c = 0 over GF(2) constrains nothing.
    eqs = [LinearEquation({"c": 2}, 0)]
    s = affine_linear_solve(eqs, ("c",), GF(2))
    assert not s.is_empty
    assert s.dimension == 1
    assert _shape(s) == _oracle_shape(dense_affine_solve(eqs, ("c",), GF(2)))


def test_solutions_satisfy_system_exactly():
    eqs = [
        LinearEquation({"a": 1, "b": 2, "c": -1}, -3),
        LinearEquation({"a": 2, "b": -1, "c": 1}, 1),
    ]
    unknowns = ("a", "b", "c")
    s = affine_linear_solve(eqs, unknowns, QQ)
    assert not s.is_empty
    assert s.dimension == 1

    def check(vec):
        vals = dict(zip(unknowns, vec))
        for eq in eqs:
            total = eq.const
            for u, coef in eq.coeffs.items():
                total += coef * vals[u]
            assert total == 0

    check(s.particular)
    hom = [p + b for p, b in zip(s.particular, solution_basis(s)[0])]
    check(hom)
    assert _shape(s) == _oracle_shape(dense_affine_solve(eqs, unknowns, QQ))


def test_contains_membership():
    eqs = [LinearEquation({"a": 1, "b": 1}, -1)]
    s = affine_linear_solve(eqs, ("a", "b"), QQ)
    assert s.contains({"a": Fraction(1), "b": Fraction(0)})
    assert s.contains({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    assert not s.contains({"a": Fraction(1), "b": Fraction(1)})
    assert _shape(s) == _oracle_shape(dense_affine_solve(eqs, ("a", "b"), QQ))


def test_no_equations_full_space():
    s = affine_linear_solve([], ("a", "b"), QQ)
    assert s.dimension == 2
    assert s.particular == [0, 0]
    assert _shape(s) == _oracle_shape(dense_affine_solve([], ("a", "b"), QQ))


def _satisfies(eqs, values, field) -> bool:
    """Direct evaluation of every equation at the point."""
    for eq in eqs:
        total = field.of(eq.const)
        for u, coef in eq.coeffs.items():
            total = field.add(total, field.mul(field.of(coef), values[u]))
        if total:
            return False
    return True


def test_contains_agrees_with_direct_evaluation():
    rng = random.Random(20241)
    for field in (QQ, GF(3), GF(7)):
        for _ in range(60):
            unknowns = tuple(f"u{i}" for i in range(rng.randint(1, 6)))
            eqs = []
            for _ in range(rng.randint(0, 5)):
                coeffs = {u: rng.randint(-2, 2) for u in unknowns if rng.random() < 0.6}
                eqs.append(LinearEquation(coeffs, rng.randint(-2, 2)))
            if eqs and rng.random() < 0.5:
                # a repeated combination makes the system rank-deficient
                a, b = rng.choice(eqs), rng.choice(eqs)
                coeffs = {u: a.coeffs.get(u, 0) + b.coeffs.get(u, 0) for u in unknowns}
                eqs.append(LinearEquation(coeffs, a.const + b.const))
            space = affine_linear_solve(eqs, unknowns, field)

            def agrees(point) -> bool:
                values = dict(zip(unknowns, point))
                return space.contains(values) == _satisfies(eqs, values, field)

            # random points first, from the echelon rows alone, before any read-off
            assert all(agrees([field.of(rng.randint(-2, 2)) for _ in unknowns]) for _ in range(4))
            assert "particular" not in vars(space)
            assert _shape(space) == _oracle_shape(dense_affine_solve(eqs, unknowns, field))
            if not space.is_empty:
                for _ in range(4):
                    point = list(space.particular)
                    for vec in solution_basis(space):
                        t = field.of(rng.randint(-3, 3))
                        point = [field.add(p, field.mul(t, v)) for p, v in zip(point, vec)]
                    nudged = list(point)
                    k = rng.randrange(len(nudged))
                    nudged[k] = field.add(nudged[k], field.one())
                    assert agrees(point) and agrees(nudged)


def test_undeclared_unknown_raises_key_error():
    with pytest.raises(KeyError):
        affine_linear_solve([LinearEquation({"a": 1, "z": 1}, 0)], ("a",), QQ)
    # also when an earlier equation is already inconsistent
    eqs = [LinearEquation({}, 1), LinearEquation({"z": 1}, 0)]
    with pytest.raises(KeyError):
        affine_linear_solve(eqs, ("a",), QQ)


def test_contains_refuses_a_name_that_is_not_an_unknown():
    """A misspelt unknown would otherwise read as 0 and pass unnoticed."""
    space = affine_linear_solve([LinearEquation({"a": 1}, 0)], ("a", "b"), QQ)
    assert space.contains({"b": 5})
    with pytest.raises(KeyError, match="'bb'"):
        space.contains({"bb": 5})
    with pytest.raises(KeyError):
        space.contains({"a": 0, "b": 5, "c": 0})
    empty = affine_linear_solve([LinearEquation({}, 1)], ("a",), QQ)
    assert not empty.contains({"a": 0})
    with pytest.raises(KeyError):  # also when the space is empty
        empty.contains({"z": 0})


def _random_system(rng, field):
    """A small system, wide or tall, with entries that vanish in the field,
    empty rows, repeated rows and combinations that cancel or contradict."""
    n = rng.randint(1, 9)
    m = rng.choice([rng.randint(0, max(n - 1, 1)), rng.randint(n, 2 * n + 3)])
    unknowns = tuple(f"u{i}" for i in range(n))
    # 0, the characteristic and 7ths all exercise entries the row must drop
    values = [-2, -1, 0, 1, 2, 3, Fraction(1, 7), Fraction(-3, 7), field.char]
    density = rng.choice([0.2, 0.5, 0.9])
    eqs = []
    for _ in range(m):
        roll = rng.random()
        if roll < 0.08:
            eqs.append(LinearEquation({}, 0))
        elif roll < 0.12:
            eqs.append(LinearEquation({}, rng.choice([1, 2, 3])))
        else:
            coeffs = {u: rng.choice(values) for u in unknowns if rng.random() < density}
            eqs.append(LinearEquation(coeffs, rng.choice(values)))
    for _ in range(rng.randint(0, 3)):
        if not eqs:
            break
        a, b = rng.choice(eqs), rng.choice(eqs)
        k = rng.choice([1, -1, 2])
        coeffs = {u: a.coeffs.get(u, 0) + k * b.coeffs.get(u, 0) for u in unknowns}
        shift = rng.choice([0, 0, 1])  # 1 makes the combination contradict
        eqs.append(LinearEquation(coeffs, a.const + k * b.const + shift))
        eqs.append(rng.choice(eqs))
    return eqs, unknowns


def _shape(space):
    """`particular`, the read-off of `oracles.solution_basis` and
    `oracles.free_columns`, and the type of every coefficient."""
    return _oracle_shape(DenseSolution(space.particular, solution_basis(space), free_columns(space)))


def _oracle_shape(solution):
    return (
        solution.particular,
        [type(c) for c in solution.particular or ()],
        solution.basis,
        [type(c) for vec in solution.basis for c in vec],
        solution.free,
    )


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(32003)], ids=repr)
def test_sparse_solve_matches_dense_oracle(field):
    rng = random.Random(20245 + field.char)
    kinds = set()
    for _ in range(250):
        eqs, unknowns = _random_system(rng, field)
        space = affine_linear_solve(eqs, unknowns, field)
        oracle = dense_affine_solve(eqs, unknowns, field)
        if not oracle.is_empty:  # membership first, from the echelon rows
            point = dict(zip(unknowns, oracle.particular))
            assert space.contains(point)
            point[unknowns[0]] = field.add(point[unknowns[0]], field.one())
            assert space.contains(point) == _satisfies(eqs, point, field)
        assert "particular" not in vars(space)
        assert _shape(space) == _oracle_shape(oracle)
        kinds.add("empty" if space.is_empty else "unique" if space.is_unique else "family")
        shuffled = list(eqs)
        rng.shuffle(shuffled)
        assert _shape(affine_linear_solve(shuffled, unknowns, field)) == _shape(space)
    assert kinds == {"empty", "unique", "family"}


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_read_off_is_the_same_in_either_order(field):
    """The basis read off the echelon rows before `particular`, or after it,
    gives the oracle's values: the back-substitution leaves the rows as they
    were, and runs once, on the first read."""
    rng = random.Random(33 + field.char)
    for _ in range(100):
        eqs, unknowns = _random_system(rng, field)
        oracle = dense_affine_solve(eqs, unknowns, field)
        basis_first = affine_linear_solve(eqs, unknowns, field)
        particular_first = affine_linear_solve(eqs, unknowns, field)
        assert (solution_basis(basis_first), basis_first.particular) == (oracle.basis, oracle.particular)
        assert (particular_first.particular, solution_basis(particular_first)) == (oracle.particular, oracle.basis)
        assert particular_first.particular is particular_first.particular
        assert (free_columns(basis_first), basis_first.dimension) == (oracle.free, oracle.dimension)


def _canonical(field, c) -> bool:
    if field.char:
        return type(c) is int and 0 <= c < field.char
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _content_system(rng, field):
    """A system with Fraction coefficients (denominators up to 12, none that
    vanishes in the field), rows that share a content and rows that are
    multiples of others."""
    dens = [d for d in range(1, 13) if field.char == 0 or d % field.char]
    n = rng.randint(1, 10)
    unknowns = tuple(f"u{i}" for i in range(n))

    def value():
        return Fraction(rng.randint(-12, 12), rng.choice(dens))

    eqs = []
    for _ in range(rng.randint(1, n + 3)):
        coeffs = {u: value() for u in unknowns if rng.random() < 0.6}
        scale = rng.choice([1, 1, 6, -12, Fraction(1, rng.choice(dens))])  # a content shared by the row
        eqs.append(LinearEquation({u: scale * c for u, c in coeffs.items()}, scale * value()))
    if rng.random() < 0.5:
        a = rng.choice(eqs)
        k = rng.choice([2, -3, Fraction(5, 7)])
        eqs.append(LinearEquation({u: k * c for u, c in a.coeffs.items()}, k * a.const + rng.choice([0, 0, 1])))
    rng.shuffle(eqs)
    return eqs, unknowns


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=repr)
def test_fraction_free_solve_matches_dense_oracle(field):
    """Cross-multiplied elimination on primitive rows gives the oracle's
    solution space, with every entry in canonical form."""
    rng = random.Random(1968 + field.char)
    kinds = set()
    for _ in range(200):
        eqs, unknowns = _content_system(rng, field)
        space = affine_linear_solve(eqs, unknowns, field)
        oracle = dense_affine_solve(eqs, unknowns, field)
        assert _shape(space) == _oracle_shape(oracle)
        entries = [*(space.particular or ()), *(c for vec in solution_basis(space) for c in vec)]
        assert all(_canonical(field, c) for c in entries)
        kinds.add("empty" if space.is_empty else "unique" if space.is_unique else "family")
    assert kinds == {"empty", "unique", "family"}
    # an undeclared unknown is refused even after an inconsistent row
    eqs = [LinearEquation({"a": Fraction(1, 3)}, 0), LinearEquation({"a": 3}, 1), LinearEquation({"z": 6}, 0)]
    with pytest.raises(KeyError):
        affine_linear_solve(eqs, ("a",), field)


def test_an_elimination_that_leaves_its_column_is_refused(monkeypatch):
    """The forward pass checks each elimination at its call site: one that
    leaves the pivot column in the row raises, naming the column, instead of
    eliminating it again forever.  The stand-in gives up on its own after 50
    calls, so without the check this fails rather than hangs."""
    calls = []

    def stuck(row, col, pivot, f):
        calls.append(col)
        if len(calls) > 50:
            raise RuntimeError("the forward pass kept eliminating the same column")
        return dict(row)

    monkeypatch.setattr(linsolve, "_eliminate", stuck)
    eqs = [LinearEquation({"a": 1, "b": 1}, 0), LinearEquation({"a": 1}, -1)]
    with pytest.raises(ArithmeticError, match=r"column 0 \('a'\)"):
        affine_linear_solve(eqs, ("a", "b"), QQ)
    assert calls == [0]
