"""Canonical coefficients: a rational is an int exactly when it is integral."""

import copy
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kcx import fields, groebner
from kcx.cli import run
from kcx.fields import GF, QQ, Field
from kcx.gallery import run_gallery
from kcx.poly import Polynomial, exp_div, exp_divides, exp_lcm, exp_mask, exp_mul, grevlex_key

import oracles

EXAMPLES = Path(__file__).parent.parent / "examples_kcx"


def canonical(field, c) -> bool:
    if field.char:
        return type(c) is int and 0 <= c < field.char
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_qq_results_are_int_iff_integral():
    assert type(QQ.of("6/3")) is int and QQ.of("6/3") == 2
    assert type(QQ.of(Fraction(4, 2))) is int and QQ.of(Fraction(4, 2)) == 2
    assert type(QQ.of(True)) is int
    assert QQ.of("1/3") == Fraction(1, 3)
    assert type(QQ.inv(1)) is int and QQ.inv(1) == 1
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(-1, 3)) == -3
    assert QQ.inv(2) == Fraction(1, 2) and QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.zero() == 0 and type(QQ.zero()) is int
    assert QQ.one() == 1 and type(QQ.one()) is int
    values = [0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-2, 3),
              Fraction(4, 3), Fraction(5, 6)]
    for a in values:
        assert canonical(QQ, QQ.of(a)) and QQ.of(a) == a
        assert canonical(QQ, QQ.neg(a)) and QQ.neg(a) == -a
        if a:
            assert canonical(QQ, QQ.inv(a)) and QQ.inv(a) == 1 / Fraction(a)
        for b in values:
            for op, exact in ((QQ.add, a + b), (QQ.sub, a - b), (QQ.mul, a * b)):
                got = op(a, b)
                assert got == exact and canonical(QQ, got), (op, a, b, got)
            for c in values:
                got = QQ.addmul(a, b, c)
                assert got == a + b * c and canonical(QQ, got), (a, b, c, got)


def test_qq_fused_step_is_int_when_the_result_is_integral():
    for a, b, c, exact in (
        (0, Fraction(1, 2), 2, 1),
        (Fraction(1, 3), Fraction(2, 3), 1, 1),
        (Fraction(1, 2), Fraction(-1, 4), 2, 0),
        (3, -2, 5, -7),
        (Fraction(1, 2), 1, 1, Fraction(3, 2)),
    ):
        got = QQ.addmul(a, b, c)
        assert got == exact and canonical(QQ, got), (a, b, c, got)


def test_prime_field_values_stay_reduced():
    F = GF(7)
    assert F.of(Fraction(1, 2)) == 4 and F.inv(3) == 5 and F.of(-1) == 6
    for a in range(7):
        for b in range(7):
            for got in (F.add(a, b), F.sub(a, b), F.mul(a, b)):
                assert canonical(F, got)
            for c in range(7):
                got = F.addmul(a, b, c)
                assert got == (a + b * c) % 7 and canonical(F, got)


def test_large_prime_field_fused_step_stays_reduced():
    F = GF(32003)
    rng = random.Random(32003)
    values = [0, 1, 2, 32002, 16001] + [rng.randrange(32003) for _ in range(20)]
    for a in values:
        for b in values:
            for c in values:
                got = F.addmul(a, b, c)
                assert got == F.add(a, F.mul(b, c)) and canonical(F, got), (a, b, c, got)


def test_each_characteristic_is_proved_prime_once_per_process(monkeypatch):
    proved = []
    is_prime = fields._is_prime
    monkeypatch.setattr(fields, "_is_prime", lambda n: proved.append(n) or is_prime(n))
    p = 2**31 - 19  # a prime no other test builds, so its field is new here
    # the gluing file has four algebra blocks, each built over the same field
    code, _ = run(["glue", str(EXAMPLES / "p1.kcx"), "--char", str(p)])
    assert code == 0 and proved == [p]
    for _ in range(1000):
        assert Field(p) is GF(p) and Field(p).char == p
    assert proved == [p]
    for _ in range(2):  # an invalid characteristic is refused on every call
        with pytest.raises(ValueError, match="got 2147483645"):
            Field(2**31 - 3)  # 5 * 429496729
    assert proved == [p, 2**31 - 3, 2**31 - 3]


@pytest.mark.parametrize("p", [0, 2, 3, 32003])
def test_one_field_object_per_characteristic(p):
    assert Field(p) is GF(p) is Field(p)
    assert (Field(0) is QQ) and copy.copy(GF(p)) is GF(p) and pickle.loads(pickle.dumps(GF(p))) is GF(p)
    assert GF(p).char == p and QQ.char == 0


def test_fields_compare_and_hash_by_identity():
    assert "__eq__" not in vars(Field) and "__hash__" not in vars(Field)
    assert Field.__eq__ is object.__eq__ and Field.__hash__ is object.__hash__
    assert len({QQ, Field(0), GF(3), Field(3)}) == 2 and QQ != GF(3)


def test_primitive_rows_are_integral_multiples_with_content_one():
    rng = random.Random(1968)
    values = [0, 1, -1, 2, -4, 6, 12, Fraction(1, 2), Fraction(-5, 6), Fraction(7, 12), Fraction(3, 4)]
    for _ in range(300):
        row = {j: QQ.of(rng.choice(values)) for j in range(rng.randint(0, 5))}
        row = {j: c for j, c in row.items() if c}
        got = QQ.primitive(dict(row))
        assert list(got) == list(row)
        if not row:
            continue
        assert all(type(c) is int for c in got.values())
        assert math.gcd(*got.values()) == 1
        first = next(iter(row))
        ratio = Fraction(got[first]) / row[first]
        assert all(got[j] == ratio * c for j, c in row.items())
    for F in (GF(2), GF(32003)):
        row = {0: 1, 3: F.of(-1)}
        assert F.primitive(row) is row


def test_render_is_the_same_for_equal_int_and_fraction_coefficients():
    variables = ("x", "y")
    for a, b in ((3, Fraction(3)), (-1, Fraction(-1)), (1, Fraction(2, 2)), (-12, Fraction(-24, 2))):
        assert QQ.render(a) == QQ.render(b)
        as_int = Polynomial(QQ, variables, {(1, 0): a, (0, 0): a, (0, 2): -a})
        as_fraction = Polynomial(QQ, variables, {(1, 0): b, (0, 0): b, (0, 2): -b})
        assert as_int == as_fraction
        assert as_int.render() == as_fraction.render()


def test_public_construction_stores_canonical_coefficients():
    p = Polynomial(QQ, ("x",), {(1,): Fraction(4, 2), (0,): Fraction(1, 2), (2,): Fraction(0)})
    assert p.terms == {(1,): 2, (0,): Fraction(1, 2)} and type(p.terms[(1,)]) is int
    q = Polynomial(GF(3), ("x",), {(1,): 5, (0,): 3})
    assert q.terms == {(1,): 2}


def test_gallery_bases_hold_only_canonical_coefficients(monkeypatch):
    built = []
    engine = groebner._groebner

    def recording(rows, rank, field, *rest):
        basis, certs = engine(rows, rank, field, *rest)
        built.append((field, basis))
        return basis, certs

    monkeypatch.setattr(groebner, "_groebner", recording)
    cases = run_gallery()
    assert all(case.passed for case in cases)
    fields = {field for field, _ in built}
    assert QQ in fields and GF(2) in fields
    coefficients = [
        (field, c) for field, basis in built for row in basis for comp in row.values() for c in comp.values()
    ]
    assert any(type(c) is Fraction for _, c in coefficients)
    assert all(canonical(field, c) for field, c in coefficients)


@pytest.mark.parametrize("nvars", [1, 3, 5, 16, 32, 40])
def test_exponent_helpers_match_their_definitions(nvars):
    rng = random.Random(40 + nvars)
    for _ in range(300):
        a = tuple(rng.randint(0, 4) for _ in range(nvars))
        b = tuple(rng.randint(0, 4) for _ in range(nvars))
        assert grevlex_key(a) == oracles.grevlex_key(a)
        assert exp_mul(a, b) == tuple(x + y for x, y in zip(a, b))
        assert exp_divides(a, b) == all(x <= y for x, y in zip(a, b))
        assert exp_mask(a) == sum(1 << i for i, x in enumerate(a) if x)
        # mostly-zero exponents, as in the engine's rings, so divisors are common;
        # the mask test may pass over a candidate only when it cannot divide
        c, e = (tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(nvars)) for _ in range(2))
        for d, m in ((a, b), (a, exp_mul(a, b)), (c, e), (c, exp_lcm(c, e))):
            assert not (exp_mask(d) & ~exp_mask(m) and exp_divides(d, m)), (d, m)
        assert exp_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
        lcm = exp_lcm(a, b)
        assert exp_div(lcm, a) == tuple(x - y for x, y in zip(lcm, a))
        assert (grevlex_key(a) < grevlex_key(b)) == (oracles.grevlex_key(a) < oracles.grevlex_key(b))
        assert (groebner._term_key(a) < groebner._term_key(b)) == (grevlex_key(a) > grevlex_key(b))
