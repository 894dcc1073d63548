import random
from math import comb

import pytest

from kcx.errors import ExpansionTooLarge, KcxError
from kcx.fields import GF, QQ, Field
from kcx.parse import MAX_DEPTH, MAX_EXPONENT, MAX_TERMS, ParseError, poly_normalize
from kcx.poly import Polynomial, grevlex_key

from oracles import loop_change_vars


def P(text, field=QQ, variables=("x", "y")):
    return poly_normalize(text, field, variables)


def random_poly(rng, field, variables, degree=3, terms=4):
    p = Polynomial.zero(field, variables)
    for _ in range(terms):
        exp = tuple(rng.randint(0, degree) for _ in variables)
        if sum(exp) > degree:
            continue
        p = p + Polynomial.monomial(field, variables, exp, rng.randint(-4, 4))
    return p


def test_binomial_square_expands():
    assert P("(x+y)^2") == P("x^2 + 2*x*y + y^2")


def test_char_two_normalizes_minus_one():
    assert P("x^2 + y^2 - 1", GF(2)).render() == "x^2 + y^2 + 1"


def test_field_inverse_coefficient():
    assert P("3*(1/3)*x") == P("x")


def test_rational_literals_and_division():
    assert P("2/4") == P("1/2")
    assert P("x/2 + x/2") == P("x")
    with pytest.raises(ParseError):
        P("1/x")
    with pytest.raises(ParseError):
        P("x/0")


def test_unknown_variable_and_bad_exponent():
    with pytest.raises(ParseError):
        P("z + 1")
    with pytest.raises(ParseError):
        P("x^y")
    with pytest.raises(ParseError):
        P("x y")  # no implicit multiplication


def test_products_and_powers_are_bounded_before_they_expand():
    """A product is refused when its factors' term counts multiply past
    MAX_TERMS, a t-term power p^n when C(t+n-1, n) passes it; at the bound
    both expand."""
    xyzw = ("x", "y", "z", "w")

    def terms(names, count):
        return "(" + " + ".join(f"{names[0]}^{k // 10}*{names[1]}^{k % 10}" for k in range(count)) + ")"

    hundred, s = terms("xy", 100), MAX_TERMS // 100
    assert len(P(f"{hundred}*{terms('zw', s)}", variables=xyzw).terms) == 100 * s
    with pytest.raises(ParseError, match=f"could pass {MAX_TERMS} terms"):
        P(f"{hundred}*{terms('zw', s + 1)}", variables=xyzw)
    five = "(1 + x + x^2 + x^3 + x^4)"
    n = max(k for k in range(MAX_EXPONENT + 1) if comb(k + 4, k) <= MAX_TERMS)
    assert n < MAX_EXPONENT
    assert len(P(f"{five}^{n}").terms) == 4 * n + 1  # the bound counts monomials before they collect
    with pytest.raises(ParseError, match=f"could pass {MAX_TERMS} terms"):
        P(f"{five}^{n + 1}")
    assert len(P(f"(x + y)^{MAX_EXPONENT}").terms) == MAX_EXPONENT + 1


def test_substitution_is_bounded_before_it_expands():
    """`substitute` applies the parser's rule: an image power p^n is refused
    when C(t+n-1, n) passes MAX_TERMS, a product of partial images when their
    term counts multiply past it; at the bound both expand."""
    target = ("t", "u")

    def image(var, count):
        return Polynomial(QQ, target, {(k, 0) if var == "t" else (0, k): 1 for k in range(count)})

    xy = Polynomial.variable(QQ, ("x", "y"), "x") * Polynomial.variable(QQ, ("x", "y"), "y")
    s = MAX_TERMS // 100
    at = xy.substitute({"x": image("t", 100), "y": image("u", s)}, target)
    assert len(at.terms) == 100 * s
    with pytest.raises(ExpansionTooLarge, match=f"could pass {MAX_TERMS} terms") as exc:
        xy.substitute({"x": image("t", 100), "y": image("u", s + 1)}, target)
    assert isinstance(exc.value, KcxError)
    t = max(k for k in range(1, MAX_TERMS) if comb(k + 1, 2) <= MAX_TERMS)
    x2 = Polynomial.variable(QQ, ("x",), "x") ** 2
    assert len(x2.substitute({"x": image("t", t)}, target).terms) == 2 * t - 1
    with pytest.raises(ExpansionTooLarge, match=f"could pass {MAX_TERMS} terms"):
        x2.substitute({"x": image("t", t + 1)}, target)


def test_grevlex_order_classic():
    # In grevlex with x > y > z: y^2 beats x*z.
    xz = (1, 0, 1)
    yy = (0, 2, 0)
    assert grevlex_key(yy) > grevlex_key(xz)
    # Degree dominates.
    assert grevlex_key((3, 0, 0)) > grevlex_key((1, 1, 0))


def test_render_parse_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        p = random_poly(rng, QQ, ("x", "y", "z"))
        assert poly_normalize(p.render(), QQ, ("x", "y", "z")) == p
    for _ in range(40):
        p = random_poly(rng, GF(5), ("x", "y"))
        assert poly_normalize(p.render(), GF(5), ("x", "y")) == p


def test_ring_axioms_random():
    rng = random.Random(11)
    for field in (QQ, GF(7)):
        for _ in range(30):
            a = random_poly(rng, field, ("x", "y"))
            b = random_poly(rng, field, ("x", "y"))
            c = random_poly(rng, field, ("x", "y"))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


def test_formal_partial_basics():
    assert P("x^2 + y^2 - 1").partial("x") == P("2*x")
    assert poly_normalize("y^2 - x^3 - 1", QQ, ("x", "y")).partial("x") == P("-3*x^2")
    assert P("5").partial("x").is_zero()


def test_partial_leibniz_and_mixed_symmetry():
    rng = random.Random(13)
    for _ in range(30):
        p = random_poly(rng, QQ, ("x", "y"))
        q = random_poly(rng, QQ, ("x", "y"))
        assert (p * q).partial("x") == p * q.partial("x") + q * p.partial("x")
        assert p.partial("x").partial("y") == p.partial("y").partial("x")


def test_frobenius_in_char_p():
    rng = random.Random(17)
    for p_char in (2, 3, 5):
        field = GF(p_char)
        for _ in range(10):
            a = random_poly(rng, field, ("x", "y"))
            b = random_poly(rng, field, ("x", "y"))
            assert (a + b) ** p_char == a ** p_char + b ** p_char


def test_substitute_refuses_images_outside_the_target_ring():
    target = ("u", "v")
    p = P("x*y + x^2")
    good = poly_normalize("u", QQ, target)
    for bad in (
        poly_normalize("u", QQ, ("u", "w")),  # another variable list
        poly_normalize("u", QQ, ("v", "u")),  # the same names in another order
        poly_normalize("u", GF(3), target),  # another field
    ):
        for images in ({"x": bad, "y": good}, {"x": good, "y": bad}):
            with pytest.raises(ValueError, match="different rings"):
                p.substitute(images, target)
    # an equal variable list built apart passes
    assert p.substitute({"x": good, "y": good}, tuple(list(target))) == poly_normalize("2*u^2", QQ, target)


def test_arithmetic_refuses_operands_from_another_ring():
    a = poly_normalize("x + 1", QQ, ("x", "y"))
    for b in (poly_normalize("x", QQ, ("y", "x")), poly_normalize("x", GF(5), ("x", "y"))):
        for op in (lambda: a + b, lambda: a * b, lambda: a - b):
            with pytest.raises(ValueError, match="different rings"):
                op()
    assert a + poly_normalize("x", Field(0), tuple(["x", "y"])) == poly_normalize("2*x + 1", QQ, ("x", "y"))


def test_substitute_is_ring_homomorphism():
    target = ("u", "v")
    images = {
        "x": poly_normalize("u + v", QQ, target),
        "y": poly_normalize("u", QQ, target),
    }
    p = P("x*y")
    assert p.substitute(images, target) == poly_normalize("u^2 + u*v", QQ, target)
    # identity substitution
    circle = P("x^2 + y^2 - 1")
    ident = {
        "x": Polynomial.variable(QQ, ("x", "y"), "x"),
        "y": Polynomial.variable(QQ, ("x", "y"), "y"),
    }
    assert circle.substitute(ident, ("x", "y")) == circle
    # x -> 0 kills x
    zero_x = {"x": Polynomial.zero(QQ, ("x",))}
    assert poly_normalize("x", QQ, ("x",)).substitute(zero_x, ("x",)).is_zero()
    rng = random.Random(19)
    for _ in range(20):
        a = random_poly(rng, QQ, ("x", "y"))
        b = random_poly(rng, QQ, ("x", "y"))
        assert (a * b).substitute(images, target) == a.substitute(images, target) * b.substitute(images, target)


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(2**31 + 11)


def test_nesting_limit_counts_parentheses_not_signs():
    at_limit = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    assert P(at_limit) == P("x")
    with pytest.raises(ParseError, match=f"nest deeper than {MAX_DEPTH}"):
        P("(" + at_limit + ")")
    assert P("-" * 5001 + "x") == P("-x")
    assert P("-+" * 3000 + "(x - y)^2") == P("(x - y)^2")


def test_change_vars_adds_what_a_rename_merges():
    merged = P("a*b + a - b", variables=("a", "b")).change_vars(("x",), {"a": "x", "b": "x"})
    assert merged == P("x^2", variables=("x",))
    with pytest.raises(KeyError):
        P("x*y").change_vars(("x",))
    rng = random.Random(2915)
    source, target = ("a", "b", "c"), ("x", "y")
    for field in (QQ, GF(3)):
        for _ in range(40):
            rename = {v: rng.choice(target) for v in source}
            p = random_poly(rng, field, source, terms=6)
            images = {v: Polynomial.variable(field, target, rename[v]) for v in source}
            assert p.change_vars(target, rename) == p.substitute(images, target)



def test_change_vars_keeps_the_contract_of_the_exponent_loop():
    """An occurring variable with no target raises KeyError, one that does not
    occur may be missing, and injective renamings (by name or by table) give
    the old loop's terms in the old loop's order."""
    with pytest.raises(KeyError, match="'y'"):
        P("x*y + 1").change_vars(("x", "z"))
    assert P("x^2 - 3").change_vars(("z", "x")) == P("x^2 - 3", variables=("z", "x"))
    rng = random.Random(7321)
    raised = 0
    for field in (QQ, GF(2), GF(5)):
        for _ in range(60):
            source = tuple(f"a{i}" for i in range(rng.randint(1, 4)))
            dropped = rng.choice(source) if rng.random() < 0.3 else None  # has no target
            if rng.random() < 0.5:  # renamed injectively into fresh names
                target = tuple(f"t{i}" for i in range(len(source) + rng.randint(0, 2)))
                rename = dict(zip(source, rng.sample(target, len(source))))
                if dropped:
                    rename[dropped] = "gone"
            else:  # kept by name, in a shuffled target with two extra variables
                target = tuple(v for v in rng.sample(source + ("t0", "t1"), len(source) + 2) if v != dropped)
                rename = None
            p = random_poly(rng, field, source, terms=8)
            try:
                want = loop_change_vars(p, target, rename)
            except KeyError:
                raised += 1
                with pytest.raises(KeyError):
                    p.change_vars(target, rename)
                continue
            got = p.change_vars(target, rename)
            assert got.vars == target and list(got.terms.items()) == list(want.terms.items())
    assert raised > 5
