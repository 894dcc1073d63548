"""Every argument guard of the engine, with its exception type and message.

One table row per guard: a call that breaks the guard's precondition, the
exception class it raises and the exact message.  Then the small protocol
methods (`__repr__`, `__hash__`, reflected operators, `AlgebraMorphism`
equality) that no other test calls.
"""

import pytest

from kcx.algebra import (
    AlgebraMorphism,
    GenRole,
    PresentedAlgebra,
    compose_morphisms,
    identity_morphism,
    make_algebra,
    make_morphism,
    relabel,
    tensor_over_base,
)
from kcx.connections import free_canonical_connection, make_connection, pullback_connection, retract_connection
from kcx.errors import OwnerMismatch
from kcx.fields import GF, QQ, Field
from kcx.modules import ModuleMorphism, free_module, kahler_module, make_module, tensor_modules, wedge_square
from kcx.parse import ParseError, poly_normalize
from kcx.poly import Polynomial
from kcx.solve import glued_connection_check, solve_connection_space
from kcx.tangent import bracketing, bundle_combine, bundle_context, tangent_algebra


def _plane():
    return make_algebra(QQ, ("x", "y"), [])


def _line(field=QQ):
    return make_algebra(field, ("t",), [])


def _retract_with_foreign_section():
    F = free_module(_plane(), 2)
    other = free_module(F.base, 2)
    s = ModuleMorphism(F, F, {"e1": F.gen("e1"), "e2": F.gen("e2")})
    r = ModuleMorphism(other, other, {"e1": other.gen("e1"), "e2": other.gen("e2")})
    return retract_connection(free_canonical_connection(F.base, 2), s, r)


def _tensor_over_two_fields():
    A = _line()
    return tensor_over_base(make_morphism(A, _line(), {"t": "t"}), make_morphism(A, _line(GF(3)), {"t": "t"}))


def _tensor_along(image: str, grading=None):
    """A tensor over the line whose first factor map sends t to `image` in
    k[y, z], graded by `grading` when given."""
    B = PresentedAlgebra(QQ, ("y", "z"), [], grading=grading)
    A = _line()
    return tensor_over_base(make_morphism(A, B, {"t": image}), make_morphism(A, B, {"t": "y"}))


def _plane_free():
    return free_module(_plane(), 2)


GUARDS = {
    # algebra
    "algebra repeats a generator": (
        lambda: PresentedAlgebra(QQ, ("x", "x"), []), ValueError, "duplicate generator names"),
    "algebra relation over other names": (
        lambda: PresentedAlgebra(QQ, ("x",), [Polynomial.variable(QQ, ("x", "y"), "y")]),
        ValueError, "relation not over the algebra's generators"),
    "algebra roles miss a generator": (
        lambda: PresentedAlgebra(QQ, ("x",), [], roles={"y": GenRole("base", "y")}),
        ValueError, "role table must cover every generator exactly once"),
    "morphism misses an image": (
        lambda: AlgebraMorphism(_plane(), _line(), {"x": Polynomial.variable(QQ, ("t",), "t")}),
        ValueError, "missing image for generator(s): ['y']"),
    "composition of unmatched maps": (
        lambda: compose_morphisms(identity_morphism(_plane()), identity_morphism(_line())),
        ValueError, "codomain/domain mismatch in composition"),
    "tensor over two fields": (_tensor_over_two_fields, ValueError, "morphism: domain over QQ, codomain over GF(3)"),
    "morphism across fields": (
        lambda: AlgebraMorphism(_line(), _line(GF(3)), {"t": Polynomial.variable(GF(3), ("t",), "t")}, name="f"),
        ValueError, "f: domain over QQ, codomain over GF(3)"),
    "morphism across fields from expressions": (
        lambda: make_morphism(_line(GF(3)), _line(), {"t": "t"}, name="g"),
        ValueError, "g: domain over GF(3), codomain over QQ"),
    "renaming across fields": (
        lambda: relabel(_line(), _line(GF(5)), {}), ValueError, "morphism: domain over QQ, codomain over GF(5)"),
    "tensor along a map that is not a plain renaming": (
        lambda: _tensor_along("2*y"), ValueError, "factor map sends base generator 't' to 2*y, not to one generator"),
    "tensor along a map onto a generator of nonzero grade": (
        lambda: _tensor_along("y", {"y": (1,), "z": (0,)}),
        ValueError, "factor map sends base generator 't' to 'y' of grade (1,)"),
    # modules
    "module repeats a generator": (
        lambda: make_module(_plane(), ("u", "u")), ValueError, "duplicate module generator names"),
    "module relation of the wrong length": (
        lambda: make_module(_plane(), ("u", "v"), [["x"]]), ValueError, "relation vector has wrong length"),
    "element of another module": (
        lambda: _plane_free().element(_plane_free().gen("e1")),
        OwnerMismatch, "element belongs to a different module"),
    "comparing elements of two modules": (
        lambda: _plane_free().gen("e1") == _plane_free().gen("e1"),
        OwnerMismatch, "comparing elements of different modules"),
    "element of the wrong length": (
        lambda: _plane_free().element(["x"]), ValueError, "component vector has wrong length"),
    "negative free rank": (lambda: free_module(_plane(), -1), ValueError, "rank must be nonnegative"),
    "tensor over two bases": (
        lambda: tensor_modules(_plane_free(), free_module(_line(), 1)),
        ValueError, "tensor factors over different base algebras"),
    "alternation of a foreign element": (
        lambda: wedge_square(kahler_module(_plane())).from_tensor(_plane_free().gen("e1")),
        ValueError, "expected an element of the matching tensor square"),
    "module map between two bases": (
        lambda: ModuleMorphism(_plane_free(), free_module(_line(), 1), {"e1": [0], "e2": [0]}),
        ValueError, "module morphism between different base algebras"),
    "module map misses an image": (
        lambda: (lambda F: ModuleMorphism(F, F, {"e1": F.gen("e1")}))(_plane_free()),
        ValueError, "need exactly one image per domain generator"),
    # connections
    "connection misses an image": (
        lambda: make_connection(_plane_free(), {"e1": 0}),
        ValueError, "need exactly one image per module generator"),
    "pullback along a map from another algebra": (
        lambda: pullback_connection(free_canonical_connection(_plane(), 1), identity_morphism(_line())),
        ValueError, "morphism domain must be the connection's base algebra"),
    "retract with a foreign retraction": (
        _retract_with_foreign_section, ValueError, "need s: M' -> M and r: M -> M'"),
    # tangent
    "third tangent level": (
        lambda: tangent_algebra(tangent_algebra(tangent_algebra(_line()))),
        ValueError, "third tangent level not supported (generator 'dpd_t')"),
    "differential name taken": (
        lambda: tangent_algebra(make_algebra(QQ, ("x", "d_x", "dp_x"), [])),
        ValueError, "differential name 'dp_x' collides with an existing generator"),
    "bundle sum of unmatched maps": (
        lambda: bundle_combine(identity_morphism(_plane()), identity_morphism(_line()), "plus", set()),
        ValueError, "maps must share domain and codomain"),
    "bundle sum with an unknown sign": (
        lambda: (lambda i: bundle_combine(i, i, "times", set()))(identity_morphism(_plane())),
        ValueError, "sign must be 'plus' or 'minus'"),
    "bracketing a map out of another algebra": (
        lambda: (lambda F: bracketing(bundle_context(F), identity_morphism(F.base)))(_plane_free()),
        ValueError, "bracketing expects a map out of the tangent of the bundle"),
    # solve
    "negative degree bound": (
        lambda: solve_connection_space(_plane_free(), -1), ValueError, "degree bound must be nonnegative"),
    "negative gluing degree": (
        lambda: glued_connection_check(_line(), "t", _line(), "t", {}, {}, degree=-1),
        ValueError, "degree bound must be nonnegative"),
    "gluing charts over two fields": (
        lambda: glued_connection_check(_line(), "t", _line(GF(3)), "t", *[{"t": "t", "t_inv": "t_inv"}] * 2),
        ValueError, "t: domain over QQ, codomain over GF(3)"),
    # poly, fields, parse
    "negative exponent": (
        lambda: Polynomial.variable(QQ, ("x",), "x") ** -1, ValueError, "negative exponent"),
    "characteristic one": (
        lambda: Field(1), ValueError, "characteristic must be 0 or a prime below 2**31, got 1"),
    "inverse of zero": (lambda: GF(5).inv(0), ZeroDivisionError, "inverse of zero field element"),
    "unclosed parenthesis before a name": (
        lambda: poly_normalize("(x y", QQ, ("x", "y")), ParseError, "expected ')' at column 4 in '(x y'"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_argument_guard(case):
    call, kind, message = GUARDS[case]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message


def test_trailing_blanks_end_an_expression():
    assert poly_normalize("x + 1  ", QQ, ("x",)) == poly_normalize("x+1", QQ, ("x",))


# ---------------------------------------------------------------------------
# protocol methods
# ---------------------------------------------------------------------------


def _circle():
    return make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])


def test_reprs():
    A = _circle()
    F = free_module(A, 2)
    algebra = "<algebra k[x, y]/(x^2 + y^2 - 1) char 0>"
    assert repr(A) == algebra and repr(_plane()) == "<algebra k[x, y]/(0) char 0>"
    assert repr(A.element("x^3")) == "<elt -x*y^2 + x>"
    assert repr(F) == f"<module rank 2 over {algebra} (free)>"
    assert repr(kahler_module(A)) == f"<module rank 2 over {algebra} (kahler)>"
    assert repr(F.gen("e1") * "x") == "<mod-elt x*e1>"
    # a coefficient -1 is a sign, as +1 is the bare generator
    e1, e2 = F.gen("e1"), F.gen("e2")
    assert (repr(-e1), repr(e1 - e2), repr(-e1 + e2)) == ("<mod-elt -e1>", "<mod-elt e1 - e2>", "<mod-elt -e1 + e2>")
    assert repr(e1 * "-x" - e2 * 2) == "<mod-elt -x*e1 - 2*e2>"
    # over GF(3), -1 is 2
    G = free_module(make_algebra(GF(3), ("x",)), 2)
    assert (repr(-G.gen("e1")), repr(G.gen("e1") - G.gen("e2"))) == ("<mod-elt 2*e1>", "<mod-elt e1 + 2*e2>")
    assert (repr(QQ), repr(GF(3))) == ("QQ", "GF(3)")
    assert repr(A.polynomial("x - 1")) == "<poly x - 1>"
    swap = make_morphism(A, A, {"x": "y", "y": "x"})
    assert (repr(identity_morphism(A)), repr(swap)) == ("<id: 2 gens -> 2 gens>", "<morphism: 2 gens -> 2 gens>")
    nabla = make_connection(F, {"e1": [0, 0, 0, 0], "e2": [0, 0, "x", 0]})
    assert repr(nabla) == "<connection e1 -> 0; e2 -> x*d(y)@e1>"


def test_equal_values_hash_alike():
    A = _circle()
    F = free_module(A, 2)
    pairs = [
        (A.element("x^2"), A.element("1 - y^2")),
        (F.gen("e1") * "x^2", F.gen("e1") * "1 - y^2"),
        (GF(3), Field(3)),
        (A.polynomial("x + y"), A.polynomial("y + x")),
        (identity_morphism(A), make_morphism(A, A, {"x": "x", "y": "y"})),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_reflected_operators():
    A = _circle()
    x = A.element("x")
    assert 1 + x == A.element("x + 1") and 1 - x == A.element("1 - x") and 2 * x == A.element("2*x")
    assert -x == A.element("-x")
    F = free_module(A, 2)
    e1, e2 = F.gen("e1"), F.gen("e2")
    assert "y" * e1 == e1 * "y" == F.element(["y", 0])
    assert e1 - e2 == F.element([1, -1]) and -e1 == F.element([-1, 0])
    assert e1.__eq__(1) is NotImplemented and e1 != 1


def test_morphism_equality_against_other_values():
    """A morphism is never equal to a non-morphism (NotImplemented), nor to a
    map with the same images on another domain or codomain."""
    A = _circle()
    f = identity_morphism(A)
    assert f.__eq__(3) is NotImplemented and f != 3 and f != "x"
    twin = _circle()
    assert f != identity_morphism(twin)
    assert f != make_morphism(A, twin, {"x": "x", "y": "y"})
    assert f != make_morphism(twin, A, {"x": "x", "y": "y"})
