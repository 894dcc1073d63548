"""QQ results against their images mod p.

For inputs with integer coefficients, the reduced Groebner basis over QQ with
each coefficient mapped into GF(p) is the reduced basis over GF(p) for all but
finitely many primes p (Pauer, "On lucky ideals for Groebner basis
computations", 1992), and solution dimensions agree the same way.  QQ and
GF(p) share the engine's code but not its arithmetic, so this catches a
QQ-only defect that the oracles, which work over one field, would pass.
"""

import random
from pathlib import Path

import pytest

from kcx import gallery
from kcx.algebra import PresentedAlgebra, make_algebra
from kcx.fields import GF, QQ
from kcx.groebner import IdealBasis, ModuleBasis
from kcx.modules import free_module, kahler_module
from kcx.poly import Polynomial
from kcx.solve import solve_connection_space
from kcx.workspace import parse_workspace

from helpers import random_poly, sphere

PRIMES = (32003, 65521, 2**31 - 1)
FIELD = {p: GF(p) for p in PRIMES}  # each GF(p) tests p for primality when built
FILES = sorted((Path(__file__).parent.parent / "examples_kcx").glob("*.kcx"))

# (case, prime) -> why that prime is unlucky there.  No case disagrees at these
# primes today; one that does is recorded here with its reason, such as a
# denominator of the QQ basis that p divides, and keeps running.
UNLUCKY: dict[tuple, str] = {}

# the algebras of the gallery's cases, as the gallery builds them
GALLERY_ALGEBRAS = {
    "plane": gallery.plane_algebra,
    "circle": gallery.circle_algebra,
    "sphere": gallery.sphere_algebra,
    "elliptic": gallery.elliptic_algebra,
    "fat point": gallery.fat_point_algebra,
    "A^3": lambda: make_algebra(QQ, ("x1", "x2", "x3")),
}


def _image(poly: Polynomial, p: int) -> Polynomial:
    """`poly` with each coefficient mapped into GF(p) by `Field.of`; raises
    ValueError where p divides a denominator."""
    return Polynomial(FIELD[p], poly.vars, poly.terms)


def _agree(qq_basis, gfp_basis, p: int) -> bool:
    """Whether a QQ basis (polynomials or vectors) maps term for term onto the GF(p) one."""
    try:
        images = [_image(g, p) if isinstance(g, Polynomial) else tuple(_image(c, p) for c in g) for g in qq_basis]
    except ValueError:
        return False
    return images == gfp_basis


def _over(A: PresentedAlgebra, p: int) -> PresentedAlgebra:
    """A rebuilt over GF(p) from its rendered relations."""
    return make_algebra(FIELD[p], A.gens, [r.render() for r in A.relations])


def _assert_lucky(agreement: dict[tuple, bool]) -> None:
    cases = {case for case, _ in agreement}
    disagree = {key for key, same in agreement.items() if not same}
    assert disagree == {key for key in UNLUCKY if key[0] in cases}


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_example_file_bases_reduce_to_their_images_mod_p(path):
    text = path.read_text(encoding="utf-8")
    over_qq = parse_workspace(text)
    agreement = {}
    for p in PRIMES:
        over_p = parse_workspace(text, char_override=p)
        for name, A in over_qq.algebras.items():
            agreement[(path.name, name), p] = _agree(A.basis.basis, over_p.algebras[name].basis.basis, p)
        for name, M in over_qq.modules.items():
            agreement[(path.name, name), p] = _agree(M.lifted.basis, over_p.modules[name].lifted.basis, p)
    assert len(agreement) == len(PRIMES) * (len(over_qq.algebras) + len(over_qq.modules))
    _assert_lucky(agreement)


def test_random_ideal_bases_reduce_to_their_images_mod_p():
    """Integer-coefficient ideals drawn like the randomized membership test's."""
    rng = random.Random(101)
    agreement = {}
    for trial in range(120):
        variables = tuple("xyz"[: rng.randint(1, 3)])
        gens = [g for g in (random_poly(rng, variables) for _ in range(rng.randint(1, 3))) if not g.is_zero()]
        if not gens:
            continue
        basis = IdealBasis(QQ, variables, gens).basis
        for p in PRIMES:
            mod_p = IdealBasis(FIELD[p], variables, [_image(g, p) for g in gens]).basis
            agreement[("ideal", trial), p] = _agree(basis, mod_p, p)
    assert len(agreement) >= 100 * len(PRIMES)
    _assert_lucky(agreement)


def test_random_module_bases_reduce_to_their_images_mod_p():
    """Integer-coefficient submodules drawn like the module membership test's."""
    rng = random.Random(202)
    agreement = {}
    for trial in range(60):
        variables = tuple("xy"[: rng.randint(1, 2)])
        rank = rng.randint(1, 2)
        gens = [tuple(random_poly(rng, variables, degree=2) for _ in range(rank)) for _ in range(rng.randint(1, 3))]
        gens = [v for v in gens if any(not c.is_zero() for c in v)]
        if not gens:
            continue
        basis = ModuleBasis(QQ, variables, rank, gens).basis
        for p in PRIMES:
            mod_p = ModuleBasis(FIELD[p], variables, rank, [tuple(_image(c, p) for c in v) for v in gens]).basis
            agreement[("module", trial), p] = _agree(basis, mod_p, p)
    assert len(agreement) >= 50 * len(PRIMES)
    _assert_lucky(agreement)


@pytest.mark.parametrize("n", [1, 2])
def test_sphere_connection_space_dimensions_agree_mod_p(n):
    agreement = {}
    for degree in (1, 2):
        dim = solve_connection_space(kahler_module(sphere(n)), degree).dimension
        assert dim > 0
        for p in PRIMES:
            mod_p = solve_connection_space(kahler_module(sphere(n, FIELD[p])), degree).dimension
            agreement[(f"S^{n}", degree), p] = mod_p == dim
    _assert_lucky(agreement)


@pytest.mark.parametrize("name", GALLERY_ALGEBRAS)
def test_gallery_bases_reduce_to_their_images_mod_p(name):
    """The ideal basis and the lifted bases of the differentials and of the
    free modules of rank 2 and 3, as the gallery's cases build them."""
    A = GALLERY_ALGEBRAS[name]()
    modules = {"Omega": kahler_module, "free 2": lambda B: free_module(B, 2), "free 3": lambda B: free_module(B, 3)}
    agreement = {}
    for p in PRIMES:
        over_p = _over(A, p)
        agreement[(name, "ideal"), p] = _agree(A.basis.basis, over_p.basis.basis, p)
        for kind, module in modules.items():
            agreement[(name, kind), p] = _agree(module(A).lifted.basis, module(over_p).lifted.basis, p)
    assert len(agreement) == len(PRIMES) * (1 + len(modules))
    _assert_lucky(agreement)


def test_gallery_solution_dimensions_agree_mod_p():
    """The fat point's degree-3 connection space and the P^1 gluing's
    degree-6 one, both empty over QQ."""
    fat = gallery.fat_point_algebra()
    over_qq = {
        ("fat point", 3): solve_connection_space(kahler_module(fat), 3).dimension,
        ("P^1", 6): gallery._p1(0).space.dimension,
    }
    assert set(over_qq.values()) == {-1}
    agreement = {}
    for p in PRIMES:
        mod_p = {
            ("fat point", 3): solve_connection_space(kahler_module(_over(fat, p)), 3).dimension,
            ("P^1", 6): gallery._p1(p).space.dimension,
        }
        agreement.update(((case, p), mod_p[case] == dim) for case, dim in over_qq.items())
    _assert_lucky(agreement)
