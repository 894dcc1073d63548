"""Worked examples as code, plus the built-in verification gallery.

Each case builds its objects from scratch, runs a specific expectation and
reports pass/fail; the CLI's `gallery` subcommand runs them all.  The
construction helpers are also the canonical way to get the standard surfaces'
connections from library code.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import make_algebra, make_morphism
from .connections import (
    apply_connection,
    connection_equal,
    free_canonical_connection,
    from_horizontal,
    make_connection,
    pullback_connection,
    retract_connection,
    to_horizontal,
    to_vertical,
    verify_connection_axioms,
    zero_gamma_connection,
)
from .curvature import (
    check_curvature_correspondence,
    check_torsion_correspondence,
    module_curvature,
    tangent_torsion,
)
from .dualnum import dual_connection_solve
from .errors import WellDefinednessFailure
from .fields import GF, QQ
from .modules import ModuleMorphism, christoffel_target, free_module, kahler_module
from .solve import glued_connection_check, solve_connection_space


# ---------------------------------------------------------------------------
# construction helpers for the standard surfaces
# ---------------------------------------------------------------------------


def plane_algebra():
    return make_algebra(QQ, ("x1", "x2"))


def circle_algebra():
    return make_algebra(QQ, ("x", "y"), ["x^2 + y^2 - 1"])


def sphere_algebra():
    return make_algebra(QQ, ("x1", "x2", "x3"), ["x1^2 + x2^2 + x3^2 - 1"])


def elliptic_algebra():
    return make_algebra(QQ, ("x", "y"), ["y^2 - x^3 - 1"])


def fat_point_algebra():
    return make_algebra(QQ, ("x",), ["x^2"])


def circle_canonical_connection(circle):
    omega = kahler_module(circle)
    return make_connection(
        omega,
        {"d(x)": ["-x", "0", "0", "-x"], "d(y)": ["-y", "0", "0", "-y"]},
    )


def plane_zero_connection(plane):
    return zero_gamma_connection(kahler_module(plane))


def plane_twisted_connection(plane):
    omega = kahler_module(plane)
    return make_connection(
        omega, {"d(x1)": ["x2", "0", "0", "0"], "d(x2)": ["0", "0", "0", "0"]}
    )


def plane_antisymmetric_connection(plane):
    omega = kahler_module(plane)
    return make_connection(
        omega, {"d(x1)": ["0", "1", "0", "0"], "d(x2)": ["0", "0", "0", "0"]}
    )


def sphere_canonical_connection(sphere):
    omega = kahler_module(sphere)
    images = {}
    for i, x in enumerate(sphere.gens):
        comps = ["0"] * 9
        for j in range(3):
            comps[j * 3 + j] = f"-{x}"
        images[omega.gens[i]] = comps
    return make_connection(omega, images)


def elliptic_connection(elliptic):
    """Connection on the curve's differentials via a section of the free cover.

    The Jacobian row splits because (x/3, y/2) pairs to one against it on the
    curve; the retract of the componentwise derivative along that splitting is
    a certified connection.
    """
    omega = kahler_module(elliptic)
    fr = free_module(elliptic, 2)
    s = ModuleMorphism(
        omega,
        fr,
        {
            "d(x)": fr.element(["y^2", "-2/3*x*y"]),
            "d(y)": fr.element(["3/2*x^2*y", "1 - y^2"]),
        },
        name="s",
    )
    r = ModuleMorphism(fr, omega, {"e1": omega.gen("d(x)"), "e2": omega.gen("d(y)")}, name="r")
    base = zero_gamma_connection(fr)
    return retract_connection(base, s, r)


# ---------------------------------------------------------------------------
# gallery cases
# ---------------------------------------------------------------------------


class GalleryCase(NamedTuple):
    case_id: str
    passed: bool
    detail: str


def _expect(ok: bool, message: str = "") -> None:
    """A case's expectation: an explicit raise, so it holds under `python -O` too."""
    if not ok:
        raise AssertionError(message)


def _case(case_id: str, fn) -> GalleryCase:
    try:
        detail = fn()
        return GalleryCase(case_id, True, detail or "ok")
    except AssertionError as exc:
        return GalleryCase(case_id, False, f"expectation failed: {exc}")
    except Exception as exc:  # noqa: BLE001 - report, never crash the gallery
        return GalleryCase(case_id, False, f"error: {exc}")


def _plane_canonical():
    plane = plane_algebra()
    nabla = plane_zero_connection(plane)
    omega = nabla.module
    t = christoffel_target(omega)
    value = apply_connection(nabla, omega.element(["x1^3", "0"]))
    _expect(value == t.element(["3*x1^2", "0", "0", "0"]), "Leibniz value")
    report = verify_connection_axioms(to_vertical(nabla), to_horizontal(nabla), omega)
    _expect(report.all_pass, "axiom suite")
    _expect(module_curvature(nabla).flat, "flatness")
    return "zero Christoffel data: axioms pass, flat, Leibniz value checked"


def _plane_twisted():
    plane = plane_algebra()
    nabla = plane_twisted_connection(plane)
    result = check_curvature_correspondence(nabla)
    _expect(not result.flat, "should be curved")
    _expect(result.residuals_zero, "curvature correspondence")
    torsion = check_torsion_correspondence(plane_antisymmetric_connection(plane))
    _expect(not torsion.torsion_free, "antisymmetric twist has torsion")
    _expect(torsion.residuals_zero, "torsion correspondence")
    return "curved twist verified against the bundle curvature and torsion"


def _affine_n_space():
    a3 = make_algebra(QQ, ("x1", "x2", "x3"))
    nabla = zero_gamma_connection(kahler_module(a3))
    _expect(module_curvature(nabla).flat)
    H = to_horizontal(nabla)
    _expect(connection_equal(from_horizontal(H, nabla.module), nabla))
    return "rank-3 differentials with zero data: flat, round-trips"


def _circle_canonical():
    circle = circle_algebra()
    nabla = circle_canonical_connection(circle)
    H = to_horizontal(nabla)
    _expect(connection_equal(from_horizontal(H, nabla.module), nabla), "round trip")
    report = verify_connection_axioms(to_vertical(nabla), H, nabla.module)
    _expect(report.all_pass, "axiom suite")
    _expect(module_curvature(nabla).flat, "curves are flat")
    tangent_torsion(nabla)  # both torsion routes must agree
    return "canonical circle connection: certified, axioms pass, flat"


def _circle_naive_reject():
    circle = circle_algebra()
    try:
        zero_gamma_connection(kahler_module(circle))
    except WellDefinednessFailure as exc:
        _expect(exc.residue == "2*d(x)@d(x) + 2*d(y)@d(y)", f"residue was {exc.residue}")
        return f"rejected with residue {exc.residue}"
    raise AssertionError("zero data must be rejected on the circle")


def _sphere2():
    sphere = sphere_algebra()
    nabla = sphere_canonical_connection(sphere)
    result = check_curvature_correspondence(nabla)
    _expect(not result.flat, "the sphere connection is curved")
    _expect(result.residuals_zero, "factor-of-two correspondence")
    return "sphere connection certified; curvature matches the bundle side"


def _elliptic():
    elliptic = elliptic_algebra()
    nabla = elliptic_connection(elliptic)
    result = check_curvature_correspondence(nabla)
    _expect(result.residuals_zero, "factor-of-two correspondence")
    _expect(result.flat, "smooth curves have vanishing wedge square")
    return "retract-derived elliptic connection verified"


def _fat_point_empty():
    fat = fat_point_algebra()
    space = solve_connection_space(kahler_module(fat), 3)
    _expect(space.is_empty, "no connection exists on this module")
    return "degree-3 solve is empty"


def _free_a3():
    circle = circle_algebra()
    nabla = free_canonical_connection(circle, 3)
    H = to_horizontal(nabla)
    _expect(connection_equal(from_horizontal(H, nabla.module), nabla))
    return "free rank-3 canonical connection round-trips"


def _retract_circle():
    circle = circle_algebra()
    omega = kahler_module(circle)
    fr = free_module(circle, 2)
    s = ModuleMorphism(
        omega,
        fr,
        {"d(x)": fr.element(["y^2", "-x*y"]), "d(y)": fr.element(["-x*y", "x^2"])},
    )
    r = ModuleMorphism(fr, omega, {"e1": omega.gen("d(x)"), "e2": omega.gen("d(y)")})
    base = zero_gamma_connection(fr)
    nabla = retract_connection(base, s, r)
    _expect(connection_equal(nabla, circle_canonical_connection(circle)))
    return "section through the free cover reproduces the canonical connection"


def _pullback_free():
    plane = plane_algebra()
    rationals = make_algebra(QQ, ())
    nabla = free_canonical_connection(rationals, 2)
    pulled = pullback_connection(nabla, make_morphism(rationals, plane, {}))
    _expect(connection_equal(pulled, free_canonical_connection(plane, 2)))
    return "pullback of the rank-2 base connection is the free canonical one"


def _p1(charp: int):
    field = GF(charp) if charp else QQ
    A1 = make_algebra(field, ("x",))
    A2 = make_algebra(field, ("y",))
    return glued_connection_check(
        A1, "x", A2, "y", {"x": "y_inv", "x_inv": "y"}, {"y": "x_inv", "y_inv": "x"}, degree=6
    )


def _p1_char0():
    result = _p1(0)
    _expect(result.space.is_empty, "no global connection in characteristic zero")
    return "degree-6 window: empty"


def _p1_char2():
    result = _p1(2)
    _expect(result.space.is_unique, "a single solution")
    _expect(all(v == 0 for v in result.space.particular), "the zero connection")
    return "unique solution: both chart polynomials vanish"


def _dualnum_nogo():
    line = make_algebra(QQ, ("x",))
    rationals = make_algebra(QQ, ())
    _expect(dual_connection_solve(free_module(line, 1)).is_empty)
    _expect(dual_connection_solve(free_module(rationals, 1)).is_empty)
    _expect(not dual_connection_solve(free_module(line, 0)).is_empty)
    return "square-zero bundles admit a connection only for the zero module"


GALLERY = [
    ("plane-canonical", _plane_canonical),
    ("plane-twisted", _plane_twisted),
    ("affine-n-space", _affine_n_space),
    ("circle-canonical", _circle_canonical),
    ("circle-naive-reject", _circle_naive_reject),
    ("sphere2", _sphere2),
    ("elliptic", _elliptic),
    ("fat-point-empty", _fat_point_empty),
    ("free-A3", _free_a3),
    ("retract-circle", _retract_circle),
    ("pullback-free", _pullback_free),
    ("p1-char0-empty", _p1_char0),
    ("p1-char2-unique", _p1_char2),
    ("dualnum-nogo", _dualnum_nogo),
]


def run_gallery() -> list[GalleryCase]:
    return [_case(case_id, fn) for case_id, fn in GALLERY]
