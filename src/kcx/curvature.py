"""Curvature and torsion, in both the module and the bundle-map pictures.

Module side: curvature is the wedge-collapsed second application of a
connection, landing in Omega^2(A) (x) M; torsion (for connections on the
differentials module) is the wedge collapse of the Christoffel images.

Bundle side: curvature compares the twice-applied vertical form against its
canonical flip; torsion compares the vertical form with the affine flip, or
equivalently runs through the horizontal form and brackets.  The embedding
psi writes the module quantities inside the double tangent and the projection
phi comes back: they are the `write` and `read` of the bundle context's
`curvature_shapes` (psi-hat and phi-hat of its `torsion_shapes`).  Composing
the two picks up the commutative-to-anticommutative factor: phi(psi(w)) = 2w
exactly.  psi produces raw (unreduced) polynomials so that identity holds on
the nose on the generator basis.  A correspondence check first tries a
certificate that only reads, in every characteristic: V(m) - psi(w) is the
write of terms that combine to zero (`tangent.ShapeMap.proves_zero`).
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (
    AlgebraElement,
    AlgebraMorphism,
    compose_chain,
    compose_morphisms,
    memoized,
)
from .connections import AxiomCheck, Connection, apply_connection, leibniz_terms, morphism_equality
from .errors import KcxError, ModuleNotKahler
from .modules import ModuleElement, christoffel_target, kahler_module, tensor_modules, wedge_square
from .tangent import (
    ShapeMap,
    bracketing,
    bundle_combine,
    tangent_apply_functor,
)


class CorrespondenceResult:
    """Module images of curvature or torsion, per generator.

    The correspondence checks fill in the bundle map and, per generator,
    the residuals of the factor-of-two identities.  Each call returns a fresh
    result over the connection's shared images, so filling in one result
    changes no other.
    """

    def __init__(self, images: dict[str, ModuleElement]):
        self.images = images
        self.bundle_map: AlgebraMorphism | None = None
        self.residuals: dict[str, list] = {}

    @cached_property
    def tangent_images(self) -> dict[str, AlgebraElement] | None:
        """The bundle map's generator images, reduced on first read."""
        return None if self.bundle_map is None else {m: self.bundle_map.image_of(m) for m in self.images}

    @property
    def vanishes(self) -> bool:
        return all(v.is_zero() for v in self.images.values())

    @property
    def residuals_zero(self) -> bool:
        return all(r.is_zero() for rs in self.residuals.values() for r in rs)


class CurvatureResult(CorrespondenceResult):
    """Images per module generator, in Omega^2 (x) M."""

    @property
    def flat(self) -> bool:
        return self.vanishes


class TorsionResult(CorrespondenceResult):
    """Images per Omega generator, in Omega^2, and the check that the two
    bundle routes agree."""

    routes_agree: AxiomCheck | None = None

    @property
    def torsion_free(self) -> bool:
        return self.vanishes

    @property
    def residuals_zero(self) -> bool:
        """Zero residuals against a bundle torsion both routes agree on."""
        return (self.routes_agree is None or self.routes_agree.status == "pass") and super().residuals_zero


# ---------------------------------------------------------------------------
# module-side curvature and torsion
# ---------------------------------------------------------------------------


def curvature_target(nabla: Connection):
    omega = kahler_module(nabla.base)
    return tensor_modules(wedge_square(omega), nabla.module)


def _wedge_tensor(nabla: Connection, terms) -> ModuleElement:
    """sum c * (d(x_i) ^ d(x_j)) (x) m_l over (i, j, l, c), in Omega^2 (x) M."""
    target = curvature_target(nabla)
    w2 = target.factors[0]
    by_gen: list[list] = [[] for _ in nabla.module.gens]
    for i, j, l, c in terms:
        by_gen[l].append((i, j, c))
    comps = [None] * target.rank
    for l, gen_terms in enumerate(by_gen):
        for p, c in enumerate(w2.collect(gen_terms)):
            comps[target.pair_index(p, l)] = c
    return ModuleElement(target, tuple(comps))


def curvature_of_element(nabla: Connection, e: ModuleElement) -> ModuleElement:
    """Apply the connection twice and collapse the two form slots to a wedge.

    The second application stays raw: the collapse d(x_i) (x) v -> d(x_i) ^ v
    is well defined on the class of v (it kills d(x_i) ^ d(r) for a relation
    r, M's relations and the ideal), so only the wedge sum is reduced.
    """
    M = nabla.module
    T = christoffel_target(M)
    terms = []
    for i, l, coef in T.entries(apply_connection(nabla, e)):
        terms += [(i, *T.pair_slots(k), c) for k, c in leibniz_terms(M, [(l, coef)], nabla.gamma)]
    return _wedge_tensor(nabla, terms)


@memoized
def _curvature_images(nabla: Connection) -> dict[str, ModuleElement]:
    return {g: curvature_of_element(nabla, nabla.module.gen(g)) for g in nabla.module.gens}


@memoized
def _torsion_images(nabla: Connection) -> dict[str, ModuleElement]:
    w2 = wedge_square(nabla.module)
    return {g: w2.from_tensor(nabla.gamma[g]) for g in nabla.module.gens}


def module_curvature(nabla: Connection) -> CurvatureResult:
    """A fresh result over the curvature images, worked out once per connection."""
    return CurvatureResult(dict(_curvature_images(nabla)))


def module_torsion(nabla: Connection) -> TorsionResult:
    """Wedge collapse of the Christoffel images; needs a Kahler-module bundle.

    A fresh result over the images, worked out once per connection.
    """
    if nabla.module.provenance != "kahler":
        raise ModuleNotKahler("torsion is defined for connections on the differentials module")
    return TorsionResult(dict(_torsion_images(nabla)))


# ---------------------------------------------------------------------------
# bundle-side curvature
# ---------------------------------------------------------------------------


def tangent_curvature(nabla: Connection) -> AlgebraMorphism:
    """Flip-compared double application of the vertical form: S -> T^2(S)."""
    ctx, K = nabla.ctx, nabla.K
    TK = tangent_apply_functor(K)
    twice = compose_morphisms(TK, K)
    flipped = compose_morphisms(ctx.S_maps.flip, twice)
    return bundle_combine(flipped, twice, "minus", set(nabla.module.gens))


# ---------------------------------------------------------------------------
# torsion on the bundle side (both routes)
# ---------------------------------------------------------------------------


def _torsion_routes(nabla: Connection) -> tuple[AlgebraMorphism, AlgebraMorphism]:
    """The bundle torsion S -> T(S) by its two routes: the vertical form
    against the affine flip, and the flip-conjugated horizontal form followed
    by bracketing."""
    ctx, K = nabla.ctx, nabla.K
    c = ctx.affine_flip
    v_k = bundle_combine(K, compose_chain([K, c]), "minus", set(nabla.module.gens))
    UH = compose_morphisms(ctx.U, nabla.H)
    d_fibre = {ctx.TS.dmap[g] for g in ctx.S.gens}
    v_flat = bundle_combine(compose_chain([UH, c]), compose_chain([c, UH]), "minus", d_fibre)
    return v_k, bracketing(ctx, v_flat)


def tangent_torsion(nabla: Connection) -> AlgebraMorphism:
    """Torsion of the induced bundle connection, as a map S -> T(S).

    Its two routes must agree exactly (their common value matches psi-hat of
    the module torsion).
    """
    v_k, v_h = _torsion_routes(nabla)
    if v_k != v_h:
        raise KcxError("torsion routes disagree (internal consistency failure)")
    return v_k


# ---------------------------------------------------------------------------
# correspondence checks (the factor-of-two identities)
# ---------------------------------------------------------------------------


def _correspond(result: CorrespondenceResult, bundle_map: AlgebraMorphism, shapes: ShapeMap) -> CorrespondenceResult:
    """Compare the bundle map V with the module images w, per generator m.

    Residuals recorded per generator: V(m) - psi(w); 2w - phi(V(m)); and,
    away from characteristic two, w - phi(V(m))/2, with psi and phi the
    `write` and `read` of `shapes` (phi ignores the stray rest).  It first
    tries a certificate, which needs no 1/2: when the raw V(m) - psi(w)
    passes `ShapeMap.proves_zero`, V(m) is psi(w) in the bundle and every
    residual is zero, with no reduction.
    """
    field = shapes.P.field
    half = None if field.char == 2 else field.inv(field.of(2))
    result.bundle_map = bundle_map
    for m, w in result.images.items():
        if shapes.proves_zero(bundle_map.images[m] - shapes.write(w)):
            zero = shapes.module.zero()
            result.residuals[m] = [shapes.P.zero(), zero] + [zero] * (half is not None)
            continue
        v_img = result.tangent_images[m]
        phi_img = shapes.read(v_img)[0]
        residuals = [v_img - shapes.write(w), w.scaled(2) - phi_img]
        if half is not None:
            residuals.append(w - phi_img.scaled(half))
        result.residuals[m] = residuals
    return result


def check_curvature_correspondence(nabla: Connection) -> CurvatureResult:
    """Verify the bundle curvature against the module curvature per generator."""
    return _correspond(module_curvature(nabla), tangent_curvature(nabla), nabla.ctx.curvature_shapes)


def check_torsion_correspondence(nabla: Connection) -> TorsionResult:
    """Verify the bundle torsion against the module torsion per generator,
    and record whether its two bundle routes agree."""
    result = module_torsion(nabla)
    v_k, v_h = _torsion_routes(nabla)
    result.routes_agree = morphism_equality("torsion-routes-agree", v_k, v_h)
    return _correspond(result, v_k, nabla.ctx.torsion_shapes)
