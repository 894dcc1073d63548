"""Tangent algebras, symmetric-algebra bundles and their structure maps.

For a presented algebra B, T(B) adjoins one differential generator per
generator of B together with the differentiated relations, so T(A) carries the
tangent-bundle coordinate ring of the affine scheme of A and T(S_A(M)) the
tangent of a bundle total space.  Differential generators are named
deterministically: d_x for the first level, dp_x / dpd_x when a second tangent
level is applied (so T(T(A)) has the three differential sorts d_x, dp_x,
dpd_x).  Generator order within a tangent presentation is by role rank (see
algebra._ROLE_RANK): normal forms then prefer rewriting composite sorts into
products of plain differentials and module generators, which keeps curvature
and torsion extraction on canonical shapes.

S_A(M) is presented on A's generators plus M's generator names, with M's
relation rows imposed as degree-one relations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraMorphism,
    ElementLike,
    GenRole,
    PresentedAlgebra,
    TensorAlgebra,
    _ROLE_RANK,
    make_morphism,
    tensor_over_base,
)
from .errors import BaseMismatch, BracketingConditionFailure
from .modules import ModuleElement, PresentedModule, christoffel_target, kahler_module
from .poly import Polynomial


def _next_role(B: PresentedAlgebra, g: str) -> tuple[str, str, str]:
    """(new name, new kind, origin) for the differential of generator g."""
    role = B.roles[g]
    if role.kind in ("base", "module"):
        plain = f"d_{g}"
        if plain in B.gens:
            return f"dp_{g}", ("dp" if role.kind == "base" else "dpm"), g
        return plain, ("d" if role.kind == "base" else "dm"), g
    if role.kind == "d":
        return f"dpd_{role.origin}", "dpd", role.origin
    if role.kind == "dm":
        return f"dpd_{role.origin}", "dpdm", role.origin
    raise ValueError(f"third tangent level not supported (generator {g!r})")


class TangentPresentation(PresentedAlgebra):
    """T(B): base generators plus differentials, relations plus their differentials."""

    def __init__(self, B: PresentedAlgebra):
        self.source = B
        self.dmap: dict[str, str] = {}
        roles: dict[str, GenRole] = {g: B.roles[g] for g in B.gens}
        for g in B.gens:
            name, kind, origin = _next_role(B, g)
            if name in B.gens or name in self.dmap.values():
                raise ValueError(f"differential name {name!r} collides with an existing generator")
            self.dmap[g] = name
            roles[name] = GenRole(kind, origin)
        combined = list(B.gens) + [self.dmap[g] for g in B.gens]
        pos = {n: i for i, n in enumerate(combined)}
        gens = tuple(sorted(combined, key=lambda n: (_ROLE_RANK[roles[n].kind], pos[n])))
        # extend the source's sort grading by one coordinate for the new level
        k = len(next(iter(B.grading.values()))) if B.grading else 0
        grading = {}
        for g in B.gens:
            base = B.grading[g] if B.grading else ()
            grading[g] = base + (0,)
            grading[self.dmap[g]] = base + (1,)
        relations = [r.change_vars(gens) for r in B.relations]
        super().__init__(
            B.field, gens, [], provenance="tangent", roles=roles,
            grading=grading, cap=(1,) * (k + 1),
        )
        # reuse this presentation's own differential to build the new relations
        relations += [self.differential(r) for r in B.relations]
        self.relations = tuple(relations)

    def differential(self, p: Polynomial) -> Polynomial:
        """Formal differential of a source-ring polynomial, inside T(B)."""
        out = Polynomial.zero(self.field, self.gens)
        for g in self.source.gens:
            dg = p.partial(g)
            if dg.is_zero():
                continue
            out = out + dg.change_vars(self.gens) * Polynomial.variable(self.field, self.gens, self.dmap[g])
        return out

    def d(self, e: ElementLike):
        """d of a source-algebra element, as an element of T(B)."""
        return self.element(self.differential(self.source.element(e).poly))


def tangent_algebra(B: PresentedAlgebra) -> TangentPresentation:
    if "tangent" not in B._memo:
        B._memo["tangent"] = TangentPresentation(B)
    return B._memo["tangent"]


@dataclass
class TangentMaps:
    """The tangent structure maps of one algebra, in algebra-side directions."""

    TA: TangentPresentation
    TTA: TangentPresentation
    T2: TensorAlgebra  # T(A) (x)_A T(A)
    p: AlgebraMorphism  # A -> T(A)
    zero: AlgebraMorphism  # T(A) -> A
    plus: AlgebraMorphism  # T(A) -> T(A) (x)_A T(A)
    minus: AlgebraMorphism  # T(A) -> T(A)
    lift: AlgebraMorphism  # T(T(A)) -> T(A)
    flip: AlgebraMorphism  # T(T(A)) -> T(T(A))
    tau: AlgebraMorphism  # swap of T(A) (x)_A T(A)


def generic_flip(T2B: TangentPresentation) -> AlgebraMorphism:
    """Canonical flip of a double tangent: swaps the two differential levels."""
    TB = T2B.source
    if not isinstance(TB, TangentPresentation):
        raise ValueError("flip needs a double tangent presentation")
    B = TB.source
    images = {g: Polynomial.variable(T2B.field, T2B.gens, g) for g in T2B.gens}
    for g in B.gens:
        first = TB.dmap[g]
        second = T2B.dmap[g]
        images[first] = Polynomial.variable(T2B.field, T2B.gens, second)
        images[second] = Polynomial.variable(T2B.field, T2B.gens, first)
        # the mixed sort T2B.dmap[first] is fixed
    return AlgebraMorphism(T2B, T2B, images, certify=True, name="flip")


def tangent_structure_maps(A: PresentedAlgebra) -> TangentMaps:
    if "tangent_maps" in A._memo:
        return A._memo["tangent_maps"]
    TA = tangent_algebra(A)
    TTA = tangent_algebra(TA)
    p = make_morphism(A, TA, {g: TA.gen(g) for g in A.gens}, name="p")
    zero_images = {g: TA.source.gen(g) for g in A.gens}
    zero_images.update({TA.dmap[g]: TA.source.zero() for g in A.gens})
    zero = make_morphism(TA, A, zero_images, name="0")
    minus_images = {g: TA.gen(g) for g in A.gens}
    minus_images.update({TA.dmap[g]: -TA.gen(TA.dmap[g]) for g in A.gens})
    minus = make_morphism(TA, TA, minus_images, name="-")
    T2 = tensor_over_base(A, TA, TA, p, p, concat_grading=True)
    plus_images = {g: T2.i0(TA.gen(g)) for g in A.gens}
    plus_images.update(
        {TA.dmap[g]: T2.i0(TA.gen(TA.dmap[g])) + T2.i1(TA.gen(TA.dmap[g])) for g in A.gens}
    )
    plus = make_morphism(TA, T2, plus_images, name="+")
    lift_images = {}
    for g in TTA.gens:
        kind = TTA.roles[g].kind
        if kind == "base":
            lift_images[g] = TA.gen(g)
        elif kind == "dpd":
            lift_images[g] = TA.gen(TA.dmap[TTA.roles[g].origin])
        else:  # d or dp sorts die under the vertical lift
            lift_images[g] = TA.zero()
    lift = make_morphism(TTA, TA, lift_images, name="l")
    flip = generic_flip(TTA)
    tau_images = {}
    for g in TA.gens:
        tau_images[f"{g}#0"] = T2.element(Polynomial.variable(T2.field, T2.gens, f"{g}#1"))
        tau_images[f"{g}#1"] = T2.element(Polynomial.variable(T2.field, T2.gens, f"{g}#0"))
    tau = make_morphism(T2, T2, tau_images, name="tau")
    maps = TangentMaps(TA, TTA, T2, p, zero, plus, minus, lift, flip, tau)
    A._memo["tangent_maps"] = maps
    return maps


# ---------------------------------------------------------------------------
# symmetric-algebra bundles
# ---------------------------------------------------------------------------


class SymBundle(PresentedAlgebra):
    """S_A(M): the affine total space of the bundle determined by M."""

    def __init__(self, M: PresentedModule):
        A = M.base
        self.A = A
        self.M = M
        gens = A.gens + M.gens
        roles = {g: GenRole("base", g) for g in A.gens}
        roles.update({m: GenRole("module", m) for m in M.gens})
        grading = {g: (0,) for g in A.gens}
        grading.update({m: (1,) for m in M.gens})
        relations = [r.change_vars(gens) for r in A.relations]
        for row in M.relations:
            poly = Polynomial.zero(A.field, gens)
            for coef, m in zip(row, M.gens):
                poly = poly + coef.change_vars(gens) * Polynomial.variable(A.field, gens, m)
            relations.append(poly)
        # no cap: S_A(M) itself carries arbitrary symmetric degrees
        super().__init__(A.field, gens, relations, provenance="sym", roles=roles, grading=grading)

    def module_element(self, e: ModuleElement) -> "PresentedAlgebra.element":
        """An M-element as the corresponding degree-one element of S_A(M)."""
        if e.module is not self.M:
            raise ValueError("element of a different module")
        poly = Polynomial.zero(self.field, self.gens)
        for coef, m in zip(e.comps, self.M.gens):
            poly = poly + coef.change_vars(self.gens) * Polynomial.variable(self.field, self.gens, m)
        return self.element(poly)


@dataclass
class BundleMaps:
    S: SymBundle
    TS: TangentPresentation
    q: AlgebraMorphism  # A -> S
    z: AlgebraMorphism  # S -> A
    iota: AlgebraMorphism  # S -> S
    sigma: AlgebraMorphism  # S -> S (x)_A S
    sigma_codomain: TensorAlgebra
    lam: AlgebraMorphism  # T(S) -> S


def sym_algebra_bundle(A: PresentedAlgebra, M: PresentedModule) -> BundleMaps:
    if M.base is not A:
        raise ValueError("module is not over the given algebra")
    if "sym_bundle" in M._memo:
        return M._memo["sym_bundle"]
    S = SymBundle(M)
    TS = tangent_algebra(S)
    q = make_morphism(A, S, {g: S.gen(g) for g in A.gens}, name="q")
    z_images = {g: A.gen(g) for g in A.gens}
    z_images.update({m: A.zero() for m in M.gens})
    z = make_morphism(S, A, z_images, name="z")
    iota_images = {g: S.gen(g) for g in A.gens}
    iota_images.update({m: -S.gen(m) for m in M.gens})
    iota = make_morphism(S, S, iota_images, name="iota")
    S2 = tensor_over_base(A, S, S, q, q, concat_grading=True)
    sigma_images = {g: S2.i0(S.gen(g)) for g in A.gens}
    sigma_images.update({m: S2.i0(S.gen(m)) + S2.i1(S.gen(m)) for m in M.gens})
    sigma = make_morphism(S, S2, sigma_images, name="sigma")
    lam_images = {}
    for g in TS.gens:
        kind = TS.roles[g].kind
        if kind == "base":
            lam_images[g] = S.gen(g)
        elif kind == "dm":
            lam_images[g] = S.gen(TS.roles[g].origin)
        else:  # module generators and d-of-base die under the bundle lift
            lam_images[g] = S.zero()
    lam = make_morphism(TS, S, lam_images, name="lambda")
    maps = BundleMaps(S, TS, q, z, iota, sigma, S2, lam)
    M._memo["sym_bundle"] = maps
    return maps


# ---------------------------------------------------------------------------
# tangent functor on morphisms
# ---------------------------------------------------------------------------


def tangent_apply_functor(f: AlgebraMorphism, certify: bool = False) -> AlgebraMorphism:
    """T(f): base generators map by f, differentials by the differential of f's images."""
    TB = tangent_algebra(f.dom)
    TC = tangent_algebra(f.cod)
    images: dict[str, Polynomial] = {}
    for g in f.dom.gens:
        img = f.images[g]
        images[g] = img.change_vars(TC.gens)
        images[TB.dmap[g]] = TC.differential(img)
    out = AlgebraMorphism(TB, TC, images, certify=certify, name=f"T({f.name})")
    out.certified = out.certified or f.certified  # functoriality preserves well-definedness
    return out


# ---------------------------------------------------------------------------
# bundle-valued combination and bracketing
# ---------------------------------------------------------------------------


def bundle_combine(
    f: AlgebraMorphism, g: AlgebraMorphism, sign: str, fibre: set[str]
) -> AlgebraMorphism:
    """Fibrewise sum/difference of two maps out of a bundle presentation.

    The maps must agree on every generator outside `fibre`; on fibre
    generators the images are added or subtracted.
    """
    if f.dom is not g.dom or f.cod is not g.cod:
        raise ValueError("maps must share domain and codomain")
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    images: dict[str, Polynomial] = {}
    for gen in f.dom.gens:
        if gen in fibre:
            a, b = f.images[gen], g.images[gen]
            images[gen] = a + b if sign == "plus" else a - b
        else:
            left, right = f.image_of(gen), g.image_of(gen)
            if left != right:
                raise BaseMismatch(gen, left.render(), right.render())
            images[gen] = f.images[gen]
    out = AlgebraMorphism(f.dom, f.cod, images, certify=False, name=f"({f.name}{'+' if sign == 'plus' else '-'}{g.name})")
    out.certified = f.certified and g.certified
    return out


def bracketing(bundle: BundleMaps, h: AlgebraMorphism) -> AlgebraMorphism:
    """Extract S_A(M) -> B from h: T(S_A(M)) -> B killing base differentials."""
    TS, S = bundle.TS, bundle.S
    if h.dom is not TS:
        raise ValueError("bracketing expects a map out of the tangent of the bundle")
    for x in S.A.gens:
        val = h.image_of(TS.dmap[x])
        if not val.is_zero():
            raise BracketingConditionFailure(x, val.render())
    images = {x: h.images[x] for x in S.A.gens}
    images.update({m: h.images[TS.dmap[m]] for m in S.M.gens})
    out = AlgebraMorphism(S, h.cod, images, certify=False, name=f"{{{h.name}}}")
    out.certified = h.certified
    return out


# ---------------------------------------------------------------------------
# the per-module context used by connections, curvature and torsion
# ---------------------------------------------------------------------------


class BundleContext:
    """Everything the connection machinery needs for one module M over A.

    Built lazily and memoized on the module; all presentations and maps are
    shared by every connection on M.
    """

    def __init__(self, M: PresentedModule):
        self.M = M
        self.A = M.base
        self.bundle = sym_algebra_bundle(self.A, M)
        self.S = self.bundle.S
        self.TS = self.bundle.TS
        self.TA = tangent_algebra(self.A)
        self.p_A = make_morphism(self.A, self.TA, {g: self.TA.gen(g) for g in self.A.gens}, name="p")
        # T(A) (x)_A S_A(M), with its two injections
        self.TAS = tensor_over_base(
            self.A, self.TA, self.S, self.p_A, self.bundle.q, concat_grading=True
        )
        self.omega = kahler_module(self.A)
        self.omega_tensor_M = christoffel_target(M)
        u_images: dict[str, Polynomial] = {}
        for g in self.A.gens:
            u_images[f"{g}#0"] = Polynomial.variable(self.TS.field, self.TS.gens, g)
            u_images[f"{self.TA.dmap[g]}#0"] = Polynomial.variable(
                self.TS.field, self.TS.gens, self.TS.dmap[g]
            )
        for g in self.S.gens:
            u_images[f"{g}#1"] = Polynomial.variable(self.TS.field, self.TS.gens, g)
        self.U = AlgebraMorphism(self.TAS, self.TS, u_images, certify=True, name="U")
        self._lazy: dict = {}

    # -- lazy double-tangent data ------------------------------------------

    @property
    def T2S(self) -> TangentPresentation:
        if "T2S" not in self._lazy:
            self._lazy["T2S"] = tangent_algebra(self.TS)
        return self._lazy["T2S"]

    @property
    def flip_S(self) -> AlgebraMorphism:
        if "flip_S" not in self._lazy:
            self._lazy["flip_S"] = generic_flip(self.T2S)
        return self._lazy["flip_S"]

    @property
    def T2A(self) -> TangentPresentation:
        if "T2A" not in self._lazy:
            self._lazy["T2A"] = tangent_algebra(self.TA)
        return self._lazy["T2A"]

    @property
    def T_TAS(self) -> TangentPresentation:
        if "T_TAS" not in self._lazy:
            self._lazy["T_TAS"] = tangent_algebra(self.TAS)
        return self._lazy["T_TAS"]

    @property
    def T2A_tensor_TS(self) -> TensorAlgebra:
        """T^2(A) (x)_{T(A)} T(S_A(M)) along T(p_A) and T(q_M)."""
        if "T2A_TS" not in self._lazy:
            Tp = tangent_apply_functor(self.p_A)
            Tq = tangent_apply_functor(self.bundle.q)
            # sort grading (module, inner tangent, shared outer tangent); the
            # structural maps send T(A)'s differential to the outer level on
            # both sides, so concatenation would not be homogeneous here.
            grading = {}
            for g in self.T2A.gens:
                m_in, m_out = self.T2A.grading[g]
                grading[f"{g}#0"] = (0, m_in, m_out)
            for g in self.TS.gens:
                mod, tan = self.TS.grading[g]
                grading[f"{g}#1"] = (mod, 0, tan)
            self._lazy["T2A_TS"] = tensor_over_base(
                self.TA, self.T2A, self.TS, Tp, Tq, grading=grading, cap=(1, 1, 1)
            )
        return self._lazy["T2A_TS"]

    @property
    def leibniz_iso(self) -> AlgebraMorphism:
        """T(T(A) (x)_A S) -> T^2(A) (x)_{T(A)} T(S): identity on generator names.

        The deterministic differential naming makes both presentations use the
        same generator name set; the map w(x)v -> w(x)v, d(w(x)v) ->
        d'(w)(x)v + w(x)d(v) is then literally a relabeling.
        """
        if "iso" not in self._lazy:
            dom, cod = self.T_TAS, self.T2A_tensor_TS
            images = {g: Polynomial.variable(cod.field, cod.gens, g) for g in dom.gens}
            self._lazy["iso"] = AlgebraMorphism(dom, cod, images, certify=False, name="iso")
        return self._lazy["iso"]

    # -- embeddings between module world and algebra world ------------------

    def omega_m_to_tensor_algebra(self, e: ModuleElement) -> Polynomial:
        """Element of Omega(A) (x) M as a raw polynomial in T(A) (x)_A S_A(M)."""
        if e.module is not self.omega_tensor_M:
            raise ValueError("expected an element of Omega(A) (x) M")
        T = self.TAS
        base_rename = {g: f"{g}#1" for g in self.A.gens}
        out = Polynomial.zero(T.field, T.gens)
        for i, l, coef in self.omega_tensor_M.entries(e):
            dxi = f"{self.TA.dmap[self.A.gens[i]]}#0"
            ml = f"{self.M.gens[l]}#1"
            out = out + (
                coef.change_vars(T.gens, base_rename)
                * Polynomial.variable(T.field, T.gens, dxi)
                * Polynomial.variable(T.field, T.gens, ml)
            )
        return out

    def tensor_algebra_to_omega_m(self, e) -> tuple[ModuleElement, Polynomial]:
        """Split a T(A) (x) S element into its Omega(A) (x) M part plus the rest.

        Relies on the (d-degree, module-degree) bigrading of the tensor
        presentation: the ideal is bihomogeneous, so normal forms split by
        bidegree and the (1,1) part is well defined.
        """
        T = self.TAS
        poly = T.element(e).poly
        d_idx = [T.gens.index(f"{self.TA.dmap[g]}#0") for g in self.A.gens]
        m_idx = [T.gens.index(f"{m}#1") for m in self.M.gens]
        comps = [Polynomial.zero(self.A.field, self.A.gens)] * self.omega_tensor_M.rank
        stray = Polynomial.zero(T.field, T.gens)
        for exp, coef in poly.terms.items():
            ddeg = sum(exp[i] for i in d_idx)
            mdeg = sum(exp[i] for i in m_idx)
            if ddeg == 1 and mdeg == 1:
                i = next(k for k, pos in enumerate(d_idx) if exp[pos])
                l = next(k for k, pos in enumerate(m_idx) if exp[pos])
                rest = list(exp)
                rest[d_idx[i]] -= 1
                rest[m_idx[l]] -= 1
                base = Polynomial(T.field, T.gens, {tuple(rest): coef}).change_vars(
                    self.A.gens, {f"{g}#1": g for g in self.A.gens} | {f"{g}#0": g for g in self.A.gens}
                )
                k = self.omega_tensor_M.pair_index(i, l)
                comps[k] = comps[k] + base
            else:
                stray = stray + Polynomial(T.field, T.gens, {exp: coef})
        return self.omega_tensor_M.element(tuple(comps)), stray


def bundle_context(M: PresentedModule) -> BundleContext:
    if "bundle_ctx" not in M._memo:
        M._memo["bundle_ctx"] = BundleContext(M)
    return M._memo["bundle_ctx"]


def u_map(A: PresentedAlgebra, M: PresentedModule) -> AlgebraMorphism:
    """U: T(A) (x)_A S_A(M) -> T(S_A(M)), given by multiplication."""
    if M.base is not A:
        raise ValueError("module is not over the given algebra")
    return bundle_context(M).U


# ---------------------------------------------------------------------------
# affine identifications for torsion (S_A(Omega(A)) versus T(A))
# ---------------------------------------------------------------------------


def affine_flip(ctx: BundleContext) -> AlgebraMorphism:
    """The canonical flip of T(T(A)) transported to T(S_A(Omega(A))).

    Swaps the module sort d(x_i) with the tangent differential of x_i,
    fixing base generators and d-of-module generators.
    """
    if ctx.M.provenance != "kahler":
        raise ValueError("affine flip needs the Kahler module as the bundle")
    if "affine_flip" not in ctx._lazy:
        TS = ctx.TS
        images: dict[str, Polynomial] = {}
        for i, x in enumerate(ctx.A.gens):
            m = ctx.M.gens[i]
            images[x] = Polynomial.variable(TS.field, TS.gens, x)
            images[m] = Polynomial.variable(TS.field, TS.gens, TS.dmap[x])
            images[TS.dmap[x]] = Polynomial.variable(TS.field, TS.gens, m)
            images[TS.dmap[m]] = Polynomial.variable(TS.field, TS.gens, TS.dmap[m])
        ctx._lazy["affine_flip"] = AlgebraMorphism(TS, TS, images, certify=True, name="c")
    return ctx._lazy["affine_flip"]


def affine_swap(ctx: BundleContext) -> AlgebraMorphism:
    """The factor swap of T(A) (x)_A T(A) transported to T(A) (x)_A S_A(Omega)."""
    if ctx.M.provenance != "kahler":
        raise ValueError("affine swap needs the Kahler module as the bundle")
    if "affine_swap" not in ctx._lazy:
        T = ctx.TAS
        images: dict[str, Polynomial] = {}
        for i, x in enumerate(ctx.A.gens):
            m = ctx.M.gens[i]
            images[f"{x}#0"] = Polynomial.variable(T.field, T.gens, f"{x}#1")
            images[f"{x}#1"] = Polynomial.variable(T.field, T.gens, f"{x}#0")
            images[f"{ctx.TA.dmap[x]}#0"] = Polynomial.variable(T.field, T.gens, f"{m}#1")
            images[f"{m}#1"] = Polynomial.variable(T.field, T.gens, f"{ctx.TA.dmap[x]}#0")
        ctx._lazy["affine_swap"] = AlgebraMorphism(T, T, images, certify=True, name="tau")
    return ctx._lazy["affine_swap"]
