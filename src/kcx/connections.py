"""Module connections and their horizontal/vertical bundle forms.

A connection on M over A is stored by its Christoffel data: one element of
Omega(A) (x)_A M per module generator.  Construction certifies the Leibniz
compatibility with every module relation and rejects anything else with the
offending residue.  The same data converts losslessly to the two bundle-map
forms: the horizontal form H out of T(S_A(M)) and the vertical form K into it,
and back; the axiom suite checks the four H diagrams, the four K diagrams and
the two compatibility equations as morphism identities on generators.

Each connection builds H and K once, on first use.  H is certified by
`AlgebraMorphism.certify`, like every other map, reading alone with no basis
of T(S_A(M)) or T(A) (x)_A S_A(M): each raw relation image is a relation of
the tensor or, for the d(rho), the write of Leibniz terms that combine to
zero (`tangent.ShapeMap.proves_zero`, the one extra test H passes to
`certify`).  T(A) (x)_A S_A(M) has one shared copy of A's generators, so H's
raw images are read as given.  Data that fails the Leibniz rule falls back to
H's full certificate, which reports the failure.
K is read off H as {1 - U.H} (`vertical_from_horizontal`) and inherits H's
certificate, so it has no certificate of its own.

`from_horizontal` reads each raw d(m) image of H once and keeps its
bidegree-(1,1) part (tangent degree, fibre degree).  H.3 and H.4 force the
image to equal that part modulo the ideal, which is bihomogeneous; the (1,1)
monomials are exactly the shape monomials of Omega (x) M, and the ideal's
(1,1) part reads into its relation rows, so the raw read gives the
connection the normal-form read would (the argument is in its docstring).

Every check, from this axiom suite to `kcx` output, is one `AxiomCheck`; a
failing one renders its residue once, where it fails (`morphism_equality`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple

from .algebra import (
    AlgebraMorphism,
    PresentedAlgebra,
    compose_chain,
    compose_morphisms,
    identity_morphism,
)
from .errors import (
    AxiomFailure,
    SectionRetractionFailure,
    WellDefinednessFailure,
)
from .modules import (
    ModuleElement,
    ModuleMorphism,
    PresentedModule,
    christoffel_target,
    free_module,
    make_module,
)
from .poly import Polynomial
from .tangent import (
    BundleContext,
    bracketing,
    bundle_combine,
    bundle_context,
    tangent_apply_functor,
)


class Connection:
    """Christoffel data for nabla: M -> Omega(A) (x)_A M, certified.

    The bundle context and the two bundle forms H and K are built on first
    use, once per connection: bundle forms, curvature and torsion need them,
    the module-side Leibniz rule and the solvers do not.  T(H) and T(K) are
    built once too, kept on H and K (`tangent_apply_functor`), and the module
    curvature and torsion images once, on first read, in `_memo`
    (`curvature.module_curvature`, `module_torsion`).
    """

    def __init__(self, M: PresentedModule, gamma: dict[str, ModuleElement]):
        self.module = M
        self.gamma = gamma
        self._memo: dict = {}  # derived structures, filled by `memoized`

    @cached_property
    def ctx(self) -> BundleContext:
        return bundle_context(self.module)

    @property
    def base(self) -> PresentedAlgebra:
        return self.module.base

    @cached_property
    def H(self) -> AlgebraMorphism:
        """H: T(S_A(M)) -> T(A) (x)_A S_A(M) with H(d(m)) the connection image.

        H sends x and m into the S_A(M) factor (the injection i1; x lands on
        the one shared copy of A's generators), d(x) to d_x in the T(A)
        factor (the injection i0) and d(m) to write(Gamma(m)).  It is
        certified by reading its raw relation images, with no basis: A's
        relations r, their differentials d(r) and the linear forms rho of
        M's rows go to relations of the tensor (`PresentedAlgebra.proves_zero`),
        and H(d(rho)) is the write of rho's Leibniz terms, which combine to
        zero exactly when the data passes the module-side Leibniz check
        (`ShapeMap.proves_zero`, passed to `certify` as `also`).  No relation
        is told apart by its place in T(S_A(M))'s list.  Data that fails
        reaches H's full certificate, which names the first relation with a
        nonzero residue.
        """
        ctx = self.ctx
        TS, T = ctx.TS, ctx.TAS
        i0, i1 = T.i0.images, T.i1.images
        images: dict[str, Polynomial] = {}
        for x in ctx.A.gens:
            images[x], images[TS.dmap[x]] = i1[x], i0[ctx.TA.dmap[x]]
        for m in ctx.M.gens:
            images[m], images[TS.dmap[m]] = i1[m], ctx.omega_m_shapes.write(self.gamma[m])
        return AlgebraMorphism(TS, T, images, certify=False, name="H").certify(ctx.omega_m_shapes.proves_zero)

    @cached_property
    def K(self) -> AlgebraMorphism:
        """K: S_A(M) -> T(S_A(M)), read off H as {1 - U.H}
        (`vertical_from_horizontal`) and certified by H's certificate; data
        that fails it raises H's failure here."""
        return vertical_from_horizontal(self.H, self.module)

    def __repr__(self) -> str:
        rows = "; ".join(f"{g} -> {self.gamma[g].render()}" for g in self.module.gens)
        return f"<connection {rows}>"


def leibniz_terms(M: PresentedModule, entries, gamma: dict[str, ModuleElement]) -> Iterator[tuple[int, Polynomial]]:
    """`combine` terms of sum d(c) (x) g_l + c * Gamma(g_l) over (l, c) in
    `entries`, in `christoffel_target(M)`.

    d(c) (x) g_l is written raw, as partial(c, x_i) at pair (i, l): c is any
    representative of its class, and Gamma(g_l) is scaled component by
    component.
    """
    target = christoffel_target(M)
    for l, coef in entries:
        if coef.is_zero():
            continue
        for i, x in enumerate(M.base.gens):
            yield target.pair_index(i, l), coef.partial(x)
        for k, c in enumerate(gamma[M.gens[l]].comps):
            if c:
                yield k, coef * c


def connection_residues(
    M: PresentedModule, gamma: dict[str, ModuleElement]
) -> list[tuple[tuple, ModuleElement]]:
    """Per-relation Leibniz residues of candidate Christoffel data (no raise)."""
    target = christoffel_target(M)
    return [(row, target.combine(leibniz_terms(M, enumerate(row), gamma))) for row in M.relations]


def make_connection(M: PresentedModule, images: dict[str, object]) -> Connection:
    """Build and certify a connection from generator images in Omega(A) (x) M."""
    target = christoffel_target(M)
    if set(images) != set(M.gens):
        raise ValueError("need exactly one image per module generator")
    gamma = {g: target.element(v) for g, v in images.items()}
    for row, residue in connection_residues(M, gamma):
        if not residue.is_zero():
            raise WellDefinednessFailure(
                "connection", " , ".join(c.render() for c in row), residue.render()
            )
    return Connection(M, gamma)


def apply_connection(nabla: Connection, e: ModuleElement) -> ModuleElement:
    """Leibniz extension: nabla(sum a_j g_j) = sum (d(a_j) (x) g_j + a_j Gamma(g_j))."""
    M = nabla.module
    target = christoffel_target(M)
    return target.combine(leibniz_terms(M, enumerate(M.element(e).comps), nabla.gamma))


# ---------------------------------------------------------------------------
# conversions between the module form and the bundle forms
# ---------------------------------------------------------------------------


def to_horizontal(nabla: Connection) -> AlgebraMorphism:
    """The horizontal form of nabla, built and certified once (`Connection.H`)."""
    return nabla.H


def to_vertical(nabla: Connection) -> AlgebraMorphism:
    """The vertical form of nabla, read off H once (`Connection.K`)."""
    return nabla.K


def from_horizontal(H: AlgebraMorphism, M: PresentedModule) -> Connection:
    """Recover the connection from a horizontal form (axioms checked first)
    by one raw read of each d(m) image; the stray terms are dropped.

    Let P = H(d(m)) in T(A) (x)_A S_A(M), graded by (tangent degree, fibre
    degree).  The ideal is bihomogeneous (A's relations have bidegree (0,0),
    the d(r) (1,0), the rho (0,1)), so the quotient is bigraded.  The checked
    H.3 reads P = sum_x d_x * (dP/dd_x at d = 0) there, since `h3_down` keeps
    only d'(d_x#0) -> d_x#0: P is its tangent-degree-1 part.  H.4 reads
    P = sum_m m * (dP/dm at m = 0), since `h4_down` keeps only d'(m#1) ->
    m#1: P is its fibre-degree-1 part.  So P is congruent to its raw (1,1)
    part.  The (1,1) monomials are exactly the shape monomials
    d_x#0 * m#1 * (A-monomial), and the ideal's (1,1) part reads into
    relation rows of Omega (x) M, so the raw read gives the connection the
    normal-form read gives.  An image above the grade cap is refused by the
    axiom check.
    """
    ctx = bundle_context(M)
    report = verify_horizontal_axioms(H, M)
    if not report.all_pass:
        raise AxiomFailure(report)
    return make_connection(M, {m: ctx.omega_m_shapes.read(H.images[ctx.TS.dmap[m]])[0] for m in M.gens})


def vertical_from_horizontal(H: AlgebraMorphism, M: PresentedModule) -> AlgebraMorphism:
    """K = {1 - U.H}, the vertical form read off the horizontal one by the
    one-minus-multiplication route and bracketing.

    K(m) = d(m) - U(H(d(m))) and K(x) = x as raw polynomials, so K is
    certified when H is: U and the identity are, and composition, the
    fibrewise difference and bracketing pass the flag on.
    """
    ctx = bundle_context(M)
    UH = compose_morphisms(ctx.U, H)
    fibre = {ctx.TS.dmap[g] for g in ctx.S.gens}
    K = bracketing(ctx, bundle_combine(identity_morphism(ctx.TS), UH, "minus", fibre))
    K.name = "K"
    return K


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------


class AxiomCheck(NamedTuple):
    """One check as `kcx` prints it; a failure's residue is rendered where it fails."""

    axiom_id: str
    status: str  # pass | fail
    witness: str = ""
    residue: str = ""


def morphism_equality(axiom_id: str, lhs: AlgebraMorphism, rhs: AlgebraMorphism) -> AxiomCheck:
    """Whether lhs and rhs agree on every generator of their domain; the first
    one they differ on is the witness, with residue "<lhs image> != <rhs image>"."""
    for gen in lhs.dom.gens:
        if not lhs.agrees_on(rhs, gen):
            return AxiomCheck(axiom_id, "fail", gen, f"{lhs.image_of(gen).render()} != {rhs.image_of(gen).render()}")
    return AxiomCheck(axiom_id, "pass")


class AxiomReport:
    def __init__(self):
        self.entries: list[AxiomCheck] = []

    @property
    def all_pass(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def add_morphism_equality(self, axiom_id: str, lhs: AlgebraMorphism, rhs: AlgebraMorphism):
        self.entries.append(morphism_equality(axiom_id, lhs, rhs))


def verify_horizontal_axioms(H: AlgebraMorphism, M: PresentedModule) -> AxiomReport:
    ctx = bundle_context(M)
    report = AxiomReport()
    TH, T_lam = tangent_apply_functor(H), tangent_apply_functor(ctx.lam)
    report.add_morphism_equality("H.1", compose_chain([tangent_apply_functor(ctx.q), H]), ctx.TAS.i0)
    S_maps = ctx.S_maps
    report.add_morphism_equality("H.2", compose_chain([S_maps.p, H]), ctx.TAS.i1)
    report.add_morphism_equality("H.3", compose_chain([S_maps.lift, H]), compose_chain([TH, ctx.h3_down]))
    report.add_morphism_equality("H.4", compose_chain([S_maps.flip, T_lam, H]), compose_chain([TH, ctx.h4_down]))
    return report


def verify_vertical_axioms(K: AlgebraMorphism, M: PresentedModule) -> AxiomReport:
    ctx = bundle_context(M)
    report = AxiomReport()
    TK = tangent_apply_functor(K)
    report.add_morphism_equality("K.1", compose_chain([K, ctx.lam]), identity_morphism(ctx.S))
    S_maps = ctx.S_maps
    report.add_morphism_equality("K.2", compose_chain([ctx.q, K]), compose_chain([ctx.q, S_maps.p]))
    lhs34 = compose_chain([ctx.lam, K])
    report.add_morphism_equality("K.3", lhs34, compose_chain([TK, S_maps.lift]))
    report.add_morphism_equality("K.4", lhs34, compose_chain([TK, S_maps.flip, tangent_apply_functor(ctx.lam)]))
    return report


def verify_connection_axioms(
    K: AlgebraMorphism, H: AlgebraMorphism, M: PresentedModule
) -> AxiomReport:
    """Full suite: H.1-H.4, K.1-K.4 and the two compatibility equations."""
    ctx = bundle_context(M)
    report = AxiomReport()
    report.entries.extend(verify_horizontal_axioms(H, M).entries)
    report.entries.extend(verify_vertical_axioms(K, M).entries)
    # C.1: following K then H is the zero section over the bundle projection.
    rhs = compose_chain([ctx.z, ctx.q, ctx.TAS.i1])
    report.add_morphism_equality("C.1", compose_chain([K, H]), rhs)
    # C.2: vertical part plus horizontal part reassemble the identity of T(S).
    module_fibre = set(M.gens) | {ctx.TS.dmap[m] for m in M.gens}
    d_fibre = {ctx.TS.dmap[g] for g in ctx.S.gens}
    vertical = bundle_combine(
        compose_chain([ctx.lam, K]),
        compose_chain([ctx.S_maps.zero, ctx.S_maps.p]),
        "plus",
        module_fibre,
    )
    total = bundle_combine(vertical, compose_morphisms(ctx.U, H), "plus", d_fibre)
    report.add_morphism_equality("C.2", total, identity_morphism(ctx.TS))
    return report


# ---------------------------------------------------------------------------
# stock constructions
# ---------------------------------------------------------------------------


def free_canonical_connection(A: PresentedAlgebra, n: int) -> Connection:
    """Gamma = 0 on a rank-n free module; Leibniz gives componentwise d."""
    return zero_gamma_connection(free_module(A, n))


def zero_gamma_connection(M: PresentedModule) -> Connection:
    """Gamma = 0 on any module (certified, so rejected when not admissible)."""
    return make_connection(M, {g: christoffel_target(M).zero() for g in M.gens})


def pullback_connection(nabla: Connection, f: AlgebraMorphism) -> Connection:
    """Transport a connection along f: A -> B to the module B (x)_A M.

    The pullback module keeps M's generator names, with relation coefficients
    pushed through f; Christoffel images map d(x_i) to d(f(x_i)).
    """
    if f.dom is not nabla.base:
        raise ValueError("morphism domain must be the connection's base algebra")
    if not f.certified:
        f.certify()
    M, A, B = nabla.module, nabla.base, f.cod
    pulled = make_module(B, M.gens, [[f.apply_raw(c) for c in row] for row in M.relations])
    target = christoffel_target(pulled)
    images = {}
    for g in M.gens:
        terms = []
        for i, l, coef in christoffel_target(M).entries(nabla.gamma[g]):
            fc, fx = f.apply_raw(coef), f.images[A.gens[i]]
            terms += [(target.pair_index(j, l), fc * fx.partial(y)) for j, y in enumerate(B.gens)]
        images[g] = target.combine(terms)
    return make_connection(pulled, images)


def retract_connection(nabla: Connection, s: ModuleMorphism, r: ModuleMorphism) -> Connection:
    """Connection induced on a retract: compose section, nabla, and retraction."""
    M = nabla.module
    Mp = s.dom
    if s.cod is not M or r.dom is not M or r.cod is not Mp:
        raise ValueError("need s: M' -> M and r: M -> M'")
    for g in Mp.gens:
        if r(s(Mp.gen(g))) != Mp.gen(g):
            raise SectionRetractionFailure(f"r(s({g})) != {g}")
    target = christoffel_target(Mp)
    images = {}
    for g in Mp.gens:
        full = apply_connection(nabla, s.images[g])
        images[g] = target.combine(
            (target.pair_index(i, k), coef * c)
            for i, l, coef in christoffel_target(M).entries(full)
            for k, c in enumerate(r.images[M.gens[l]].comps)
            if c
        )
    return make_connection(Mp, images)


def connection_equal(c1: Connection, c2: Connection) -> bool:
    """Equality of Christoffel data, up to identical module presentations."""
    m1, m2 = c1.module, c2.module
    if m1 is m2:
        return all(c1.gamma[g] == c2.gamma[g] for g in m1.gens)
    if m1.base is not m2.base or m1.gens != m2.gens or m1.relations != m2.relations:
        return False
    return all(c1.gamma[g].comps == c2.gamma[g].comps for g in m1.gens)
