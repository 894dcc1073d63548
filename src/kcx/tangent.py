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

The tangent structure maps the axioms read, p, 0, l and c, are one
`TangentMaps` per algebra, `tangent_structure_maps(B)`, each map built on
first use; the connection machinery reads them at A, at S_A(M) and, for H.4,
at T(A).  Linearity of K and H is asked through the lift (H.3/H.4, K.3/K.4),
so no check reads the additive structure +, - or the swap of
T(A) (x)_A T(A), and none is built here.  S_A(M) is an additive bundle over A
too: `_additive_bundle` builds its q/z (no negation, for the same reason) and
`_vertical_lift` its lambda (and T(A)'s l) from T's `dmap`.  These maps and U
are `algebra.relabel` tables, each image zero or a single signed generator, so
`AlgebraMorphism.apply_raw` applies them by moving exponents.

Module values move into bundle presentations and back through one `ShapeMap`
per correspondence, each a table of signed products of generators: Omega(A)
(x) M in T(A) (x)_A S_A(M) (the H and K images), psi/phi between
Omega^2 (x) M and T^2(S_A(M)) (curvature) and psi-hat/phi-hat between
Omega^2 and T(S_A(Omega)) (torsion).  `write` is the only writer of those
shapes, and `_scan` the one reader behind `read` and `proves_zero`.  Each
`write` sends every relation row of its module into the ideal of its bundle,
so `ShapeMap.proves_zero` can show a raw value zero by reading alone: it
certifies H (and so K, read off H as {1 - U.H}) and the curvature and
torsion correspondences.  T(A) (x)_A S_A(M), the pushout along p and q, has
one copy of A's generators (`algebra.tensor_over_base`), so H's raw images are
read as given; the copy names of a tensor are read from its `rename` tables.

Each module's bundle is `bundle_context(M)`, one `BundleContext` with the
bundle's own maps (q/z, lambda, U, the shapes) as attributes and the
tangent structures of A and S_A(M) as `A_maps` and `S_maps`.  The maps that
exist only for M = Omega(A), the affine flip and the torsion shapes, read one
guard that refuses any other module with `ModuleNotKahler`.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import (
    AlgebraMorphism,
    ElementLike,
    GenRole,
    PresentedAlgebra,
    _ROLE_RANK,
    compose_chain,
    memoized,
    relabel,
    tensor_over_base,
)
from .errors import BaseMismatch, BracketingConditionFailure, ModuleNotKahler
from .modules import (
    ModuleElement,
    PresentedModule,
    christoffel_target,
    kahler_module,
    linear_form,
    tensor_modules,
    wedge_square,
)
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
        # where each source generator and its differential sit in `gens`
        self._slots = [(gens.index(g), gens.index(self.dmap[g])) for g in B.gens]
        super().__init__(B.field, gens, [], roles=roles, grading=grading, cap=(1,) * (k + 1))
        # reuse this presentation's own differential to build the new relations
        relations += [self.differential(r) for r in B.relations]
        self.relations = tuple(relations)

    def differential(self, p: Polynomial) -> Polynomial:
        """Formal differential of a source-ring polynomial, inside T(B).

        Each term c*x^e and source generator x_i with e_i > 0 give the one
        monomial c*e_i * x^(e - 1_i) * d(x_i), dropped when c*e_i vanishes
        in the field.  Distinct pairs give distinct monomials, so the result
        dict is written once per pair, with nothing to add up.
        """
        if not p.in_ring(self.field, self.source.gens):
            raise ValueError("polynomial is not in the source ring")
        f, n = self.field, len(self.gens)
        out = {}
        for e, c in p.terms.items():
            row = [0] * n
            for (pos, _), k in zip(self._slots, e):
                row[pos] = k
            for (pos, dpos), k in zip(self._slots, e):
                if k and (coef := f.mul(c, f.of(k))):
                    exp = row.copy()
                    exp[pos] -= 1
                    exp[dpos] = 1
                    out[tuple(exp)] = coef
        return Polynomial._of_terms(f, self.gens, out)


@memoized
def tangent_algebra(B: PresentedAlgebra) -> TangentPresentation:
    return TangentPresentation(B)


class TangentMaps:
    """The tangent structure of one algebra A, in algebra-side directions.

    T(A) is built with the object; T(T(A)) and each of p, 0, l and c on first
    use, one at a time, each certified as it is built.  A bundle context reads
    them at A and at S_A(M).
    """

    def __init__(self, A: PresentedAlgebra):
        self.A = A
        self.TA = tangent_algebra(A)

    @cached_property
    def TTA(self) -> TangentPresentation:
        return tangent_algebra(self.TA)

    @cached_property
    def p(self) -> AlgebraMorphism:
        """p: A -> T(A)."""
        return relabel(self.A, self.TA, {}, "p")

    @cached_property
    def zero(self) -> AlgebraMorphism:
        """0: T(A) -> A, identity on A, killing the differentials."""
        return relabel(self.TA, self.A, dict.fromkeys(self.TA.dmap.values()), "0")

    @cached_property
    def lift(self) -> AlgebraMorphism:
        """l: T(T(A)) -> T(A): kills both single levels, folds the mixed sort."""
        return _vertical_lift(self.A, self.TA, self.TTA, "l")

    @cached_property
    def flip(self) -> AlgebraMorphism:
        """c: T(T(A)) -> T(T(A)), swapping the two differential levels."""
        # the mixed sort TTA.dmap[TA.dmap[g]] is fixed
        return relabel(self.TTA, self.TTA, _swap({self.TA.dmap[g]: self.TTA.dmap[g] for g in self.A.gens}), "flip")


def _swap(table: dict[str, str]) -> dict[str, str]:
    """A `relabel` table exchanging each key with its value."""
    return {**table, **{v: k for k, v in table.items()}}


def _additive_bundle(A: PresentedAlgebra, B: PresentedAlgebra, names: tuple[str, ...]):
    """(include, zero) for an additive bundle B over A, both certified.

    B is presented on A's generators plus the fibre generators: S_A(M) (M's
    generators) and `dualnum`'s square-zero bundles (the epsilons).  The p and
    0 of T(A) and of the dual numbers are the same two tables, built alone.
    Linearity is asked through the lift, so no check reads the negation.
    """
    fibre = [g for g in B.gens if g not in A.gens]
    return relabel(A, B, {}, names[0]), relabel(B, A, dict.fromkeys(fibre), names[1])


def _vertical_lift(A: PresentedAlgebra, B: PresentedAlgebra, TB: TangentPresentation, name: str) -> AlgebraMorphism:
    """The vertical lift T(B) -> B of an additive bundle B over A: d(m) goes
    to m for each fibre generator m, every other generator outside A to 0."""
    table = dict.fromkeys(g for g in TB.gens if g not in A.gens)
    return relabel(TB, B, {**table, **{TB.dmap[m]: m for m in B.gens if m not in A.gens}}, name)


@memoized
def tangent_structure_maps(A: PresentedAlgebra) -> TangentMaps:
    return TangentMaps(A)


# ---------------------------------------------------------------------------
# symmetric-algebra bundles
# ---------------------------------------------------------------------------


def _sym_bundle(M: PresentedModule) -> PresentedAlgebra:
    """S_A(M): the affine total space of the bundle determined by M."""
    A = M.base
    gens = A.gens + M.gens
    roles = {g: GenRole("base", g) for g in A.gens}
    roles.update({m: GenRole("module", m) for m in M.gens})
    grading = {g: (0,) for g in A.gens}
    grading.update({m: (1,) for m in M.gens})
    relations = [r.change_vars(gens) for r in A.relations]
    relations += [linear_form(A.field, gens, row, M.gens) for row in M.relations]
    # no cap: S_A(M) itself carries arbitrary symmetric degrees
    return PresentedAlgebra(A.field, gens, relations, roles=roles, grading=grading)


# ---------------------------------------------------------------------------
# tangent functor on morphisms
# ---------------------------------------------------------------------------


def tangent_apply_functor(f: AlgebraMorphism) -> AlgebraMorphism:
    """T(f): base generators map by f, differentials by the differential of f's images.

    Built once per certified f and kept on it (`memoized`), so the axiom
    checks, `from_horizontal` and the bundle curvature share one T(H) and one
    T(K).  T(f) carries f's certificate, by functoriality.  A map not yet
    certified gets a fresh T(f) on each call, so no kept T(f) holds a flag
    that `f.certify()` has since made stale.
    """
    return _certified_tangent_map(f) if f.certified else _tangent_map(f)


def _tangent_map(f: AlgebraMorphism) -> AlgebraMorphism:
    TB = tangent_algebra(f.dom)
    TC = tangent_algebra(f.cod)
    images: dict[str, Polynomial] = {}
    for g in f.dom.gens:
        img = f.images[g]
        images[g] = img.change_vars(TC.gens)
        images[TB.dmap[g]] = TC.differential(img)
    out = AlgebraMorphism(TB, TC, images, certify=False, name=f"T({f.name})")
    out.certified = f.certified  # functoriality preserves well-definedness
    return out


_certified_tangent_map = memoized(_tangent_map)


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
            if not f.agrees_on(g, gen):
                raise BaseMismatch(gen, f.image_of(gen).render(), g.image_of(gen).render())
            images[gen] = f.images[gen]
    out = AlgebraMorphism(f.dom, f.cod, images, certify=False, name=f"({f.name}{'+' if sign == 'plus' else '-'}{g.name})")
    out.certified = f.certified and g.certified
    return out


def bracketing(ctx: BundleContext, h: AlgebraMorphism) -> AlgebraMorphism:
    """Extract S_A(M) -> B from h: T(S_A(M)) -> B killing base differentials."""
    TS, S = ctx.TS, ctx.S
    if h.dom is not TS:
        raise ValueError("bracketing expects a map out of the tangent of the bundle")
    for x in ctx.A.gens:
        val = h.image_of(TS.dmap[x])
        if not val.is_zero():
            raise BracketingConditionFailure(x, val.render())
    images = {x: h.images[x] for x in ctx.A.gens}
    images.update({m: h.images[TS.dmap[m]] for m in ctx.M.gens})
    out = AlgebraMorphism(S, h.cod, images, certify=False, name=f"{{{h.name}}}")
    out.certified = h.certified
    return out


class ShapeMap:
    """One module-to-bundle correspondence, written and read from one table.

    `shapes[k]` lists (sign, names) for module generator k: its bundle image
    is the sum of sign * prod(names) over P, each product squarefree in the
    non-base generators of P.  `write` sends sum c_k e_k to the raw sum of
    c_k times those images, the base generators of c_k renamed into P by
    `into` (by default A's own names).  `read` keys each monomial by its
    exponents at the non-base generators, those `into` misses: a key of some
    product gives sign * rest at generator k, the rest renamed back to A by
    the inverse of `into`, and every other monomial is stray.  `write_raw`
    is `write` on raw (k, p) terms, and `proves_zero` decides, by reading
    alone, that a raw value is the write of terms that combine to zero.
    """

    def __init__(self, P: PresentedAlgebra, module: PresentedModule, shapes, into=None):
        self.P, self.module = P, module
        gens, f = module.base.gens, P.field
        pos = {g: i for i, g in enumerate(P.gens)}
        self._into = [pos[(into or {}).get(g, g)] for g in gens]
        base = set(self._into)
        self._free = [i for i in range(len(P.gens)) if i not in base]
        self._write: list[list] = []  # per generator: (sign, exponent of the product)
        self._read: dict[tuple, tuple[int, int, object]] = {}  # key -> (generator, shape, sign)
        for k, terms in enumerate(shapes):
            row = []
            for s, (sign, names) in enumerate(terms):
                exp, sign = tuple(int(g in names) for g in P.gens), f.of(sign)
                row.append((sign, exp))
                self._read[tuple(exp[i] for i in self._free)] = (k, s, sign)
            self._write.append(row)

    def write(self, e: ModuleElement) -> Polynomial:
        """The bundle image of e, raw."""
        if e.module is not self.module:
            raise ValueError("element of a different module")
        return self.write_raw(enumerate(e.comps))

    def write_raw(self, terms) -> Polynomial:
        """The bundle image of sum p * e_k over (k, p), each p raw over A."""
        f, n = self.P.field, len(self.P.gens)
        out: dict = {}
        for k, coef in terms:
            for a_exp, c in coef.terms.items():
                base = [0] * n
                for p, e in zip(self._into, a_exp):
                    base[p] += e
                for sign, prod in self._write[k]:
                    exp = tuple(b + q for b, q in zip(base, prod))
                    s = f.addmul(out.get(exp, 0), sign, c)
                    if s:
                        out[exp] = s
                    else:
                        out.pop(exp, None)
        return Polynomial._of_terms(f, self.P.gens, out)

    def _scan(self, value: ElementLike) -> tuple[list[list[dict]], dict]:
        """Each monomial of `value` read once: per generator and shape, the
        read rest over A -> signed coefficient; and the stray monomials."""
        f = self.P.field
        reads = [[{} for _ in row] for row in self._write]
        stray = {}
        for exp, c in self.P.polynomial(value).terms.items():
            hit = self._read.get(tuple(exp[i] for i in self._free))
            if hit is None:
                stray[exp] = c
            else:
                reads[hit[0]][hit[1]][tuple(exp[p] for p in self._into)] = f.mul(hit[2], c)
        return reads, stray

    def read(self, value: ElementLike) -> tuple[ModuleElement, Polynomial]:
        """(module element, stray rest over P) of a bundle value, read as given."""
        reads, stray = self._scan(value)
        f, gens = self.P.field, self.module.base.gens
        terms = [(k, Polynomial._of_terms(f, gens, r)) for k, row in enumerate(reads) for r in row if r]
        return self.module.combine(terms), Polynomial._of_terms(f, self.P.gens, stray)

    def proves_zero(self, value: ElementLike) -> bool:
        """Whether raw `value` is zero in P, shown by reading it alone.

        It is when `value` is write_raw(R) term for term and R combines to
        zero in the module: every monomial reads (nothing is stray), every
        shape of generator k reads the same R_k, and R is zero.  `write` is
        A-linear on raw values and sends every relation row of the module
        into P's ideal, so write_raw(R) is then zero in P.
        """
        reads, stray = self._scan(value)
        if stray or any(r != row[0] for row in reads for r in row[1:]):
            return False
        f, gens = self.P.field, self.module.base.gens
        R = self.module.combine((k, Polynomial._of_terms(f, gens, row[0])) for k, row in enumerate(reads))
        return R.is_zero()


# ---------------------------------------------------------------------------
# the per-module context used by connections, curvature and torsion
# ---------------------------------------------------------------------------


class BundleContext:
    """The bundle S_A(M) of one module M over A, with everything the
    connection machinery needs: the tangent structures of A and S_A(M)
    (`A_maps`, `S_maps`), q/z and lambda, the tensor T(A) (x)_A S_A(M)
    with U, and the maps the axiom checks share.

    One per module (`bundle_context`), shared by every connection on M.  The
    axiom maps are built on first use, as are the structure maps other than
    A's p.
    """

    def __init__(self, M: PresentedModule):
        A = self.A = M.base
        self.M = M
        self.S = _sym_bundle(M)
        self.A_maps = tangent_structure_maps(A)
        self.S_maps = tangent_structure_maps(self.S)
        self.TA, self.TS = self.A_maps.TA, self.S_maps.TA
        self.q, self.z = _additive_bundle(A, self.S, ("q", "z"))
        self.lam = _vertical_lift(A, self.S, self.TS, "lambda")
        # T(A) (x)_A S_A(M), with its two injections
        self.TAS = tensor_over_base(self.A_maps.p, self.q)
        self.omega_tensor_M = christoffel_target(M)
        u_table = {self.TAS.rename[1][g]: g for g in self.S.gens}
        u_table.update({self.TAS.rename[0][self.TA.dmap[g]]: self.TS.dmap[g] for g in A.gens})
        self.U = relabel(self.TAS, self.TS, u_table, "U")

    # -- maps shared by the axiom checks -----------------------------------

    def _down(self, f0: AlgebraMorphism, f1: AlgebraMorphism, name: str) -> AlgebraMorphism:
        """f0 (x) f1: T(T(A) (x)_A S) -> T(A) (x)_A S, factor by factor.

        T(T(A) (x)_A S) is T^2(A) (x)_{T(A)} T(S) (Leibniz: d(w (x) v) is
        d'(w) (x) v + w (x) d(v)).  T(i0) and T(i1) are renamings: a
        generator g of a factor is named `TAS.rename[k][g]` and d(g) is named
        T's differential of that name.  The two tables give the one copy of
        T(A) that both factors reach the same names, so f0 (x) f1 is defined
        once f0 after T(p_A) and f1 after T(q) agree on T(A), generator by
        generator (else `BaseMismatch`, as in `bundle_combine`); T(S)'s
        images are the ones kept there.
        """
        TAS, T = self.TAS, tangent_algebra(self.TAS)
        left = compose_chain([tangent_apply_functor(self.A_maps.p), f0, TAS.i0])
        right = compose_chain([tangent_apply_functor(self.q), f1, TAS.i1])
        for g in self.TA.gens:
            if not left.agrees_on(right, g):
                raise BaseMismatch(g, left.image_of(g).render(), right.image_of(g).render())
        images = {}
        for f, i, rename in ((f0, TAS.i0, TAS.rename[0]), (f1, TAS.i1, TAS.rename[1])):
            names = {**rename, **{f.dom.dmap[g]: T.dmap[n] for g, n in rename.items()}}
            images.update({names[g]: i.apply_raw(p) for g, p in f.images.items()})
        return AlgebraMorphism(T, TAS, {g: images[g] for g in T.gens}, name=name)

    @cached_property
    def h3_down(self) -> AlgebraMorphism:
        """H.3: the vertical lift on T^2(A), zero on T(S)."""
        return self._down(self.A_maps.lift, self.S_maps.zero, "l(x)0")

    @cached_property
    def h4_down(self) -> AlgebraMorphism:
        """H.4: zero on T^2(A), which kills the outer level, and lambda on T(S)."""
        return self._down(tangent_structure_maps(self.TA).zero, self.lam, "0(x)lam")

    # -- module-to-bundle correspondences -------------------------------------

    @cached_property
    def omega_m_shapes(self) -> ShapeMap:
        """Omega(A) (x) M in T(A) (x)_A S_A(M): d(x_i) (x) m_l is d_x_i * m_l,
        one from each factor, with coefficients on the one copy of A."""
        A, M = self.A, self.M
        r0, r1 = self.TAS.rename
        shapes = [[(1, (r0[self.TA.dmap[x]], r1[m]))] for x in A.gens for m in M.gens]
        return ShapeMap(self.TAS, self.omega_tensor_M, shapes, r1)

    @cached_property
    def curvature_shapes(self) -> ShapeMap:
        """psi/phi: (d(x_i) ^ d(x_j)) (x) m in T^2(S_A(M)) is
        m d(x_i) d'(x_j) - m d'(x_i) d(x_j), d the first and d' the second level."""
        w2 = wedge_square(kahler_module(self.A))
        T2S = self.S_maps.TTA
        x, d, dp = self.A.gens, self.TS.dmap, T2S.dmap
        shapes = [
            [(1, (m, d[x[i]], dp[x[j]])), (-1, (m, dp[x[i]], d[x[j]]))] for i, j in w2.pairs for m in self.M.gens
        ]
        return ShapeMap(T2S, tensor_modules(w2, self.M), shapes)

    # -- Kahler-only maps: S_A(Omega(A)) against T(A) ------------------------

    def _require_kahler(self) -> None:
        if self.M.provenance != "kahler":
            raise ModuleNotKahler("torsion needs the differentials module")

    @cached_property
    def torsion_shapes(self) -> ShapeMap:
        """psi-hat/phi-hat: d(x_i) ^ d(x_j) in T(S_A(Omega)) is m_i d(x_j) - d(x_i) m_j,
        m_i the module generator d(x_i) of S_A(Omega)."""
        self._require_kahler()
        w2 = wedge_square(self.M)
        x, m, d = self.A.gens, self.M.gens, self.TS.dmap
        return ShapeMap(self.TS, w2, [[(1, (m[i], d[x[j]])), (-1, (d[x[i]], m[j]))] for i, j in w2.pairs])

    @cached_property
    def affine_flip(self) -> AlgebraMorphism:
        """The canonical flip of T(T(A)) transported to T(S_A(Omega(A))): swaps
        the module sort d(x_i) with the tangent differential of x_i."""
        self._require_kahler()
        return relabel(self.TS, self.TS, _swap({m: self.TS.dmap[x] for x, m in zip(self.A.gens, self.M.gens)}), "c")


@memoized
def bundle_context(M: PresentedModule) -> BundleContext:
    return BundleContext(M)
