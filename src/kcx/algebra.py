"""Finitely presented commutative algebras, their elements and morphisms.

A `PresentedAlgebra` is k[g1..gn]/I with a cached reduced Groebner basis, so
element equality is canonical normal-form equality.  Raw in, reduced once:
`PresentedAlgebra.polynomial` reads any `ElementLike` without reducing it,
constructors keep raw values, and only `AlgebraElement` and, in `modules.py`,
`ModuleElement` and `PresentedModule.combine` reduce.  So morphisms are
stored by raw generator images, and applying a morphism substitutes and then
reduces in the codomain.  A tensor over a base is a pushout along generator
inclusions, presented on one copy of the base, so raw images compare as given.
Certification (all domain relations map to zero) happens eagerly for
user-built morphisms and lazily/never for maps whose well-definedness is
forced by construction.  It first matches each relation's raw image against
zero and the codomain's relations up to sign, and builds the codomain's basis
only for an image that matches neither.  A morphism whose images are each zero
or a signed codomain generator (a signed renaming, the shape of nearly every
structure map) is applied by moving exponents, with no polynomial products.

Generator roles record how a generator arose (plain base, module generator of
a symmetric-algebra bundle, or a first/second-level tangent differential of
one); the tangent machinery relies on them for deterministic naming.
"""

from __future__ import annotations

from functools import cached_property, wraps
from typing import Callable, Iterable, Mapping, NamedTuple, Union

from .errors import OwnerMismatch, WellDefinednessFailure
from .fields import Field
from .groebner import IdealBasis, fits_cap, grade_columns
from .parse import poly_normalize
from .poly import Polynomial


class GenRole(NamedTuple):
    kind: str  # base | module | d | dm | dp | dpm | dpd | dpdm
    origin: str  # name of the base/module generator this one differentiates


ElementLike = Union["AlgebraElement", Polynomial, str, int]


def memoized(build: Callable) -> Callable:
    """Run `build(owner, *others)` once per owner and others.

    The result is kept in `owner._memo`, keyed by `build` and the other
    arguments themselves, so a derived structure lives exactly as long as the
    algebra or module it was derived from.
    """

    @wraps(build)
    def cached(owner, *others):
        key = (build, *others)
        if key not in owner._memo:
            owner._memo[key] = build(owner, *others)
        return owner._memo[key]

    return cached


# Variable-order ranks for tangent presentations.  Normal forms prefer late
# (grevlex-small) monomials, so pure differential sorts go last: reductions
# then rewrite composite sorts (d of module generators and second-level
# differentials) toward products of plain differentials and module generators.
_ROLE_RANK = {"dpdm": 0, "dpd": 1, "dpm": 2, "dm": 3, "base": 4, "dp": 5, "d": 6, "module": 7}


class PresentedAlgebra:
    def __init__(
        self,
        field: Field,
        gens: tuple[str, ...],
        relations: Iterable[Polynomial],
        roles: Mapping[str, GenRole] | None = None,
        grading: Mapping[str, tuple[int, ...]] | None = None,
        cap: tuple[int, ...] | None = None,
    ):
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator names")
        self.field = field
        self.gens = tuple(gens)
        self.relations = tuple(relations)
        for r in self.relations:
            if r.vars != self.gens or r.field is not field:
                raise ValueError("relation not over the algebra's generators")
        self.roles = dict(roles) if roles else {g: GenRole("base", g) for g in gens}
        if set(self.roles) != set(gens):
            raise ValueError("role table must cover every generator exactly once")
        # Optional N^k-grading by differential sort; with a cap the Groebner
        # basis is truncated to the grades the engine actually reduces.
        self.grading = dict(grading) if grading else None
        self.cap = cap
        self._memo: dict = {}  # derived structures, filled by `memoized`

    @cached_property
    def basis(self) -> IdealBasis:
        return IdealBasis(self.field, self.gens, list(self.relations), self._grading_list, self.cap)

    @property
    def _grading_list(self) -> list[tuple[int, ...]] | None:
        return [self.grading[g] for g in self.gens] if self.grading else None

    @cached_property
    def cap_columns(self) -> list[tuple[int, ...]] | None:
        """The grading's weight columns when a cap truncates the basis, else None."""
        return grade_columns(self._grading_list) if self.grading and self.cap is not None else None

    def within_cap(self, p: Polynomial) -> bool:
        """Whether `p` lies within the grade cap, where the basis decides equality."""
        return self.cap_columns is None or fits_cap(p.terms, self.cap_columns, self.cap)

    @cached_property
    def signed_relations(self) -> frozenset[Polynomial]:
        """Every relation and its negative, each zero here with no normal form.

        With a grade cap, only relations within the cap: the truncated basis
        decides nothing above it, so an image equal to such a relation must
        reach `IdealBasis.normal_form`, which refuses it.
        """
        rels = [r for r in self.relations if self.within_cap(r)]
        return frozenset(rels) | frozenset(-r for r in rels)

    def proves_zero(self, p: Polynomial) -> bool:
        """Whether raw `p` is zero here by definition, with no normal form:
        it is zero or a signed relation."""
        return p.is_zero() or p in self.signed_relations

    def proves_equal(self, p: Polynomial, q: Polynomial) -> bool:
        """Whether raw `p` and `q` are equal here by definition: equal term
        for term and within the cap."""
        return p.terms == q.terms and self.within_cap(p)

    def __repr__(self) -> str:
        rels = "; ".join(r.render() for r in self.relations) or "0"
        return f"<algebra k[{', '.join(self.gens)}]/({rels}) char {self.field.char}>"

    # ---------- elements ----------

    def polynomial(self, value: ElementLike) -> Polynomial:
        """`value` over the generators, unreduced; an element of another
        algebra raises `OwnerMismatch`, a polynomial of another ring `ValueError`."""
        if isinstance(value, AlgebraElement):
            if value.owner is not self:
                raise OwnerMismatch("element belongs to a different algebra")
            return value.poly
        if isinstance(value, Polynomial):
            if not value.in_ring(self.field, self.gens):
                raise ValueError("polynomial is not in the ambient ring")
            return value
        if isinstance(value, str):
            return poly_normalize(value, self.field, self.gens)
        return Polynomial.const(self.field, self.gens, value)

    def element(self, value: ElementLike) -> "AlgebraElement":
        if isinstance(value, AlgebraElement) and value.owner is self:
            return value
        return AlgebraElement(self, self.polynomial(value))

    def gen(self, name: str) -> "AlgebraElement":
        return AlgebraElement(self, Polynomial.variable(self.field, self.gens, name))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, Polynomial.zero(self.field, self.gens))

    def one(self) -> "AlgebraElement":
        return self.element(1)


class AlgebraElement:
    __slots__ = ("owner", "poly")

    def __init__(self, owner: PresentedAlgebra, poly: Polynomial):
        self.owner = owner
        if poly.is_zero():  # already normal: no need to build the owner's basis
            if not poly.in_ring(owner.field, owner.gens):
                raise ValueError("polynomial is not in the ambient ring")
            self.poly = poly
        else:
            self.poly = owner.basis.normal_form(poly)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __add__(self, other):
        return AlgebraElement(self.owner, self.poly + self.owner.polynomial(other))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return AlgebraElement(self.owner, self.poly - self.owner.polynomial(other))

    def __rsub__(self, other):
        return AlgebraElement(self.owner, self.owner.polynomial(other) - self.poly)

    def __mul__(self, other):
        return AlgebraElement(self.owner, self.poly * self.owner.polynomial(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return AlgebraElement(self.owner, -self.poly)

    def __pow__(self, n: int):
        return AlgebraElement(self.owner, self.poly ** n)

    def __eq__(self, other) -> bool:
        """Equality of classes; a value the algebra refuses raises, as in `+`,
        and only an operand of a type `polynomial` cannot read is NotImplemented."""
        if isinstance(other, AlgebraElement) and other.owner is not self.owner:
            raise OwnerMismatch("comparing elements of different algebras")
        try:
            other = self.owner.element(other)
        except TypeError:
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash((id(self.owner), self.poly))

    def render(self) -> str:
        return self.poly.render()

    def __repr__(self) -> str:
        return f"<elt {self.render()}>"


def make_algebra(field: Field, gens: Iterable[str], relations: Iterable[str] = ()) -> PresentedAlgebra:
    """Build k[gens]/(relations) from expression strings; basis cached lazily."""
    gens = tuple(gens)
    rels = [poly_normalize(r, field, gens) for r in relations]
    return PresentedAlgebra(field, gens, rels)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


class AlgebraMorphism:
    """Algebra map determined by raw generator images in the codomain.

    Domain and codomain are over one field: a map across fields is refused.
    When every image is zero or c*y for one codomain generator y (a signed
    renaming: flips, lifts, lambda, U and the bundle maps), the map keeps a
    per-generator table of (codomain position, c), or None for zero, built
    once here; `apply_raw` then moves exponents through it.
    """

    __slots__ = ("dom", "cod", "images", "certified", "name", "_renaming")

    def __init__(
        self,
        dom: PresentedAlgebra,
        cod: PresentedAlgebra,
        images: Mapping[str, Polynomial],
        certify: bool = True,
        name: str = "",
    ):
        self.dom = dom
        self.cod = cod
        self.name = name
        if cod.field is not dom.field:
            raise ValueError(f"{name or 'morphism'}: domain over {dom.field}, codomain over {cod.field}")
        if set(images) != set(dom.gens):
            missing = set(dom.gens) - set(images)
            raise ValueError(f"missing image for generator(s): {sorted(missing)}")
        gens, field = cod.gens, cod.field
        imgs = {}
        for g, p in images.items():
            if not p.in_ring(field, gens):
                raise ValueError(f"image of {g!r} is not in the codomain ring")
            imgs[g] = p
        self.images = imgs
        self._renaming = _signed_renaming(dom, imgs)
        self.certified = False
        if certify:
            self.certify()

    def certificate(
        self, raw: list[Polynomial] | None = None
    ) -> list[tuple[Polynomial, AlgebraElement]]:
        """Normal forms of all relation images; all zero iff well defined.

        `raw` holds the relation images already substituted, in relation order.
        """
        if raw is None:
            raw = [self.apply_raw(rel) for rel in self.dom.relations]
        return [(rel, AlgebraElement(self.cod, p)) for rel, p in zip(self.dom.relations, raw)]

    def certify(self, also: Callable[[Polynomial], bool] | None = None) -> "AlgebraMorphism":
        """Prove that every domain relation maps to zero in the codomain.

        A raw image that is zero, or a codomain relation up to sign, is zero
        there by definition (`PresentedAlgebra.proves_zero`); `also`, when
        given, is one more raw-zero test, tried on an image that one does not
        settle (H passes `ShapeMap.proves_zero`).  Most structure maps send
        every relation to one of those, and are then certified with no
        codomain basis.  Otherwise the same images go through `certificate`,
        whose first nonzero residue is the failure.
        """
        raw = [self.apply_raw(rel) for rel in self.dom.relations]
        zero = self.cod.proves_zero
        if not all(zero(v) or (also is not None and also(v)) for v in raw):
            for rel, residue in self.certificate(raw):
                if not residue.is_zero():
                    raise WellDefinednessFailure(self.name or "morphism", rel.render(), residue.render())
        self.certified = True
        return self

    def apply_raw(self, poly: Polynomial) -> Polynomial:
        """Substitute generator images; no reduction in the codomain.

        A signed renaming applied to a polynomial over the domain ring itself
        (the same generator tuple and field) moves exponents with
        `Polynomial.move_exponents`; every other input, including one over
        equal generators built apart, goes through `substitute` and its ring
        and missing-image checks.  Both give the same term dict.
        """
        table = self._renaming
        if table is None or poly.vars is not self.dom.gens or poly.field is not self.dom.field:
            return poly.substitute(self.images, self.cod.gens)
        return poly.move_exponents(table, self.cod.gens)

    def apply_poly(self, poly: Polynomial) -> AlgebraElement:
        return AlgebraElement(self.cod, self.apply_raw(poly))

    def __call__(self, e: ElementLike) -> AlgebraElement:
        e = self.dom.element(e)
        return self.apply_poly(e.poly)

    def image_of(self, gen: str) -> AlgebraElement:
        return AlgebraElement(self.cod, self.images[gen])

    def agrees_on(self, other: "AlgebraMorphism", gen: str) -> bool:
        """Whether both maps send `gen` to the same codomain element.

        Identical raw images within the codomain's grade cap agree with no
        normal form (`PresentedAlgebra.proves_equal`); any other pair is
        compared by normal forms, so an image above the cap is refused as
        `image_of` refuses it.
        """
        mine, theirs = self.images[gen], other.images[gen]
        if other.cod is self.cod and self.cod.proves_equal(mine, theirs):
            return True
        return self.image_of(gen) == other.image_of(gen)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraMorphism):
            return NotImplemented
        if self.dom is not other.dom or self.cod is not other.cod:
            return False
        return all(self.agrees_on(other, g) for g in self.dom.gens)

    def __hash__(self):
        return hash((id(self.dom), id(self.cod)))

    def __repr__(self) -> str:
        label = self.name or "morphism"
        return f"<{label}: {len(self.dom.gens)} gens -> {len(self.cod.gens)} gens>"


def _signed_renaming(dom: PresentedAlgebra, images: dict[str, Polynomial]):
    """(codomain position, c), or None for zero, per domain generator when
    each image is zero or c*y; else None."""
    table = []
    for g in dom.gens:
        terms = images[g].terms
        if not terms:
            table.append(None)
            continue
        if len(terms) != 1:
            return None
        ((exp, c),) = terms.items()
        if sum(exp) != 1:
            return None
        table.append((exp.index(1), c))
    return table


def make_morphism(
    dom: PresentedAlgebra,
    cod: PresentedAlgebra,
    images: Mapping[str, ElementLike],
    name: str = "",
) -> AlgebraMorphism:
    """Certified morphism from raw generator images (elements, polynomials or expressions)."""
    polys = {g: cod.polynomial(v) for g, v in images.items()}
    return AlgebraMorphism(dom, cod, polys, name=name)


def relabel(
    dom: PresentedAlgebra,
    cod: PresentedAlgebra,
    table: Mapping[str, str | None],
    name: str = "",
    certify: bool = True,
) -> AlgebraMorphism:
    """Signed renaming: each generator to a signed codomain generator or zero.

    `table[g]` is a codomain generator name, that name prefixed with '-' for
    its negative, or None for zero.  A generator absent from the table keeps
    its own name in the codomain.  Nearly every tangent and bundle structure
    map has this shape.  A name that starts with '-' but is itself a codomain
    generator stays literal.
    """
    if not set(table) <= set(dom.gens):
        raise ValueError(f"not domain generators: {sorted(set(table) - set(dom.gens))}")
    f, n = cod.field, len(cod.gens)
    position = {c: i for i, c in enumerate(cod.gens)}
    images = {}
    for g in dom.gens:
        c, terms = table.get(g, g), {}
        if c is not None:
            coef = f.one()
            if c not in position and c.startswith("-"):
                c, coef = c[1:], f.neg(coef)
            if c not in position:
                raise ValueError(f"{c!r} is not a generator of the codomain")
            i = position[c]
            terms[(0,) * i + (1,) + (0,) * (n - i - 1)] = coef
        images[g] = Polynomial._of_terms(f, cod.gens, terms)
    return AlgebraMorphism(dom, cod, images, certify=certify, name=name)


def identity_morphism(A: PresentedAlgebra) -> AlgebraMorphism:
    """The identity of A, certified: it sends every relation to itself."""
    ident = relabel(A, A, {}, "id", certify=False)
    ident.certified = True
    return ident


def _images_after_renaming(g: AlgebraMorphism, f: AlgebraMorphism) -> dict[str, Polynomial] | None:
    """The images of g after f when f is a signed renaming, else None.

    If f sends x to c*y, then g after f sends x to c times g's image of y,
    and a zero stays zero; with g a renaming too, (pos, c) then (pos', c')
    gives c*c'*y_pos'.  Both maps are over one field, so the images equal
    `g.apply_raw(p)` term for term, dict order included.
    """
    table, field = f._renaming, g.dom.field
    if table is None:
        return None
    slots = dict(zip(f.dom.gens, table))
    gens, mul = g.cod.gens, field.mul
    images = {}
    for x in f.images:
        slot = slots[x]
        terms = {}
        if slot is not None:
            pos, c = slot
            image = g.images[g.dom.gens[pos]].terms
            terms = dict(image) if c == 1 else {e: mul(c, c2) for e, c2 in image.items()}
        images[x] = Polynomial._of_terms(field, gens, terms)
    return images


def compose_morphisms(g: AlgebraMorphism, f: AlgebraMorphism) -> AlgebraMorphism:
    """g after f; certificate inherited, images composed by raw substitution,
    or read off g's images when f is a signed renaming."""
    if f.cod is not g.dom:
        raise ValueError("codomain/domain mismatch in composition")
    images = _images_after_renaming(g, f)
    if images is None:
        images = {x: g.apply_raw(p) for x, p in f.images.items()}
    h = AlgebraMorphism(f.dom, g.cod, images, certify=False, name=f"{g.name}.{f.name}")
    h.certified = f.certified and g.certified
    return h


def compose_chain(maps: list[AlgebraMorphism]) -> AlgebraMorphism:
    """Compose left-to-right application order: maps[0] first."""
    out = maps[0]
    for m in maps[1:]:
        out = compose_morphisms(m, out)
    return out


# ---------------------------------------------------------------------------
# tensor product over a base and localization
# ---------------------------------------------------------------------------


class TensorAlgebra(PresentedAlgebra):
    """B1 (x)_A B2 presented on renamed generators; `rename[k]` names factor
    k's generators in it, and `i0`, `i1` are the two injections."""

    def __init__(self, left, right, gens, relations, roles, rename0, rename1, grading, cap):
        super().__init__(left.field, gens, relations, roles=roles, grading=grading, cap=cap)
        self.factors = (left, right)
        self.rename = (dict(rename0), dict(rename1))
        self.i0 = relabel(left, self, rename0, "i0")
        self.i1 = relabel(right, self, rename1, "i1")


def tensor_over_base(f1: AlgebraMorphism, f2: AlgebraMorphism) -> TensorAlgebra:
    """Pushout presentation of B1 (x)_A B2 along generator inclusions fi: A -> Bi.

    Each fi must send every base generator to one generator of grade zero
    with coefficient 1; B1's generators are suffixed #0 and B2's #1 (`kcx
    convert` prints them), and the copy y = f1(a) of a base generator a is
    named z#1 for z = f2(a) and takes z's role, so no relation identifies the
    copies.  The relations are both factors' relations, each once, and the
    factors' sort gradings are juxtaposed, capped at 1 in each sort.  Both
    factors are over the base's field, since a morphism keeps its field.
    """
    if f1.dom is not f2.dom:
        raise ValueError("factor maps must share their domain")
    B1, B2 = f1.cod, f2.cod
    rename0 = {g: f"{g}#0" for g in B1.gens}
    rename1 = {g: f"{g}#1" for g in B2.gens}
    shared: dict[str, str] = {}  # y -> z#1
    for a in f1.dom.gens:
        y, z = _base_copy(f1, a), rename1[_base_copy(f2, a)]
        if shared.setdefault(y, z) != z:
            raise ValueError(f"base generator {a!r} gives {y!r} of the first factor a second name")
    gens = tuple(rename0[g] for g in B1.gens if g not in shared) + tuple(rename1.values())
    grading = cap = None
    if B1.grading or B2.grading:
        left, right = (B.grading or dict.fromkeys(B.gens, ()) for B in (B1, B2))
        k0, k1 = (len(next(iter(g.values()), ())) for g in (left, right))
        grading = {rename0[g]: left[g] + (0,) * k1 for g in B1.gens if g not in shared}
        grading.update({rename1[g]: (0,) * k0 + right[g] for g in B2.gens})
        cap = (1,) * (k0 + k1)
    rename0.update(shared)
    roles = {}  # B2's role last, so a merged generator keeps it
    for B, rename, k in ((B1, rename0, 0), (B2, rename1, 1)):
        for g in B.gens:
            roles[rename[g]] = GenRole(B.roles[g].kind, f"{B.roles[g].origin}#{k}")
    relations = [rel.change_vars(gens, rename0) for rel in B1.relations]
    relations += [rel.change_vars(gens, rename1) for rel in B2.relations]
    relations = [r for r in dict.fromkeys(relations) if not r.is_zero()]
    return TensorAlgebra(B1, B2, gens, relations, roles, rename0, rename1, grading, cap)


def _base_copy(f: AlgebraMorphism, a: str) -> str:
    """f(a) when it is one generator of grade zero with coefficient 1; else ValueError naming a."""
    B, image = f.cod, f.images[a]
    exp, c = next(iter(image.terms.items()), ((), 0))
    if len(image.terms) != 1 or sum(exp) != 1 or c != 1:
        raise ValueError(f"factor map sends base generator {a!r} to {image.render()}, not to one generator")
    y = B.gens[exp.index(1)]
    if B.grading and any(B.grading[y]):
        raise ValueError(f"factor map sends base generator {a!r} to {y!r} of grade {B.grading[y]}")
    return y


def fresh_name(taken: tuple[str, ...], name: str) -> str:
    """`name` with underscores appended until it is not in `taken`."""
    while name in taken:
        name += "_"
    return name


@memoized
def localize(A: PresentedAlgebra, u: str) -> PresentedAlgebra:
    """Adjoin a fresh inverse generator for u with relation u*u_inv = 1.

    One localization per (algebra, generator), shared by every caller.
    """
    if u not in A.gens:
        raise ValueError(f"{u!r} is not a generator")
    inv = fresh_name(A.gens, f"{u}_inv")
    gens = A.gens + (inv,)
    relations = [r.change_vars(gens) for r in A.relations]
    relations.append(
        Polynomial.variable(A.field, gens, u) * Polynomial.variable(A.field, gens, inv)
        - Polynomial.const(A.field, gens, 1)
    )
    roles = {g: A.roles[g] for g in A.gens}
    roles[inv] = GenRole("base", inv)
    L = PresentedAlgebra(A.field, gens, relations, roles=roles)
    L.localization_of = (A, u, inv)
    return L
