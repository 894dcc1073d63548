"""Finitely presented modules over a presented algebra.

A module is A^m / N, stored as generator names plus relation vectors over A.
Zero-testing lifts to the underlying polynomial ring: N's rows together with
(ideal Groebner basis) * e_k generate a submodule of k[x]^m whose normal forms
are canonical representatives.  Module elements reduce eagerly on construction
since equality is the hot operation everywhere downstream.  Raw in, reduced
once: `element`, `scaled`, `combine` and `universal_derivation` read inputs
unreduced (`PresentedAlgebra.polynomial`), and only the result is reduced.
Relation rows alone are reduced when a module is built: rendering and
presentation equality read them.

Also here: Kahler differentials with the universal derivation, tensor products
of modules, the wedge square with its alternation map, and plain A-linear
module morphisms (used for section/retraction data).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .algebra import ElementLike, PresentedAlgebra, memoized
from .errors import OwnerMismatch, WellDefinednessFailure
from .groebner import ModuleBasis, Vector
from .poly import Polynomial

VectorLike = Union["ModuleElement", Sequence[ElementLike], Mapping[str, ElementLike]]


class PresentedModule:
    def __init__(
        self,
        base: PresentedAlgebra,
        gens: tuple[str, ...],
        relations: Iterable[Sequence[ElementLike]],
        provenance: str = "presented",
    ):
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate module generator names")
        self.base = base
        self.gens = tuple(gens)
        rels = []
        for rel in relations:
            if len(rel) != len(self.gens):
                raise ValueError("relation vector has wrong length")
            rels.append(tuple(base.element(c).poly for c in rel))
        self.relations: tuple[Vector, ...] = tuple(rels)
        self.provenance = provenance
        self._memo: dict = {}  # derived structures, filled by `memoized`

    @property
    def rank(self) -> int:
        return len(self.gens)

    @cached_property
    def lifted(self) -> ModuleBasis:
        """Basis of N + I*e_1 + ... + I*e_m in the free polynomial module."""
        A = self.base
        gens: list[Vector] = [tuple(rel) for rel in self.relations]
        zero = Polynomial.zero(A.field, A.gens)
        for b in A.basis.basis:
            for k in range(self.rank):
                gens.append(tuple(b if i == k else zero for i in range(self.rank)))
        return ModuleBasis(A.field, A.gens, self.rank, gens)

    def __repr__(self) -> str:
        return f"<module rank {self.rank} over {self.base!r} ({self.provenance})>"

    # ---------- elements ----------

    def element(self, value: VectorLike) -> "ModuleElement":
        if isinstance(value, ModuleElement):
            if value.module is not self:
                raise OwnerMismatch("element belongs to a different module")
            return value
        if isinstance(value, Mapping):
            value = [value.get(g, 0) for g in self.gens]
        elif len(value) != self.rank:
            raise ValueError("component vector has wrong length")
        return ModuleElement(self, tuple(map(self.base.polynomial, value)))

    @memoized
    def gen(self, name: str) -> "ModuleElement":
        return self.combine([(self.gens.index(name), Polynomial.const(self.base.field, self.base.gens, 1))])

    @memoized
    def zero(self) -> "ModuleElement":
        return self.combine(())

    def combine(self, terms: Iterable[tuple[int, Polynomial]]) -> "ModuleElement":
        """The element sum of p * e_k over (k, p), with one normal form.

        Each p is a raw polynomial over the base ring; the terms are added
        into one dict per component before the sum is reduced.  Every class
        has exactly one normal form, so any representatives of the summands
        give the same element.
        """
        f, gens = self.base.field, self.base.gens
        acc: list[dict] = [{} for _ in self.gens]
        for k, p in terms:
            if not p.in_ring(f, gens):
                raise ValueError("component is not in the base ring")
            comp = acc[k]
            for e, c in p.terms.items():
                s = f.add(comp.get(e, 0), c)
                if s:
                    comp[e] = s
                else:
                    comp.pop(e, None)
        return ModuleElement(self, tuple(Polynomial._of_terms(f, gens, comp) for comp in acc))


class ModuleElement:
    __slots__ = ("module", "comps")

    def __init__(self, module: PresentedModule, comps: Vector):
        self.module = module
        self.comps = module.lifted.normal_form(comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        other = self.module.element(other)
        return ModuleElement(self.module, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        other = self.module.element(other)
        return ModuleElement(self.module, tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.module, tuple(-a for a in self.comps))

    def scaled(self, a: ElementLike) -> "ModuleElement":
        p = self.module.base.polynomial(a)
        return ModuleElement(self.module, tuple(p * c for c in self.comps))

    def __mul__(self, a: ElementLike) -> "ModuleElement":
        return self.scaled(a)

    def __rmul__(self, a: ElementLike) -> "ModuleElement":
        return self.scaled(a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        if other.module is not self.module:
            raise OwnerMismatch("comparing elements of different modules")
        return self.comps == other.comps

    def __hash__(self):
        return hash((id(self.module), self.comps))

    def render(self) -> str:
        parts: list[str] = []
        for g, c in zip(self.module.gens, self.comps):
            if c.is_zero():
                continue
            body = c.render()
            if len(c.terms) > 1:
                chunk, sign = f"({body})*{g}", "+"
            else:
                sign, body = ("-", body[1:]) if body.startswith("-") else ("+", body)
                chunk = g if body == "1" else f"{body}*{g}"
            if not parts:
                parts.append(chunk if sign == "+" else f"-{chunk}")
            else:
                parts.append(f"{sign} {chunk}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<mod-elt {self.render()}>"


def linear_form(field, gens: tuple[str, ...], comps, names: tuple[str, ...]) -> Polynomial:
    """sum_k comps[k] * names[k] over `gens`, which extend the components' ring."""
    out = Polynomial.zero(field, gens)
    for coef, n in zip(comps, names):
        out = out + coef.change_vars(gens) * Polynomial.variable(field, gens, n)
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def free_module(A: PresentedAlgebra, n: int) -> PresentedModule:
    """A^n on generators e1, ..., en."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    return PresentedModule(A, tuple(f"e{i + 1}" for i in range(n)), [], provenance="free")


def make_module(
    A: PresentedAlgebra, gens: Iterable[str], relations: Iterable[Sequence[ElementLike]] = ()
) -> PresentedModule:
    return PresentedModule(A, tuple(gens), relations, provenance="presented")


@memoized
def kahler_module(A: PresentedAlgebra) -> PresentedModule:
    """Module of Kahler-style differentials: one d(x) per generator, one
    Jacobian row per relation."""
    gens = tuple(f"d({x})" for x in A.gens)
    rows = [tuple(rel.partial(x) for x in A.gens) for rel in A.relations]
    return PresentedModule(A, gens, rows, provenance="kahler")


def universal_derivation(A: PresentedAlgebra, a: ElementLike) -> ModuleElement:
    """d(a) = sum of partial(a, x_i) d(x_i); R-linear and Leibniz by construction."""
    p = A.polynomial(a)
    return kahler_module(A).combine((i, p.partial(x)) for i, x in enumerate(A.gens))


class TensorModule(PresentedModule):
    """M (x)_A N on pair generators g@h with relations inherited in each slot."""

    def __init__(self, M: PresentedModule, N: PresentedModule):
        if M.base is not N.base:
            raise ValueError("tensor factors over different base algebras")
        A = M.base
        self.factors = (M, N)
        gens = tuple(f"{g}@{h}" for g in M.gens for h in N.gens)
        zero = Polynomial.zero(A.field, A.gens)
        rows: list[Vector] = []
        for rel in M.relations:
            for j in range(N.rank):
                row = [zero] * len(gens)
                for k in range(M.rank):
                    row[self.pair_index(k, j)] = rel[k]
                rows.append(tuple(row))
        for rel in N.relations:
            for i in range(M.rank):
                row = [zero] * len(gens)
                for l in range(N.rank):
                    row[self.pair_index(i, l)] = rel[l]
                rows.append(tuple(row))
        super().__init__(A, gens, rows, provenance="tensor")

    def pair_index(self, i: int, j: int) -> int:
        return i * self.factors[1].rank + j

    def pair_slots(self, idx: int) -> tuple[int, int]:
        """(i, l) for the pair generator g_i @ h_l at component idx."""
        return divmod(idx, self.factors[1].rank)

    def entries(self, e: ModuleElement) -> Iterator[tuple[int, int, Polynomial]]:
        """(i, l, coef) for each nonzero component coef * (g_i @ h_l) of e."""
        return ((*self.pair_slots(idx), coef) for idx, coef in enumerate(e.comps) if coef)


@memoized
def tensor_modules(M: PresentedModule, N: PresentedModule) -> TensorModule:
    return TensorModule(M, N)


def christoffel_target(M: PresentedModule) -> TensorModule:
    """Omega(A) (x)_A M, where the Christoffel images of a connection on M live."""
    return tensor_modules(kahler_module(M.base), M)


class WedgeSquare(PresentedModule):
    """Second exterior power on ordered pair generators gi^gj (i < j)."""

    def __init__(self, M: PresentedModule):
        A = M.base
        self.source = M
        self.pairs = [(i, j) for i in range(M.rank) for j in range(i + 1, M.rank)]
        self._index = {ij: p for p, ij in enumerate(self.pairs)}
        gens = tuple(f"{M.gens[i]}^{M.gens[j]}" for i, j in self.pairs)
        rows = [
            self.collect((k, j, rel[k]) for k in range(M.rank))
            for rel in M.relations
            for j in range(M.rank)
        ]
        super().__init__(A, gens, rows, provenance="wedge2")

    def collect(self, terms: Iterable[tuple[int, int, Polynomial]]) -> tuple[Polynomial, ...]:
        """Components of sum c * (g_i ^ g_j) over (i, j, c), using
        g_i ^ g_i = 0 and g_j ^ g_i = -(g_i ^ g_j)."""
        A = self.source.base
        comps = [Polynomial.zero(A.field, A.gens)] * len(self.pairs)
        for i, j, c in terms:
            if i < j:
                p = self._index[(i, j)]
                comps[p] = comps[p] + c
            elif i > j:
                p = self._index[(j, i)]
                comps[p] = comps[p] - c
        return tuple(comps)

    def from_tensor(self, e: ModuleElement) -> ModuleElement:
        """Alternation: gi @ gj -> gi^gj, with sign for i > j and zero on the diagonal."""
        T = e.module
        if not isinstance(T, TensorModule) or T.factors != (self.source, self.source):
            raise ValueError("expected an element of the matching tensor square")
        return ModuleElement(self, self.collect(T.entries(e)))


@memoized
def wedge_square(M: PresentedModule) -> WedgeSquare:
    return WedgeSquare(M)


def _shifted(exp: tuple, step: int) -> Iterator[tuple]:
    """exp with one exponent moved by `step`, for each variable it keeps nonnegative."""
    return (exp[:i] + (e + step,) + exp[i + 1 :] for i, e in enumerate(exp) if e + step >= 0)


def module_standard_monomials(M: PresentedModule, degree_bound: int) -> Iterator[tuple[int, tuple]]:
    """Standard (position, monomial) pairs of the quotient up to a degree.

    These are the monomial module elements not divisible by any leading term
    of the lifted basis: a vector-space basis of the quotient in low degrees,
    used as solver coordinates.  At each position they form an order ideal
    (every divisor of a standard monomial is standard), so the walk grows them
    one degree at a time: a monomial of degree d+1 is standard exactly when it
    is not itself a leading term and each of its divisors of degree d is
    standard.  Pairs come by position, then degree, with exponents
    lex-descending within a degree, and lazily, so a caller may stop early.
    """
    leads = M.lifted.leads
    for k in range(M.rank):
        below, grown = set(), {(0,) * len(M.base.gens)}
        for _ in range(degree_bound + 1):
            level = [exp for exp in grown if (k, exp) not in leads and below.issuperset(_shifted(exp, -1))]
            if not level:
                break
            level.sort(reverse=True)
            yield from ((k, exp) for exp in level)
            below, grown = set(level), {up for exp in level for up in _shifted(exp, 1)}


# ---------------------------------------------------------------------------
# module morphisms (A-linear maps given on generators)
# ---------------------------------------------------------------------------


class ModuleMorphism:
    def __init__(
        self,
        dom: PresentedModule,
        cod: PresentedModule,
        images: Mapping[str, VectorLike],
        name: str = "",
    ):
        if dom.base is not cod.base:
            raise ValueError("module morphism between different base algebras")
        if set(images) != set(dom.gens):
            raise ValueError("need exactly one image per domain generator")
        self.dom = dom
        self.cod = cod
        self.name = name
        self.images = {g: cod.element(v) for g, v in images.items()}
        for rel in dom.relations:
            total = self._apply(rel)
            if not total.is_zero():
                raise WellDefinednessFailure(
                    name or "module morphism",
                    "+".join(c.render() for c in rel),
                    total.render(),
                )

    def _apply(self, comps) -> ModuleElement:
        """sum of comps[j] * image(g_j), reduced once in the codomain."""
        images = (self.images[g].comps for g in self.dom.gens)
        return self.cod.combine((k, coef * c) for coef, img in zip(comps, images) if coef for k, c in enumerate(img) if c)

    def __call__(self, e: VectorLike) -> ModuleElement:
        return self._apply(self.dom.element(e).comps)
