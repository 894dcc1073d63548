"""Buchberger's algorithm and normal forms, for ideals and submodules.

Everything downstream that asks "is this zero in the quotient?" funnels into
the one reducer here.  The engine works on submodules of a free module of
rank r, ordered position-over-term (POT) with grevlex underneath (earlier
position = larger); an ideal is the rank-1 case, where POT is plain grevlex.
Bases are reduced (auto-reduced, monic), so unique for the term order.

Pairs are taken lowest lcm total degree first, ties broken by the lcm's
exponent vector and then the pair's indices.  The chain criterion prunes
pairs at every rank, the coprime-leading-terms criterion only at rank 1 (it
is unsound for module tails).  Every basis element carries a certificate
degree: a bound on the degree of some representation of it over the inputs.
"""

from __future__ import annotations

import heapq
from operator import mul
from typing import Iterable

from .fields import Coef, Field
from .poly import (
    Exponent,
    Polynomial,
    exp_div,
    exp_divides,
    exp_lcm,
    exp_mask,
    exp_mul,
    grevlex_key,
)

Vector = tuple[Polynomial, ...]
Row = list[dict[Exponent, Coef]]  # a vector as one term dict per position
SparseVector = dict[tuple[int, Exponent], Coef]  # a vector as one (position, exponent) -> coefficient map
# per position: (lt, exp_mask(lt), row, cert) of basis rows
Index = list[list[tuple[Exponent, int, Row, int]]]

Grading = list[tuple[int, ...]]  # one grade tuple per ambient variable


def grade_columns(grading: Grading) -> list[tuple[int, ...]]:
    """The grading as one weight column per grade coordinate."""
    return list(zip(*grading))


def monomial_grade(exp: Exponent, grading: Grading) -> tuple[int, ...]:
    return tuple(sum(map(mul, exp, column)) for column in grade_columns(grading))


def fits_cap(exps: Iterable[Exponent], columns: list[tuple[int, ...]], cap: tuple[int, ...]) -> bool:
    """True iff the grade of every monomial in `exps` is at most `cap`.

    `columns` comes from `grade_columns`, worked out once per grading.
    """
    return all(sum(map(mul, e, column)) <= c for e in exps for column, c in zip(columns, cap))


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _leading(row: Row) -> tuple[int, Exponent] | None:
    for pos, comp in enumerate(row):
        if comp:
            return pos, max(comp, key=grevlex_key)
    return None


def vector_leading(v: Vector) -> tuple[int, Exponent] | None:
    """POT leading (position, exponent) of a vector, None for zero."""
    return _leading([c.terms for c in v])


def _row_degree(row: Row) -> int:
    return max((sum(e) for comp in row for e in comp), default=0)


def _add_multiple(work: Row, g: Row, start: int, delta: Exponent, coef: Coef, field: Field) -> None:
    """work += coef * x^delta * g in place, on positions `start` onwards."""
    addmul = field.addmul
    for q in range(start, len(g)):
        target = work[q]
        for e, c in g[q].items():
            e2 = exp_mul(e, delta)
            s = addmul(target.get(e2, 0), coef, c)
            if s:
                target[e2] = s
            else:
                target.pop(e2, None)


def _term_key(e: Exponent) -> tuple[int, Exponent, Exponent]:
    """Min-heap entry for a term: the grevlex-largest monomial comes first."""
    return (-sum(e), e[::-1], e)


def _reduce(work: Row, index: Index, field: Field) -> tuple[Row, int]:
    """Full normal form of `work` (consumed) plus its certificate degree.

    Positions are reduced in order, each component in place, always by the
    first indexed basis row whose leading term divides the current one.  The
    current leading term comes off a heap of the component's terms
    (Monagan & Pearce's heap division): a term is pushed when it enters the
    component, and an entry whose term has since cancelled is skipped when
    popped.  A row whose leading term has a variable the current term lacks
    is passed over on its variable mask alone, before `exp_divides`.  Basis
    rows are monic, so each step cancels its leading term and only brings in
    smaller ones.
    """
    remainder: Row = [{} for _ in work]
    cert = 0
    mul, neg, addmul = field.mul, field.neg, field.addmul
    for pos, comp in enumerate(work):
        if not comp:
            continue
        rem = remainder[pos]
        candidates = index[pos]
        heap = [_term_key(e) for e in comp]
        heapq.heapify(heap)
        while heap:
            lead = heapq.heappop(heap)[2]
            coef = comp.get(lead)
            if coef is None:
                continue
            absent = ~exp_mask(lead)
            for lt, mask, g, g_cert in candidates:
                if not mask & absent and exp_divides(lt, lead):
                    delta = exp_div(lead, lt)
                    factor = neg(coef)
                    for e, c in g[pos].items():
                        e2 = exp_mul(e, delta)
                        old = comp.get(e2)
                        if old is None:
                            comp[e2] = mul(factor, c)
                            heapq.heappush(heap, _term_key(e2))
                        else:
                            s = addmul(old, factor, c)
                            if s:
                                comp[e2] = s
                            else:
                                del comp[e2]
                    _add_multiple(work, g, pos + 1, delta, factor, field)
                    cert = max(cert, sum(delta) + g_cert)
                    break
            else:
                rem[lead] = coef
                del comp[lead]
    return remainder, cert


def _index(rows: list[Row], certs: list[int], rank: int) -> Index:
    index: Index = [[] for _ in range(rank)]
    for row, cert in zip(rows, certs):
        pos, lt = _leading(row)
        index[pos].append((lt, exp_mask(lt), row, cert))
    return index


def _groebner(
    rows: list[Row],
    rank: int,
    field: Field,
    grading: Grading | None = None,
    cap: tuple[int, ...] | None = None,
) -> tuple[list[Row], list[int]]:
    """Reduced basis of the submodule spanned by `rows`, with certificate degrees.

    With `grading`/`cap` (for inputs homogeneous in an N^k-grading) the run is
    truncated: S-pairs whose lcm grade exceeds the cap are skipped.  The result
    then decides membership exactly for all elements of grade <= cap.
    """
    columns = grade_columns(grading) if grading is not None and cap is not None else None
    one = field.one()
    G: list[Row] = []
    leads: list[tuple[int, Exponent]] = []
    certs: list[int] = []
    index: Index = [[] for _ in range(rank)]
    heap: list[tuple[int, Exponent, int, int]] = []
    pending: set[tuple[int, int]] = set()

    def add(row: Row, cert: int) -> None:
        pos, lt = _leading(row)
        inv = field.inv(row[pos][lt])
        row = [{e: field.mul(c, inv) for e, c in comp.items()} for comp in row]
        new = len(G)
        G.append(row)
        leads.append((pos, lt))
        certs.append(cert)
        index[pos].append((lt, exp_mask(lt), row, cert))
        for k in range(new):
            if leads[k][0] != pos:
                continue
            lcm = exp_lcm(leads[k][1], lt)
            if columns is not None and not fits_cap((lcm,), columns, cap):
                continue
            heapq.heappush(heap, (sum(lcm), lcm, k, new))
            pending.add((k, new))

    for row in rows:
        if any(row):
            add(row, _row_degree(row))

    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        pos, lt_i = leads[i]
        lt_j = leads[j][1]
        if rank == 1 and lcm == exp_mul(lt_i, lt_j):  # coprime leading terms
            continue
        if any(
            k != i and k != j
            and leads[k][0] == pos
            and exp_divides(leads[k][1], lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
        ):
            continue
        d_i, d_j = exp_div(lcm, lt_i), exp_div(lcm, lt_j)
        s: Row = [{} for _ in range(rank)]
        _add_multiple(s, G[i], pos, d_i, one, field)
        _add_multiple(s, G[j], pos, d_j, field.neg(one), field)
        form_cert = max(sum(d_i) + certs[i], sum(d_j) + certs[j])
        r, red_cert = _reduce(s, index, field)
        if any(r):
            add(r, max(form_cert, red_cert, _row_degree(r)))

    # Interreduction: keep the minimal leading terms, then reduce each tail.
    # A tail term lies below its own leading term, so reducing by the full
    # index never divides by the element itself; leading terms, and hence the
    # POT order of the result, are unchanged.
    minimal: list[int] = []
    for k in sorted(range(len(G)), key=lambda k: (-leads[k][0], grevlex_key(leads[k][1]))):
        pos, lt = leads[k]
        if not any(leads[m][0] == pos and exp_divides(leads[m][1], lt) for m in minimal):
            minimal.append(k)
    index = _index([G[k] for k in minimal], [certs[k] for k in minimal], rank)
    basis: list[Row] = []
    basis_certs: list[int] = []
    for k in minimal:
        pos, lt = leads[k]
        tail = [dict(comp) for comp in G[k]]
        del tail[pos][lt]
        r, red_cert = _reduce(tail, index, field)
        r[pos][lt] = one
        basis.append(r)
        basis_certs.append(max(certs[k], red_cert))
    return basis, basis_certs


# ---------------------------------------------------------------------------
# ideals: the rank-1 case
# ---------------------------------------------------------------------------


class IdealBasis:
    """Reduced Groebner basis of an ideal, with its ambient ring data.

    `cert_excess` bounds, over every basis element g, the difference between
    the degree of some representation g = sum(q_i * f_i) over the generators
    and deg(g).  Because grevlex is degree-compatible, any p with normal form 0
    then has a representation with all products of degree <= deg(p) + excess,
    which is what the dense linear-algebra membership oracle needs.

    A graded basis (grading + cap) is only valid for elements whose grade
    stays within the cap; `normal_form` enforces that.
    """

    __slots__ = (
        "field", "vars", "generators", "basis", "cert_excess", "grading", "cap", "_columns", "_index"
    )

    def __init__(
        self,
        field: Field,
        variables: tuple[str, ...],
        generators: list[Polynomial],
        grading: Grading | None = None,
        cap: tuple[int, ...] | None = None,
    ):
        for g in generators:
            if not g.in_ring(field, variables):
                raise ValueError("generators live in different rings")
        self.field = field
        self.vars = variables
        self.generators = list(generators)
        self.grading = grading
        self.cap = cap
        self._columns = grade_columns(grading) if grading is not None and cap is not None else None
        rows, certs = _groebner([[g.terms] for g in generators], 1, field, grading, cap)
        self.basis = [Polynomial._of_terms(field, variables, row[0]) for row in rows]
        self.cert_excess = max((c - _row_degree(r) for r, c in zip(rows, certs)), default=0)
        self._index = _index(rows, certs, 1)

    def normal_form(self, p: Polynomial) -> Polynomial:
        if not p.in_ring(self.field, self.vars):
            raise ValueError("polynomial is not in the ambient ring")
        if self._columns is not None and not fits_cap(p.terms, self._columns, self.cap):
            raise ValueError("element exceeds the graded truncation bound of this basis")
        if not self.basis or p.is_zero():
            return p
        (nf,), _ = _reduce([dict(p.terms)], self._index, self.field)
        return Polynomial._of_terms(self.field, self.vars, nf)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def is_unit_ideal(self) -> bool:
        return any(b.is_constant() and not b.is_zero() for b in self.basis)


# ---------------------------------------------------------------------------
# submodules of free modules
# ---------------------------------------------------------------------------


class ModuleBasis:
    """Groebner basis of a submodule of a free module over a polynomial ring."""

    __slots__ = ("field", "vars", "rank", "generators", "basis", "cert_degrees", "_index")

    def __init__(self, field: Field, variables: tuple[str, ...], rank: int, generators: list[Vector]):
        for v in generators:
            if len(v) != rank:
                raise ValueError(f"vector of rank {len(v)} in a rank-{rank} module")
            for c in v:
                if not c.in_ring(field, variables):
                    raise ValueError("vector component in the wrong ring")
        self.field = field
        self.vars = variables
        self.rank = rank
        self.generators = list(generators)
        rows, self.cert_degrees = _groebner([[c.terms for c in v] for v in generators], rank, field)
        self.basis = [self._vector(row) for row in rows]
        self._index = _index(rows, self.cert_degrees, rank)

    def _vector(self, row: Row) -> Vector:
        return tuple(Polynomial._of_terms(self.field, self.vars, comp) for comp in row)

    def normal_form(self, v: Vector) -> Vector:
        if len(v) != self.rank:
            raise ValueError("rank mismatch")
        nf, _ = _reduce([dict(c.terms) for c in v], self._index, self.field)
        return self._vector(nf)

    def sparse_normal_form(self, terms: SparseVector) -> SparseVector:
        """`normal_form` on the sparse form: the vector sum of c * x^e at
        position pos over `terms` (nonzero coefficients), reduced by the same
        `_reduce`.  A normal form is unique, so the result holds exactly the
        terms of `normal_form`, position by position in the same order, and no
        polynomial is built on the way.
        """
        row: Row = [{} for _ in range(self.rank)]
        for (pos, e), c in terms.items():
            row[pos][e] = c
        nf, _ = _reduce(row, self._index, self.field)
        return {(pos, e): c for pos, comp in enumerate(nf) for e, c in comp.items()}

    def normal_form_with_bound(self, v: Vector) -> tuple[Vector, int]:
        """Normal form plus a degree bound covering this reduction's certificate."""
        row = [dict(c.terms) for c in v]
        degree = _row_degree(row)
        nf, cert = _reduce(row, self._index, self.field)
        return self._vector(nf), max(cert, degree)

    def contains(self, v: Vector) -> bool:
        return all(c.is_zero() for c in self.normal_form(v))
