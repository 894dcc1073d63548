"""Buchberger's algorithm and normal forms, for ideals and submodules.

Everything downstream that asks "is this zero in the quotient?" funnels into
the one reducer here.  The engine works on submodules of a free module of
rank r, ordered position-over-term (POT) with grevlex underneath (earlier
position = larger); an ideal is the rank-1 case, where POT is plain grevlex.
Bases are reduced (auto-reduced, monic), so unique for the term order.

A vector is a `Row` of its occupied positions only, so work touches just the
positions its terms sit in (as in F4's sparse linear algebra), and pairs and
the chain criterion compare only rows led at one position.

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
Row = dict[int, dict[Exponent, Coef]]  # a vector as position -> term dict, occupied positions only
# indexed by position: (lt, exp_mask(lt), row, cert) of the basis rows led there
Index = list[list[tuple[Exponent, int, Row, int]]]

Grading = list[tuple[int, ...]]  # one grade tuple per ambient variable


def grade_columns(grading: Grading) -> list[tuple[int, ...]]:
    """The grading as one weight column per grade coordinate."""
    return list(zip(*grading))


def fits_cap(exps: Iterable[Exponent], columns: list[tuple[int, ...]], cap: tuple[int, ...]) -> bool:
    """True iff the grade of every monomial in `exps` is at most `cap`.

    `columns` comes from `grade_columns`, worked out once per grading.
    """
    return all(sum(map(mul, e, column)) <= c for e in exps for column, c in zip(columns, cap))


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _leading(row: Row) -> tuple[int, Exponent] | None:
    pos = min(row, default=None)
    return None if pos is None else (pos, max(row[pos], key=grevlex_key))


def _row_degree(row: Row) -> int:
    return max((sum(e) for comp in row.values() for e in comp), default=0)


def _add_multiple(work: Row, g: Row, delta: Exponent, coef: Coef, field: Field, skip: int = -1) -> None:
    """work += coef * x^delta * g in place, on g's positions other than `skip`;
    a position of work opens with its first term and goes with its last."""
    addmul = field.addmul
    for q, gq in g.items():
        if q == skip:
            continue
        target = work.setdefault(q, {})
        for e, c in gq.items():
            e2 = exp_mul(e, delta)
            s = addmul(target.get(e2, 0), coef, c)
            if s:
                target[e2] = s
            else:
                target.pop(e2, None)
        if not target:
            del work[q]


def _term_key(e: Exponent) -> tuple[int, Exponent, Exponent]:
    """Min-heap entry for a term: the grevlex-largest monomial comes first."""
    return (-sum(e), e[::-1], e)


def _reduce(work: Row, index: Index, field: Field) -> tuple[Row, int]:
    """Full normal form of `work` (consumed) plus its certificate degree.

    Each round pops the smallest occupied position and reduces its component,
    always by the first indexed basis row whose leading term divides the
    current one; the rest of that row goes into the later positions of
    `work`.  The current leading term comes off a heap of the component's
    terms (Monagan & Pearce's heap division): a term is pushed when it enters
    the component, and an entry whose term has since cancelled is skipped when
    popped.  A row whose leading term has a variable the current term lacks
    is passed over on its variable mask alone, before `exp_divides`.  Basis
    rows are monic, so each step cancels its leading term and only brings in
    smaller ones.  The remainder's positions come in ascending order.
    """
    remainder: Row = {}
    cert = 0
    mul, neg, addmul = field.mul, field.neg, field.addmul
    while work:
        pos = min(work)
        comp = work.pop(pos)
        rem = {}
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
                    _add_multiple(work, g, delta, factor, field, pos)
                    cert = max(cert, sum(delta) + g_cert)
                    break
            else:
                rem[lead] = coef
                del comp[lead]
        if rem:
            remainder[pos] = rem
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
    at: list[list[int]] = [[] for _ in range(rank)]  # per position: indices into G of the rows led there
    heap: list[tuple[int, Exponent, int, int]] = []
    pending: set[tuple[int, int]] = set()

    def add(row: Row, cert: int) -> None:
        pos, lt = _leading(row)
        if row[pos][lt] != one:
            inv = field.inv(row[pos][lt])
            row = {q: {e: field.mul(c, inv) for e, c in comp.items()} for q, comp in row.items()}
        new = len(G)
        G.append(row)
        leads.append((pos, lt))
        certs.append(cert)
        index[pos].append((lt, exp_mask(lt), row, cert))
        for k in at[pos]:
            lcm = exp_lcm(leads[k][1], lt)
            if columns is not None and not fits_cap((lcm,), columns, cap):
                continue
            heapq.heappush(heap, (sum(lcm), lcm, k, new))
            pending.add((k, new))
        at[pos].append(new)

    for row in rows:
        if row:
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
            and exp_divides(leads[k][1], lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in at[pos]
        ):
            continue
        d_i, d_j = exp_div(lcm, lt_i), exp_div(lcm, lt_j)
        s: Row = {}
        _add_multiple(s, G[i], d_i, one, field)
        _add_multiple(s, G[j], d_j, field.neg(one), field)
        form_cert = max(sum(d_i) + certs[i], sum(d_j) + certs[j])
        r, red_cert = _reduce(s, index, field)
        if r:
            add(r, max(form_cert, red_cert, _row_degree(r)))

    # Interreduction: keep the minimal leading terms, then reduce each tail.
    # A tail term lies below its own leading term, so reducing by the full
    # index never divides by the element itself; leading terms, and hence the
    # POT order of the result, are unchanged.
    minimal: list[int] = []
    kept: list[list[Exponent]] = [[] for _ in range(rank)]
    for k in sorted(range(len(G)), key=lambda k: (-leads[k][0], grevlex_key(leads[k][1]))):
        pos, lt = leads[k]
        if not any(exp_divides(m, lt) for m in kept[pos]):
            kept[pos].append(lt)
            minimal.append(k)
    index = _index([G[k] for k in minimal], [certs[k] for k in minimal], rank)
    basis: list[Row] = []
    basis_certs: list[int] = []
    for k in minimal:
        pos, lt = leads[k]
        tail = {q: dict(comp) for q, comp in G[k].items()}
        del tail[pos][lt]
        r, red_cert = _reduce(tail, index, field)
        r.setdefault(pos, {})[lt] = one
        basis.append(r)
        basis_certs.append(max(certs[k], red_cert))
    return basis, basis_certs


# ---------------------------------------------------------------------------
# ideals: the rank-1 case
# ---------------------------------------------------------------------------


class IdealBasis:
    """Reduced Groebner basis of an ideal, with its ambient ring data.

    A graded basis (grading + cap) is only valid for elements whose grade
    stays within the cap; `normal_form` enforces that.
    """

    __slots__ = ("field", "vars", "basis", "cap", "_columns", "_index")

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
        self.cap = cap
        self._columns = grade_columns(grading) if grading is not None and cap is not None else None
        rows, certs = _groebner([{0: g.terms} for g in generators if g.terms], 1, field, grading, cap)
        self.basis = [Polynomial._of_terms(field, variables, row[0]) for row in rows]
        self._index = _index(rows, certs, 1)

    def normal_form(self, p: Polynomial) -> Polynomial:
        if not p.in_ring(self.field, self.vars):
            raise ValueError("polynomial is not in the ambient ring")
        if self._columns is not None and not fits_cap(p.terms, self._columns, self.cap):
            raise ValueError("element exceeds the graded truncation bound of this basis")
        if not self.basis or p.is_zero():
            return p
        nf, _ = _reduce({0: dict(p.terms)}, self._index, self.field)
        return Polynomial._of_terms(self.field, self.vars, nf.get(0, {}))

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()


# ---------------------------------------------------------------------------
# submodules of free modules
# ---------------------------------------------------------------------------


class ModuleBasis:
    """Groebner basis of a submodule of a free module over a polynomial ring.

    The reduced rows are kept as built, one `Row` each, and indexed once by
    leading position; `leads` reads the leading terms off that index.  The
    dense rank-length vectors of `basis` are built only when it is read.
    """

    __slots__ = ("field", "vars", "rank", "_rows", "_index")

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
        rows = [{q: c.terms for q, c in enumerate(v) if c.terms} for v in generators]
        self._rows, certs = _groebner(rows, rank, field)
        self._index = _index(self._rows, certs, rank)

    @property
    def basis(self) -> list[Vector]:
        """The reduced basis as dense vectors, in basis order, built on each read."""
        return [self._vector(row) for row in self._rows]

    @property
    def leads(self) -> set[tuple[int, Exponent]]:
        """The basis's POT leading (position, exponent) pairs."""
        return {(pos, lt) for pos, entries in enumerate(self._index) for lt, *_ in entries}

    def _vector(self, row: Row) -> Vector:
        return tuple(Polynomial._of_terms(self.field, self.vars, row.get(q) or {}) for q in range(self.rank))

    def _work_row(self, v: Vector) -> Row:
        """A copy of `v`'s occupied positions, for `_reduce` to consume."""
        if len(v) != self.rank:
            raise ValueError("rank mismatch")
        for c in v:
            if not c.in_ring(self.field, self.vars):
                raise ValueError("polynomial is not in the ambient ring")
        return {pos: dict(c.terms) for pos, c in enumerate(v) if c.terms}

    def normal_form(self, v: Vector) -> Vector:
        nf, _ = _reduce(self._work_row(v), self._index, self.field)
        return self._vector(nf)

    def sparse_normal_form(self, row: Row) -> Row:
        """`normal_form` on a `Row` (nonzero coefficients, owned by the call).

        A single term no leading term at its position divides comes back as it
        is; the rest goes through `_reduce`.  A normal form is unique, so the
        result holds exactly the terms of `normal_form`, in the same order.
        """
        if len(row) == 1:
            ((pos, comp),) = row.items()
            if len(comp) == 1:
                (e,) = comp
                absent = ~exp_mask(e)
                if not any(not mask & absent and exp_divides(lt, e) for lt, mask, _, _ in self._index[pos]):
                    return row
        nf, _ = _reduce(row, self._index, self.field)
        return nf

    def normal_form_with_bound(self, v: Vector) -> tuple[Vector, int]:
        """Normal form plus a degree bound covering this reduction's certificate."""
        row = self._work_row(v)
        degree = _row_degree(row)
        nf, cert = _reduce(row, self._index, self.field)
        return self._vector(nf), max(cert, degree)

    def contains(self, v: Vector) -> bool:
        return all(c.is_zero() for c in self.normal_form(v))
