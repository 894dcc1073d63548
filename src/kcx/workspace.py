"""Definition files: parsing, eager certification, and canonical rendering.

Line-oriented grammar with # comments; blocks in braces, entries ending in
semicolons:

    algebra NAME { char: 0; vars: x, y; rel: x^2 + y^2 - 1; }
    module NAME over ALG { kahler; }
    module NAME over ALG { free: 2; }
    module NAME over ALG { gens: u, v; rel: x*u + y*v; }
    connection NAME on MOD { GEN -> EXPR * d(EXPR) @ GEN - ... ; }
    morphism NAME : ALG -> ALG { v -> EXPR; ... }
    glue { chart1: ALG at VAR; chart2: ALG at VAR; transition: M; inverse: M; }

An entry appears at most once in a block (only `rel` repeats), a module is one
of `kahler`, `free` or `gens`, and `rel` goes only with `gens`.

Every entity is built and certified at load time, so an ill-defined connection
fails the parse with its residue.  Rendering emits the same grammar and
round-trips through the parser.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .algebra import AlgebraMorphism, PresentedAlgebra, make_morphism
from .connections import Connection, make_connection
from .errors import ExpansionTooLarge, KcxError, WellDefinednessFailure
from .fields import Field
from .modules import (
    ModuleElement,
    PresentedModule,
    christoffel_target,
    free_module,
    kahler_module,
    make_module,
)
from .parse import ParseError, poly_normalize
from .poly import MAX_TERMS, Polynomial


class WorkspaceError(KcxError):
    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: int | None = None,
        entity: str | None = None,
        residue: str | None = None,
    ):
        self.line = line
        self.column = column
        self.entity = entity  # set for certification failures of a named value
        self.residue = residue
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + where)


class GlueSpec(NamedTuple):
    chart1: str
    at1: str
    chart2: str
    at2: str
    transition: str
    inverse: str
    # (line, column) of each entry, for errors found when the gluing runs
    places: dict[str, tuple[int, int]]


class Workspace:
    def __init__(self, char: int | None):
        self.char = char  # None only until the first algebra block is read
        self.algebras: dict[str, PresentedAlgebra] = {}
        self.modules: dict[str, PresentedModule] = {}
        self.connections: dict[str, Connection] = {}
        self.morphisms: dict[str, AlgebraMorphism] = {}
        self.glue: GlueSpec | None = None
        # kahler_module is memoized, so two `kahler;` modules over one algebra
        # are one object: a connection's module name is kept, not looked up
        self.connection_module: dict[str, str] = {}


_NAME = r"[A-Za-z][A-Za-z0-9_]*"
# `free: n` builds all n generator names up front; every example uses rank 3
# or less.
MAX_FREE_RANK = 64
_GEN = rf"(?:{_NAME}|d\(\s*{_NAME}\s*\))"
# The tangent construction names the differentials of a generator x d_x, dp_x
# and dpd_x, so no variable or module generator may start with these prefixes.
RESERVED_PREFIXES = ("d_", "dp_", "dpd_")


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def location(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, message: str, pos: int | None = None, **kwargs) -> WorkspaceError:
        return WorkspaceError(message, *self.location(pos), **kwargs)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take_word(self) -> str:
        self.skip_ws()
        m = re.compile(_NAME).match(self.text, self.pos)
        if not m:
            raise self.error("expected a name")
        self.pos = m.end()
        return m.group(0)

    def expect(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def take_block_entries(self) -> list[tuple[str, int]]:
        """Entries of a `{ ...; ...; }` block, with their start positions."""
        self.expect("{")
        entries = []
        start = None
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated block")
            ch = self.text[self.pos]
            if ch == "}":
                chunk = self.text[start: self.pos] if start is not None else ""
                if chunk.strip():
                    raise self.error("missing ';' before '}'", start)
                self.pos += 1
                return entries
            if ch == ";":
                chunk = self.text[start: self.pos] if start is not None else ""
                if chunk.strip():
                    entries.append((chunk.strip(), start))
                start = None
                self.pos += 1
                continue
            if start is None and ch not in " \t\r\n":
                start = self.pos
            self.pos += 1


def _split_top_level(text: str, separators: str) -> list[tuple[str, str]]:
    """Split on top-level +/- style separators, keeping the sign per chunk."""
    parts: list[tuple[str, str]] = []
    depth = 0
    current = []
    sign = "+"
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in separators and "".join(current).strip():
            parts.append((sign, "".join(current).strip()))
            sign = ch
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append((sign, tail))
    return parts


def _parse_connection_sum(text: str, cur: _Cursor, pos: int, M: PresentedModule, name: str) -> ModuleElement:
    """`EXPR * d(EXPR) @ GEN` terms combined with +/-, in Omega(A) (x) M; `0`
    is the zero image.  Each product EXPR * partial(EXPR) is refused, as the
    parser refuses one, when it could pass MAX_TERMS terms."""
    A, target = M.base, christoffel_target(M)
    if text.strip() == "0":
        return target.zero()
    terms = []
    for sign, term in _split_top_level(text, "+-"):
        if "@" not in term:
            raise cur.error(f"connection term missing '@': {term!r}", pos)
        lhs, gen_txt = term.rsplit("@", 1)
        gen_txt = gen_txt.strip()
        if not re.fullmatch(_GEN, gen_txt):
            raise cur.error(f"bad module generator {gen_txt!r}", pos)
        gen = re.sub(r"\s+", "", gen_txt)
        if gen not in M.gens:
            raise cur.error(f"unknown module generator {gen!r}", pos)
        lhs = lhs.strip()
        m = re.fullmatch(r"(?:(?P<coef>.*)\*)?\s*d\s*\((?P<inner>.*)\)\s*", lhs, re.DOTALL)
        if not m:
            raise cur.error(f"connection term must end with d(...): {term!r}", pos)
        coef_txt = (m.group("coef") or "1").strip()
        inner_txt = m.group("inner").strip()
        try:
            coef = poly_normalize(coef_txt, A.field, A.gens)
            inner = poly_normalize(inner_txt, A.field, A.gens)
        except Exception as exc:
            raise cur.error(f"bad expression in connection term: {exc}", pos)
        coef = coef if sign == "+" else -coef
        l = M.gens.index(gen)
        for i, x in enumerate(A.gens):
            dx = inner.partial(x)
            if len(coef.terms) * len(dx.terms) > MAX_TERMS:
                raise cur.error(f"connection {name!r}: expansion could pass {MAX_TERMS} terms", pos)
            terms.append((target.pair_index(i, l), coef * dx))
    return target.combine(terms)


def parse_workspace(text: str, char_override: int | None = None) -> Workspace:
    cur = _Cursor(_strip_comments(text))
    if cur.done():
        raise WorkspaceError("empty definition file")
    ws = Workspace(char_override)
    while not cur.done():
        at = cur.pos
        keyword = cur.take_word()
        if keyword == "algebra":
            name = cur.take_word()
            entries = cur.take_block_entries()
            char: int | None = None
            variables: tuple[str, ...] = ()
            rels: list[tuple[str, int]] = []
            for entry, key, val, pos in _key_values(cur, entries, "algebra"):
                if key == "char":
                    char = _int_entry(cur, key, val, pos)
                elif key == "vars":
                    variables = _names_entry(cur, key, val, pos)
                elif key == "rel":
                    rels.append((val, pos))
                else:
                    raise cur.error(f"unknown algebra entry {entry!r}", pos)
            if char is None:
                raise cur.error("algebra block needs a char entry", at)
            if ws.char is None:
                ws.char = char
            if char_override is None and char != ws.char:
                raise cur.error("all algebras in one file must share the characteristic", at)
            _fresh(cur, ws.algebras, "algebra", name, at)
            try:
                field = Field(ws.char)
            except ValueError as exc:
                raise cur.error(f"bad algebra {name!r}: {exc}", at)
            polys = [_relation_entry(cur, r, field, variables, pos) for r, pos in rels]
            ws.algebras[name] = PresentedAlgebra(field, variables, polys)
        elif keyword == "module":
            name = cur.take_word()
            cur.expect("over")
            alg_name = cur.take_word()
            entries = cur.take_block_entries()
            A = _lookup(cur, ws.algebras, "algebra", alg_name, at)
            _fresh(cur, ws.modules, "module", name, at)
            kind = None  # at most one of kahler, free and gens
            gens: tuple[str, ...] = ()
            rels = []
            for entry, key, val, pos in _key_values(cur, entries, "module"):
                if key == "rel":
                    rels.append((val, pos))
                    continue
                if key not in ("free", "gens") and entry != "kahler":
                    raise cur.error(f"unknown module entry {entry!r}", pos)
                if kind is not None:
                    raise cur.error(f"module {name!r} cannot be both {kind} and {key}", pos)
                kind = key
                if key == "free":
                    free_rank = _int_entry(cur, key, val, pos)
                    if not 0 <= free_rank <= MAX_FREE_RANK:
                        raise cur.error(f"free rank must be between 0 and {MAX_FREE_RANK}", pos)
                    _refuse_variables(cur, free_module(A, free_rank).gens, A, alg_name, pos)
                elif key == "gens":
                    gens = _refuse_variables(cur, _names_entry(cur, key, val, pos), A, alg_name, pos)
            if rels and kind != "gens":
                raise cur.error("a module rel: entry needs a gens: entry", rels[0][1])
            if kind == "kahler":
                ws.modules[name] = kahler_module(A)
            elif kind == "free":
                ws.modules[name] = free_module(A, free_rank)
            else:
                rows = [_parse_module_relation(r, A, gens, cur, pos) for r, pos in rels]
                ws.modules[name] = make_module(A, gens, rows)
        elif keyword == "connection":
            name = cur.take_word()
            cur.expect("on")
            mod_name = cur.take_word()
            entries = cur.take_block_entries()
            M = _lookup(cur, ws.modules, "module", mod_name, at)
            _fresh(cur, ws.connections, "connection", name, at)
            images = _images(
                cur, entries, at, "connection", name, M.gens,
                lambda rhs, pos: _parse_connection_sum(rhs, cur, pos, M, name),
            )
            try:
                ws.connections[name] = make_connection(M, images)
            except WellDefinednessFailure as exc:
                raise cur.error(
                    f"connection {name!r} is not well defined: residue {exc.residue}",
                    at, entity=name, residue=str(exc.residue),
                )
            ws.connection_module[name] = mod_name
        elif keyword == "morphism":
            name = cur.take_word()
            cur.expect(":")
            dom_name = cur.take_word()
            cur.expect("->")
            cod_name = cur.take_word()
            entries = cur.take_block_entries()
            dom, cod = (_lookup(cur, ws.algebras, "algebra", n, at) for n in (dom_name, cod_name))
            _fresh(cur, ws.morphisms, "morphism", name, at)
            images = _images(cur, entries, at, "morphism", name, dom.gens, lambda rhs, _: cod.polynomial(rhs))
            try:
                ws.morphisms[name] = make_morphism(dom, cod, images, name=name)
            except WellDefinednessFailure as exc:
                raise cur.error(f"morphism {name!r} ill-defined: {exc}", at)
            except ExpansionTooLarge as exc:
                raise cur.error(f"morphism {name!r}: {exc}", at)
        elif keyword == "glue":
            entries = cur.take_block_entries()
            if ws.glue is not None:
                raise cur.error("only one glue block is allowed", at)
            fields, places = {}, {}
            for entry, key, val, pos in _key_values(cur, entries, "glue"):
                if ":" not in entry:
                    raise cur.error(f"glue entry needs ':': {entry!r}", pos)
                fields[key], places[key] = val, pos
            needed = {"chart1", "chart2", "transition", "inverse"}
            if set(fields) != needed:
                raise cur.error(f"glue block needs exactly {sorted(needed)}", at)
            try:
                chart1, at1 = re.split(r"\s+at\s+", fields["chart1"])
                chart2, at2 = re.split(r"\s+at\s+", fields["chart2"])
            except ValueError:
                raise cur.error("chart entries must look like 'NAME at VAR'", at)
            for key, n, v in (("chart1", chart1, at1), ("chart2", chart2, at2)):
                if v not in _lookup(cur, ws.algebras, "algebra", n, at).gens:
                    raise cur.error(f"{v!r} is not a generator of {n!r}", places[key])
            for n in (fields["transition"], fields["inverse"]):
                _lookup(cur, ws.morphisms, "morphism", n, at)
            ws.glue = GlueSpec(
                chart1, at1, chart2, at2, fields["transition"], fields["inverse"],
                {key: cur.location(pos) for key, pos in places.items()},
            )
        else:
            raise cur.error(f"unknown keyword {keyword!r}", at)
    return ws


def _lookup(cur: _Cursor, table: dict, kind: str, name: str, at: int):
    if name not in table:
        raise cur.error(f"unknown {kind} {name!r}", at)
    return table[name]


def _fresh(cur: _Cursor, table: dict, kind: str, name: str, at: int):
    if name in table:
        raise cur.error(f"redefinition of {kind} {name!r}", at)


def _key_values(cur: _Cursor, entries, kind: str):
    """(entry, key, value, pos) per `key: value` entry, in file order; an entry
    without ':' is its own key with an empty value.  Only `rel` may repeat."""
    seen = set()
    for entry, pos in entries:
        key, colon, val = entry.partition(":")
        key = key.strip() if colon else entry
        if key in seen and key != "rel":
            raise cur.error(f"repeated {kind} entry {key!r}", pos)
        seen.add(key)
        yield entry, key, val.strip(), pos


def _images(cur: _Cursor, entries, at: int, kind: str, name: str, gens, read) -> dict:
    """One `GEN -> IMAGE` entry per generator of a connection or morphism;
    `read(rhs, pos)` parses an image.  A missing image points at the block
    header `at`, as there is no entry to point at."""
    # a module generator may be d(x), written with spaces inside
    label, gen_of = (
        ("module generator", lambda s: re.sub(r"\s+", "", s))
        if kind == "connection"
        else ("generator", str.strip)
    )
    images = {}
    for entry, pos in entries:
        if "->" not in entry:
            raise cur.error(f"{kind} entry needs '->': {entry!r}", pos)
        lhs, rhs = entry.split("->", 1)
        gen = gen_of(lhs)
        if gen not in gens:
            raise cur.error(f"unknown {label} {gen!r}", pos)
        if gen in images:
            raise cur.error(f"repeated image of {label} {gen!r}", pos)
        try:
            images[gen] = read(rhs.strip(), pos)
        except ValueError as exc:
            raise cur.error(f"bad image of {gen!r}: {exc}", pos)
    missing = set(gens) - set(images)
    if missing:
        raise cur.error(f"{kind} {name!r} missing images for {sorted(missing)}", at)
    return images


def _int_entry(cur: _Cursor, key: str, val: str, pos: int) -> int:
    try:
        return int(val)
    except ValueError:
        raise cur.error(f"{key} must be an integer, got {val!r}", pos)


def _names_entry(cur: _Cursor, key: str, val: str, pos: int) -> tuple[str, ...]:
    names = tuple(v.strip() for v in val.split(","))
    for n in names:
        if not re.fullmatch(_NAME, n):
            raise cur.error(f"{key} must be comma-separated names, got {n!r}", pos)
        if n.startswith(RESERVED_PREFIXES):
            raise cur.error(f"{key} name {n!r} starts with a prefix reserved for differentials", pos)
    if len(set(names)) != len(names):
        raise cur.error(f"{key} repeats a name", pos)
    return names


def _refuse_variables(cur: _Cursor, gens, A, alg_name: str, pos: int) -> tuple[str, ...]:
    """Module generator names, refused when one is a variable of the algebra."""
    for g in gens:
        if g in A.gens:
            raise cur.error(f"module generator {g!r} is a variable of {alg_name!r}", pos)
    return gens


def _relation_entry(cur: _Cursor, text: str, field: Field, variables, pos: int) -> Polynomial:
    try:
        return poly_normalize(text, field, variables)
    except ParseError as exc:
        raise cur.error(f"bad relation: {exc}", pos)


def _parse_module_relation(text: str, A, gens, cur, pos):
    combined = A.gens + tuple(gens)
    poly = _relation_entry(cur, text, A.field, combined, pos)
    gen_idx = [combined.index(g) for g in gens]
    rows = [Polynomial.zero(A.field, A.gens) for _ in gens]
    for exp, coef in poly.terms.items():
        active = [(k, exp[i]) for k, i in enumerate(gen_idx) if exp[i]]
        if len(active) != 1 or active[0][1] != 1:
            raise cur.error(
                "module relation must be linear in the module generators", pos
            )
        k = active[0][0]
        base_exp = tuple(e for i, e in enumerate(exp) if i not in gen_idx)
        rows[k] = rows[k] + Polynomial.monomial(A.field, A.gens, base_exp, coef)
    return rows


# ---------------------------------------------------------------------------
# canonical rendering (parse -> render -> parse is the identity)
# ---------------------------------------------------------------------------


def _render_coef(c: Polynomial) -> str:
    body = c.render()
    return f"({body})" if len(c.terms) > 1 else body


def render_connection_image(M: PresentedModule, e: ModuleElement) -> str:
    parts = [
        f"{_render_coef(coef)} * d({M.base.gens[i]}) @ {M.gens[l]}"
        for i, l, coef in christoffel_target(M).entries(e)
    ]
    return " + ".join(parts) if parts else "0"


def render_workspace(ws: Workspace) -> str:
    def algebra_name(A: PresentedAlgebra) -> str:
        return next(n for n, B in ws.algebras.items() if B is A)

    out: list[str] = []
    for name, A in ws.algebras.items():
        lines = [f"algebra {name} {{", f"  char: {ws.char};"]
        if A.gens:
            lines.append(f"  vars: {', '.join(A.gens)};")
        for rel in A.relations:
            lines.append(f"  rel: {rel.render()};")
        lines.append("}")
        out.append("\n".join(lines))
    for name, M in ws.modules.items():
        lines = [f"module {name} over {algebra_name(M.base)} {{"]
        if M.provenance == "kahler":
            lines.append("  kahler;")
        elif M.provenance == "free":
            lines.append(f"  free: {M.rank};")
        else:
            if M.gens:
                lines.append(f"  gens: {', '.join(M.gens)};")
            for row in M.relations:
                terms = [
                    f"{_render_coef(c)}*{g}" for c, g in zip(row, M.gens) if not c.is_zero()
                ]
                lines.append(f"  rel: {' + '.join(terms) or '0'};")
        lines.append("}")
        out.append("\n".join(lines))
    for name, f in ws.morphisms.items():
        lines = [f"morphism {name} : {algebra_name(f.dom)} -> {algebra_name(f.cod)} {{"]
        for g in f.dom.gens:
            lines.append(f"  {g} -> {f.image_of(g).render()};")
        lines.append("}")
        out.append("\n".join(lines))
    for name, nabla in ws.connections.items():
        mod_name = ws.connection_module[name]
        M = nabla.module
        lines = [f"connection {name} on {mod_name} {{"]
        for g in M.gens:
            lines.append(f"  {g} -> {render_connection_image(M, nabla.gamma[g])};")
        lines.append("}")
        out.append("\n".join(lines))
    if ws.glue:
        g = ws.glue
        out.append(
            "glue {\n"
            f"  chart1: {g.chart1} at {g.at1};\n"
            f"  chart2: {g.chart2} at {g.at2};\n"
            f"  transition: {g.transition};\n"
            f"  inverse: {g.inverse};\n"
            "}"
        )
    return "\n\n".join(out) + "\n"
