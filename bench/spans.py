"""Layer spans recorded from outside kcx.

`Tracer.install` replaces each layer's public function or method with a
wrapper that records a span, on the class for methods and on every `kcx.*`
module attribute that binds the function (so `gallery`'s own
`solve_connection_space` and `from .connections import connection_residues`
inside a function body are both covered).  `Tracer.restore` puts the original objects back.

A span is `[name, op_id, parent, start, end, extra]`, kept in memory; `extra`
holds a layer's count (basis size, solver shape, memo hit) where it has one.
`poly` and `fields` are not wrapped: they run millions of times per pass and
their cost shows as self time of the `groebner` spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from time import perf_counter


def _basis_size(args, kwargs, result):
    return len(args[0].basis)


def _solve_shape(args, kwargs, result):
    equations, unknowns = args[0], args[1]
    rank = len(unknowns) - result.dimension if not result.is_empty else None
    return {"unknowns": len(unknowns), "equations": len(equations), "rank": rank}


# span name -> targets (module, attribute or "Class.method", extra); extra is
# None, a function of (args, kwargs, result) giving the span's count, or
# "memo": the call is a hit when it returns an object already returned in
# this pass.
SPANS: dict[str, list[tuple[str, str, object]]] = {
    "groebner.ideal_basis": [("groebner", "IdealBasis.__init__", _basis_size)],
    "groebner.module_basis": [("groebner", "ModuleBasis.__init__", _basis_size)],
    "groebner.ideal_nf": [("groebner", "IdealBasis.normal_form", None)],
    "groebner.module_nf": [
        ("groebner", "ModuleBasis.normal_form", None),
        ("groebner", "ModuleBasis.normal_form_with_bound", None),
    ],
    "linsolve.solve": [("linsolve", "affine_linear_solve", _solve_shape)],
    "connections.residues": [("connections", "connection_residues", None)],
    "solve.space": [("solve", "solve_connection_space", None)],
    "solve.glue": [("solve", "glued_connection_check", None)],
    "tangent.tangent_algebra": [("tangent", "tangent_algebra", None)],
    "tangent.structure_maps": [("tangent", "tangent_structure_maps", None)],
    "tangent.bundle_context": [("tangent", "bundle_context", "memo")],
    "algebra.make_algebra": [("algebra", "make_algebra", None)],
    "algebra.morphism": [("algebra", "AlgebraMorphism.__init__", None)],
    "algebra.localize": [("algebra", "localize", None)],
    "modules.kahler_module": [("modules", "kahler_module", "memo")],
    "connections.make_connection": [("connections", "make_connection", None)],
    "connections.axioms": [("connections", "verify_connection_axioms", None)],
    "connections.bundle_forms": [
        ("connections", "to_horizontal", None),
        ("connections", "to_vertical", None),
        ("connections", "from_horizontal", None),
    ],
    "curvature.module_curvature": [("curvature", "module_curvature", None)],
    "curvature.correspondence": [
        ("curvature", "check_curvature_correspondence", None),
        ("curvature", "check_torsion_correspondence", None),
    ],
    "curvature.module_torsion": [("curvature", "module_torsion", None)],
    "dualnum.solve": [("dualnum", "dual_connection_solve", None)],
    "workspace.parse": [("workspace", "parse_workspace", None)],
    "cli.run": [("cli", "run", None)],
}
OP_SPAN = "bench.op"

NAME, OP, PARENT, START, END, EXTRA = range(6)


def kcx_modules() -> list:
    """Every kcx module, imported now so that none binds a wrapper later."""
    import kcx

    for info in pkgutil.iter_modules(kcx.__path__):
        importlib.import_module(f"kcx.{info.name}")
    return [m for n, m in sorted(sys.modules.items()) if n == "kcx" or n.startswith("kcx.")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []
        self._seen: dict[int, object] = {}  # results of memoized calls, kept alive

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = kcx_modules()
        by_name = {m.__name__.split(".")[-1]: m for m in mods}
        for span, targets in SPANS.items():
            for mod_name, attr, extra in targets:
                mod = by_name[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    self._replace(cls, meth, self._wrap(span, cls.__dict__[meth], extra))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(span, original, extra)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, key, wrapper)

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [name, self._op, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if extra == "memo":
                rec[EXTRA] = id(result) in self._seen
                self._seen[id(result)] = result
            elif extra is not None:
                rec[EXTRA] = extra(args, kwargs, result)
            return result

        return span

    def run_op(self, op_id: int, fn):
        """Run fn() as op `op_id`, under a root span."""
        self._op = op_id
        try:
            return self._wrap(OP_SPAN, fn, None)()
        finally:
            self._op = -1

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and forget memo identities."""
        out = self.spans[:]
        self.spans.clear()
        self._seen.clear()
        return out


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans
# ---------------------------------------------------------------------------

LAYER_METRICS = [OP_SPAN, *SPANS]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Calls and self time per span name, plus the layers' counts and ratios."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for i, rec in enumerate(spans):
        out[f"{rec[NAME]}.calls"] += 1
        out[f"{rec[NAME]}.self_s"] += rec[END] - rec[START] - child[i]

    def total(name: str, key=None) -> int:
        # a call that raised has no extra
        extras = [r[EXTRA] for r in spans if r[NAME] == name and r[EXTRA] is not None]
        return sum((e if key is None else e[key] or 0) for e in extras)

    out["groebner.ideal_basis.size"] = total("groebner.ideal_basis")
    out["groebner.module_basis.size"] = total("groebner.module_basis")
    for key in ("unknowns", "equations", "rank"):
        out[f"linsolve.solve.{key}"] = total("linsolve.solve", key)
    for name in ("tangent.bundle_context", "modules.kahler_module"):
        calls = out[f"{name}.calls"]
        out[f"{name}.hit_ratio"] = total(name) / calls if calls else 0.0
    evals, unknowns = 0, 0
    for space in solve_space_shapes(spans):
        evals += space["residue_evals"]
        unknowns += space["unknowns"]
    out["solve.residue_evals_per_unknown"] = evals / unknowns if unknowns else 0.0
    out["trace.spans"] = len(spans)
    return out


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in LAYER_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "groebner.ideal_basis.size": "count",
        "groebner.module_basis.size": "count",
        "linsolve.solve.unknowns": "count",
        "linsolve.solve.equations": "count",
        "linsolve.solve.rank": "count",
        "tangent.bundle_context.hit_ratio": "ratio",
        "modules.kahler_module.hit_ratio": "ratio",
        "solve.residue_evals_per_unknown": "ratio",
        "trace.spans": "count",
    })
    return units


def solve_space_shapes(spans: list[list]) -> list[dict]:
    """Per `solve_connection_space` call: residue evaluations and unknowns."""
    enclosing = [-1] * len(spans)
    shapes: dict[int, dict] = {}
    for i, rec in enumerate(spans):
        enclosing[i] = enclosing[rec[PARENT]] if rec[PARENT] >= 0 else -1
        if rec[NAME] == "solve.space":
            enclosing[i] = i
            shapes[i] = {"op": rec[OP], "residue_evals": 0, "unknowns": 0}
        elif enclosing[i] >= 0 and rec[NAME] == "connections.residues":
            shapes[enclosing[i]]["residue_evals"] += 1
        elif enclosing[i] >= 0 and rec[NAME] == "linsolve.solve" and rec[EXTRA]:
            shapes[enclosing[i]]["unknowns"] += rec[EXTRA]["unknowns"]
    return list(shapes.values())


def write_spans(path, passes: list[list[list]], op_names: list[list[str]], header: dict) -> None:
    """JSON lines: a header naming the fields, then one row per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ["pass", "id", "name", "op", "op_name", "parent", "start", "end", "extra"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**header, "fields": fields}) + "\n")
        for p, (spans, names) in enumerate(zip(passes, op_names)):
            for i, (name, op, parent, start, end, extra) in enumerate(spans):
                row = [p, i, name, op, names[op], parent, start, end, extra]
                fh.write(json.dumps(row) + "\n")
