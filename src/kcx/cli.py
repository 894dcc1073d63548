"""Command line interface.

    kcx check FILE [--connection NAME] [--char p] [--json]
    kcx solve FILE --module NAME [--degree N] [--char p] [--json]
    kcx curvature FILE [--connection NAME] [--char p] [--json]
    kcx torsion FILE [--connection NAME] [--char p] [--json]
    kcx convert FILE [--connection NAME] [--char p] [--json]
    kcx glue FILE [--degree N] [--char p] [--json]
    kcx gallery [--json]

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or parse error.
The JSON schema is fixed: {"command", "checks": [{"id", "status", "witness",
"residue"}], "solver": {"status", "dim"} | null}.

The argument parser is built once per process, on the first `run`, and shared
by every later call; `parse_args` keeps no state between calls, and help and
usage text is formatted only when printed.  Do not mutate the parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .algebra import PresentedAlgebra, localize
from .connections import AxiomCheck, to_horizontal, to_vertical, verify_connection_axioms
from .connections import connection_equal, from_horizontal
from .curvature import check_curvature_correspondence, check_torsion_correspondence
from .errors import ExpansionTooLarge, KcxError, NotInverse
from .gallery import run_gallery
from .linsolve import AffineSolutionSpace
from .modules import kahler_module
from .solve import glued_connection_check, solve_connection_space
from .workspace import (
    Workspace,
    WorkspaceError,
    parse_workspace,
    render_connection_image,
)


class Report:
    def __init__(self, command: str):
        self.command = command
        self.checks: list[AxiomCheck] = []
        self.solver: dict | None = None
        self.lines: list[str] = []  # extra text-only output

    @property
    def exit_code(self) -> int:
        return 0 if all(c.status == "pass" for c in self.checks) else 1

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "checks": [
                {"id": c.axiom_id, "status": c.status, "witness": c.witness, "residue": c.residue}
                for c in self.checks
            ],
            "solver": self.solver,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        out = [f"command: {self.command}"]
        for c in self.checks:
            mark = "PASS" if c.status == "pass" else "FAIL"
            extra = ""
            if c.witness:
                extra += f"  witness: {c.witness}"
            if c.residue:
                extra += f"  residue: {c.residue}"
            out.append(f"[{mark}] {c.axiom_id}{extra}")
        if self.solver is not None:
            out.append(f"solver: {self.solver['status']} (dim {self.solver['dim']})")
        out.extend(self.lines)
        return "\n".join(out)


def _solver_payload(space: AffineSolutionSpace) -> dict:
    if space.is_empty:
        status = "empty"
    elif space.is_unique:
        status = "unique"
    else:
        status = "family"
    return {"status": status, "dim": space.dimension}


def _load(path: str, char: int | None) -> Workspace:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a leading byte-order mark
    except UnicodeDecodeError as exc:
        raise WorkspaceError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    return parse_workspace(text, char_override=char)


def _pick_connections(ws: Workspace, name: str | None) -> list[str]:
    if name is not None:
        if name not in ws.connections:
            raise WorkspaceError(f"no connection named {name!r} in the file")
        return [name]
    return list(ws.connections)


def _require_connections(report: Report) -> Report:
    """A command over a file's connections fails when the file has none."""
    if not report.checks:
        report.checks.append(AxiomCheck("no-connections", "fail", "", "file defines no connection"))
    return report


def _axiom_checks(prefix: str, report) -> list[AxiomCheck]:
    return [e._replace(axiom_id=f"{prefix}{e.axiom_id}") for e in report.entries]


def cmd_check(args) -> Report:
    ws = _load(args.file, args.char)
    report = Report("check")
    for name in _pick_connections(ws, args.connection):
        nabla = ws.connections[name]
        report.checks.append(AxiomCheck(f"well-defined[{name}]", "pass"))
        axioms = verify_connection_axioms(
            to_vertical(nabla), to_horizontal(nabla), nabla.module
        )
        report.checks.extend(_axiom_checks(f"{name}:", axioms))
    return _require_connections(report)


def cmd_solve(args) -> Report:
    ws = _load(args.file, args.char)
    report = Report("solve")
    if args.module not in ws.modules:
        raise WorkspaceError(f"no module named {args.module!r} in the file")
    report.solver = _solver_payload(solve_connection_space(ws.modules[args.module], args.degree))
    return report


def _correspondence_report(args, command: str, check, verdicts: tuple[str, str]) -> Report:
    """Per connection: the verdict (`verdicts` is the vanishing and the
    non-vanishing label), one correspondence check per generator, and the
    module images."""
    ws = _load(args.file, args.char)
    report = Report(command)
    for name in _pick_connections(ws, args.connection):
        result = check(ws.connections[name])
        if command == "torsion":
            routes = result.routes_agree
            report.checks.append(routes._replace(axiom_id=f"{routes.axiom_id}[{name}]"))
        verdict = verdicts[0] if result.vanishes else verdicts[1]
        report.checks.append(AxiomCheck(f"{command}[{name}]", "pass", verdict))
        for g, residuals in result.residuals.items():
            bad = [r for r in residuals if not r.is_zero()]
            report.checks.append(
                AxiomCheck(
                    f"{command}-correspondence[{name}][{g}]",
                    "pass" if not bad else "fail",
                    g,
                    "; ".join(r.render() for r in bad),
                )
            )
        for g, img in result.images.items():
            report.lines.append(f"{command}[{name}] {g} -> {img.render()}")
    return _require_connections(report)


def cmd_curvature(args) -> Report:
    return _correspondence_report(
        args, "curvature", check_curvature_correspondence, ("flat", "not flat")
    )


def cmd_torsion(args) -> Report:
    return _correspondence_report(
        args, "torsion", check_torsion_correspondence, ("torsion-free", "has torsion")
    )


def cmd_convert(args) -> Report:
    ws = _load(args.file, args.char)
    report = Report("convert")
    for name in _pick_connections(ws, args.connection):
        nabla = ws.connections[name]
        H = to_horizontal(nabla)
        K = to_vertical(nabla)
        report.lines.append(f"horizontal form of {name}:")
        for g in H.dom.gens:
            report.lines.append(f"  {g} -> {H.image_of(g).render()}")
        report.lines.append(f"vertical form of {name}:")
        for g in K.dom.gens:
            report.lines.append(f"  {g} -> {K.image_of(g).render()}")
        recovered = from_horizontal(H, nabla.module)
        report.checks.append(
            AxiomCheck(
                f"roundtrip[{name}]",
                "pass" if connection_equal(recovered, nabla) else "fail",
            )
        )
        report.lines.append(f"recovered connection from the horizontal form of {name}:")
        for g in nabla.module.gens:
            report.lines.append(
                f"  {g} -> {render_connection_image(nabla.module, recovered.gamma[g])}"
            )
    return _require_connections(report)


def _same_ideal(A: PresentedAlgebra, B: PresentedAlgebra) -> bool:
    """True iff the relations of A and B, over one ring, generate one ideal."""
    return all(B.basis.contains(r) for r in A.relations) and all(
        A.basis.contains(r) for r in B.relations
    )


def cmd_glue(args) -> Report:
    ws = _load(args.file, args.char)
    report = Report("glue")
    if ws.glue is None:
        raise WorkspaceError("file has no glue block")
    spec = ws.glue
    A1, A2 = ws.algebras[spec.chart1], ws.algebras[spec.chart2]
    t = ws.morphisms[spec.transition]
    tinv = ws.morphisms[spec.inverse]
    L1, L2 = localize(A1, spec.at1), localize(A2, spec.at2)
    # the gluing is solved over the true localizations, so the file's
    # algebras must present exactly those
    for f, dom, cod, key in ((t, L1, L2, "transition"), (tinv, L2, L1, "inverse")):
        label = getattr(spec, key)
        if f.dom.gens != dom.gens or f.cod.gens != cod.gens:
            raise WorkspaceError(
                f"morphism {label!r} must go between the localized charts "
                f"(expected generators {dom.gens} -> {cod.gens})",
                *spec.places[key],
            )
        for end, localized, side in ((f.dom, dom, "domain"), (f.cod, cod, "codomain")):
            if not _same_ideal(end, localized):
                relations = ", ".join(r.render() for r in localized.relations)
                raise WorkspaceError(
                    f"morphism {label!r} must go between the localized charts, but the "
                    f"relations of its {side} do not generate the ideal ({relations})",
                    *spec.places[key],
                )
    # the connections on the charts' differentials: none (solve for them) or
    # exactly one per chart (check that they glue)
    on = {}
    for key, A in (("chart1", A1), ("chart2", A2)):
        omega = kahler_module(A)
        on[key] = [name for name, nabla in ws.connections.items() if nabla.module is omega]
    counts = [len(names) for names in on.values()]
    if counts not in ([0, 0], [1, 1]):
        found = "; ".join(f"{k} {getattr(spec, k)!r} has {', '.join(map(repr, n)) or 'none'}" for k, n in on.items())
        raise WorkspaceError(
            f"glue takes no connection or exactly one on each chart's differentials ({found})",
            *spec.places["chart1" if counts[0] != 1 else "chart2"],
        )
    connections = {}
    if counts == [1, 1]:
        (name1,), (name2,) = on.values()
        connections = {"nabla1": ws.connections[name1], "nabla2": ws.connections[name2]}
    try:
        result = glued_connection_check(
            A1, spec.at1, A2, spec.at2, t.images, tinv.images, degree=args.degree, **connections
        )
    except NotInverse as exc:
        raise WorkspaceError(str(exc), *spec.places["inverse"]) from None
    except ExpansionTooLarge as exc:  # met composing the two maps
        raise WorkspaceError(
            f"transition {spec.transition!r} and inverse {spec.inverse!r}: {exc}", *spec.places["inverse"]
        ) from None
    if connections:
        report.checks.extend(result.report.entries)
    else:
        report.solver = _solver_payload(result.space)
    return report


def cmd_gallery(args) -> Report:
    report = Report("gallery")
    for case in run_gallery():
        report.checks.append(
            AxiomCheck(case.case_id, "pass" if case.passed else "fail", "", "" if case.passed else case.detail)
        )
        report.lines.append(f"{case.case_id}: {case.detail}")
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `kcx` parser, built on the first call and shared by every later one
    in the process (building it costs more than most commands it parses), so
    no caller may mutate it."""
    parser = argparse.ArgumentParser(
        prog="kcx",
        description="exact checks and solvers for module connections over affine presentations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads
    def common(p, file=True, connection=False, degree=None, module=False):
        if file:
            p.add_argument("file", metavar="FILE")
            p.add_argument("--char", type=int, default=None)
        p.add_argument("--json", action="store_true")
        if connection:
            p.add_argument("--connection", default=None)
        if module:
            p.add_argument("--module", required=True)
        if degree is not None:
            p.add_argument("--degree", type=int, default=degree)

    common(sub.add_parser("check", help="well-definedness plus the full axiom suite"), connection=True)
    common(sub.add_parser("solve", help="solve for all connections up to a degree"), degree=3, module=True)
    common(sub.add_parser("curvature", help="curvature and its bundle correspondence"), connection=True)
    common(sub.add_parser("torsion", help="torsion, both routes, and its correspondence"), connection=True)
    common(sub.add_parser("convert", help="print the horizontal/vertical forms and round-trip"), connection=True)
    common(sub.add_parser("glue", help="check or solve a two-chart gluing"), degree=6)
    common(sub.add_parser("gallery", help="run the built-in example gallery"), file=False)
    return parser


# The largest accepted --degree.  The unknowns of a bounded-degree solve grow
# polynomially with it, so a huge degree would run without end; every example
# and stored result uses degree 14 or less.
MAX_DEGREE = 64

COMMANDS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "curvature": cmd_curvature,
    "torsion": cmd_torsion,
    "convert": cmd_convert,
    "glue": cmd_glue,
    "gallery": cmd_gallery,
}


def run(argv: list[str]) -> tuple[int, str]:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code else 0), ""
    degree = getattr(args, "degree", 0)
    if degree < 0:
        return 2, "error: --degree must be nonnegative"
    if degree > MAX_DEGREE:
        return 2, f"error: --degree must be at most {MAX_DEGREE}"
    try:
        report = COMMANDS[args.command](args)
    except WorkspaceError as exc:
        if exc.residue is not None:
            # a value failed certification at load: that is a check failure,
            # reported with its residue, not a usage error
            report = Report(args.command)
            report.checks.append(
                AxiomCheck(f"well-defined[{exc.entity}]", "fail", exc.entity or "", exc.residue)
            )
            text = report.to_json() if args.json else report.to_text()
            return 1, text
        return 2, f"error: {exc}"
    except (KcxError, OSError) as exc:
        return 2, f"error: {exc}"
    text = report.to_json() if args.json else report.to_text()
    return report.exit_code, text


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        print(text)
    sys.exit(code)
