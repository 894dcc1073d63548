"""The benchmark's three workloads and the verdicts each op must produce.

An op is a named callable that returns an observed verdict; `expected` is the
known answer (the paper's facts and the seed engine's dimensions).  Every op
builds its algebras and modules from strings when it runs, so no memoized
object survives from one op or pass to the next, except that the nine
pipeline steps on one sphere share that sphere's objects through `job`.

Ops reach kcx through module attributes at call time (`cli.run`,
`kcx.solve_connection_space`, ...), so span wrappers installed by
`spans.Tracer` see the calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples_kcx"

WHY = {
    "catalog": "many small fresh presentations: the 14 gallery cases and 7 README kcx command"
    " lines; ideal-basis builds dominate, module normal forms are small",
    "solve": "connection-space solves on S^1..S^3 and the P^1 gluing: module normal forms and"
    " Gauss-Jordan dominate, few bases are built",
    "pipeline": "canonical sphere connections through axioms, round trip, curvature and torsion:"
    " a balanced mix of ideal and module bases, normal forms and morphism certification",
}
WORKLOADS = tuple(WHY)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    expected: Any
    job: str = ""  # ops of one job keep their order and share state


@dataclass
class Outcome:
    name: str
    seconds: float
    ok: bool
    observed: Any = None
    error: str = ""


def run_op(op: Op) -> Outcome:
    """Time one op and check its verdict; an exception is a failed op."""
    t0 = perf_counter()
    try:
        observed = op.run()
    except Exception as exc:  # noqa: BLE001 - a raising op is counted, never fatal
        return Outcome(op.name, perf_counter() - t0, False, error=f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - t0
    return Outcome(op.name, seconds, observed == op.expected, observed)


# ---------------------------------------------------------------------------
# shared constructions
# ---------------------------------------------------------------------------


def sphere(kcx, n: int, field=None):
    """S^n as the unit sphere in n + 1 variables x1..x{n+1}."""
    xs = tuple(f"x{i}" for i in range(1, n + 2))
    rel = " + ".join(f"{x}^2" for x in xs) + " - 1"
    return kcx.make_algebra(field or kcx.QQ, xs, [rel])


def canonical_sphere_connection(kcx, A):
    """d(x_i) -> -x_i * sum_j d(x_j) (x) d(x_j), as in gallery.sphere_canonical_connection."""
    omega = kcx.kahler_module(A)
    n = len(A.gens)
    images = {}
    for i, x in enumerate(A.gens):
        comps = ["0"] * (n * n)
        for j in range(n):
            comps[j * n + j] = f"-{x}"
        images[omega.gens[i]] = comps
    return kcx.make_connection(omega, images)


def glue_p1(kcx, field, degree: int):
    A1 = kcx.make_algebra(field, ("x",))
    A2 = kcx.make_algebra(field, ("y",))
    return kcx.glued_connection_check(
        A1, "x", A2, "y", {"x": "y_inv", "x_inv": "y"}, {"y": "x_inv", "y_inv": "x"},
        degree=degree,
    )


def space_verdict(space) -> str:
    if space.is_empty:
        return "empty"
    if space.is_unique:
        return "unique-zero" if all(v == 0 for v in space.particular) else "unique"
    return f"family dim {space.dimension}"


# ---------------------------------------------------------------------------
# catalog: gallery cases plus README command lines
# ---------------------------------------------------------------------------

# (argv, solver status the text output must report, or None)
COMMANDS = [
    (["check", "circle"], None),
    (["solve", "fatpoint", "--module", "Omega", "--degree", "3"], "empty"),
    (["curvature", "plane"], None),
    (["torsion", "plane"], None),
    (["convert", "circle"], None),
    (["glue", "p1", "--degree", "6"], "empty"),
    (["glue", "p1", "--degree", "6", "--char", "2"], "unique"),
]


def _gallery_op(gallery, case_id: str) -> Op:
    def run():
        fn = dict(gallery.GALLERY)[case_id]
        fn()  # a gallery case raises when its expectation fails
        return "passed"

    return Op(f"gallery:{case_id}", run, "passed")


def _cli_op(cli, argv: list[str], solver: str | None) -> Op:
    argv = [argv[0], str(EXAMPLES / f"{argv[1]}.kcx"), *argv[2:]]

    def run():
        code, text = cli.run(argv)
        status = None
        for line in text.splitlines():
            if line.startswith("solver: "):
                status = line.split()[1]
        return (code, status)

    label = " ".join(a if not a.endswith(".kcx") else Path(a).stem for a in argv)
    return Op(f"kcx {label}", run, (0, solver))


def catalog_ops(kcx) -> list[Op]:
    from kcx import cli, gallery

    ops = [_gallery_op(gallery, case_id) for case_id, _ in gallery.GALLERY]
    ops += [_cli_op(cli, argv, solver) for argv, solver in COMMANDS]
    return ops


# ---------------------------------------------------------------------------
# solve: connection spaces and the P^1 gluing
# ---------------------------------------------------------------------------

# (sphere dimension, degree bound, field characteristic, solution dimension)
SPHERE_SOLVES = [
    (1, 1, 0, 5), (1, 2, 0, 7), (1, 3, 0, 9),
    (2, 1, 0, 32), (2, 2, 0, 80), (2, 3, 0, 144),
    (3, 1, 0, 103),
    (2, 2, 32003, 80),
]
GLUE_DEGREE = 14


def _space_op(kcx, n: int, degree: int, char: int, dim: int) -> Op:
    def run():
        field = kcx.GF(char) if char else kcx.QQ
        omega = kcx.kahler_module(sphere(kcx, n, field))
        return kcx.solve_connection_space(omega, degree).dimension

    where = f" GF({char})" if char else ""
    return Op(f"solve S^{n} d={degree}{where}", run, dim)


def _glue_op(kcx, char: int, expected: str) -> Op:
    def run():
        field = kcx.GF(char) if char else kcx.QQ
        return space_verdict(glue_p1(kcx, field, GLUE_DEGREE).space)

    where = f"GF({char})" if char else "QQ"
    return Op(f"glue P^1 d={GLUE_DEGREE} {where}", run, expected)


def solve_ops(kcx) -> list[Op]:
    ops = [_space_op(kcx, *case) for case in SPHERE_SOLVES]
    ops += [_glue_op(kcx, 0, "empty"), _glue_op(kcx, 2, "unique-zero")]
    return ops


# ---------------------------------------------------------------------------
# pipeline: one sphere's connection through every stage
# ---------------------------------------------------------------------------


def _pipeline_steps(kcx, n: int) -> list[tuple[str, Callable[[dict], Any], Any]]:
    curved = n > 1

    def make(s):
        s["nabla"] = canonical_sphere_connection(kcx, sphere(kcx, n))
        return "certified"

    def horizontal(s):
        s["H"] = kcx.to_horizontal(s["nabla"])
        return s["H"].certified

    def vertical(s):
        s["K"] = kcx.to_vertical(s["nabla"])
        return s["K"].certified

    def axioms(s):
        report = kcx.verify_connection_axioms(s["K"], s["H"], s["nabla"].module)
        return (report.all_pass, len(report.entries))

    def round_trip(s):
        back = kcx.from_horizontal(s["H"], s["nabla"].module)
        return kcx.connection_equal(back, s["nabla"])

    def curvature(s):
        return kcx.module_curvature(s["nabla"]).flat

    def curvature_corr(s):
        r = kcx.check_curvature_correspondence(s["nabla"])
        return (r.flat, r.residuals_zero)

    def torsion(s):
        return kcx.module_torsion(s["nabla"]).torsion_free

    def torsion_corr(s):
        r = kcx.check_torsion_correspondence(s["nabla"])
        return (r.torsion_free, r.residuals_zero)

    return [
        ("make_connection", make, "certified"),
        ("to_horizontal", horizontal, True),
        ("to_vertical", vertical, True),
        ("verify_connection_axioms", axioms, (True, 10)),
        ("from_horizontal round trip", round_trip, True),
        ("module_curvature", curvature, not curved),
        ("check_curvature_correspondence", curvature_corr, (not curved, True)),
        ("module_torsion", torsion, True),
        ("check_torsion_correspondence", torsion_corr, (True, True)),
    ]


def pipeline_ops(kcx) -> list[Op]:
    ops = []
    for n in (1, 2, 3):
        state: dict = {}
        job = f"S^{n}"
        for step, fn, expected in _pipeline_steps(kcx, n):
            ops.append(Op(f"{job} {step}", (lambda fn=fn, s=state: fn(s)), expected, job))
    return ops


OP_LISTS = {"catalog": catalog_ops, "solve": solve_ops, "pipeline": pipeline_ops}


def build_ops(workload: str) -> list[Op]:
    import kcx

    return OP_LISTS[workload](kcx)


def pass_order(ops: list[Op], rng: random.Random) -> list[Op]:
    """One pass's op order: jobs are permuted, steps inside a job are not."""
    jobs: dict[str, list[Op]] = {}
    for i, op in enumerate(ops):
        jobs.setdefault(op.job or f"#{i}", []).append(op)
    keys = list(jobs)
    rng.shuffle(keys)
    return [op for k in keys for op in jobs[k]]


def fresh_pass(workload: str, rng: random.Random) -> list[Op]:
    """A pass's ops in seeded order, with fresh pipeline state."""
    return pass_order(build_ops(workload), rng)
