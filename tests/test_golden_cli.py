"""Byte-for-byte CLI output, text and --json, and the canonical rendering of
definition files, against stored golden files.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from kcx import gallery
from kcx.cli import run
from kcx.errors import KcxError, WellDefinednessFailure
from kcx.workspace import parse_workspace, render_workspace

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"

# golden file stem -> argv; the seven README command lines, the gallery, the
# flat-with-torsion twist example (the "flat" and "has torsion" branches), a
# connection that fails well-definedness, and a gluing of given chart
# connections (the last two kept here, not in examples_kcx)
COMMANDS = {
    "gallery": ["gallery"],
    "check_circle": ["check", "examples_kcx/circle.kcx"],
    "check_circle_naive": ["check", "tests/golden/circle_naive.kcx"],
    "solve_fatpoint": ["solve", "examples_kcx/fatpoint.kcx", "--module", "Omega", "--degree", "3"],
    "curvature_plane": ["curvature", "examples_kcx/plane.kcx"],
    "torsion_plane": ["torsion", "examples_kcx/plane.kcx"],
    "curvature_twist": ["curvature", "examples_kcx/twist.kcx"],
    "torsion_twist": ["torsion", "examples_kcx/twist.kcx"],
    "convert_circle": ["convert", "examples_kcx/circle.kcx"],
    "glue_p1": ["glue", "examples_kcx/p1.kcx", "--degree", "6"],
    "glue_p1_char2": ["glue", "examples_kcx/p1.kcx", "--degree", "6", "--char", "2"],
    "glue_p1_zero_connections": ["glue", "tests/golden/p1_zero_connections.kcx"],
    "glue_p1_zero_connections_char2": ["glue", "tests/golden/p1_zero_connections.kcx", "--char", "2"],
}

CASES = [
    (f"{stem}{suffix}", argv + flags)
    for stem, argv in COMMANDS.items()
    for suffix, flags in ((".txt", []), (".json", ["--json"]))
]


# golden file stem -> definition file rendered by `render_workspace`: the
# examples, and one file with every module kind where two `kahler;` modules
# over one algebra are one object and the connection is on the second name
RENDERED = {
    f"render_{p.stem}": p.read_text(encoding="utf-8") for p in sorted((ROOT / "examples_kcx").glob("*.kcx"))
}
RENDERED["render_module_kinds"] = """\
algebra A { char: 0; vars: x, y; rel: x^2 + y^2 - 1; }
algebra B { char: 0; vars: t; }
module P over A { gens: u, v; rel: x*u + y*v; rel: (y - 1)*u; }
module F over B { free: 2; }
module Omega over A { kahler; }
module Omega2 over A { kahler; }
connection canonical on Omega2 {
  d(x) -> -x * d(x) @ d(x) - x * d(y) @ d(y);
  d(y) -> -y * d(x) @ d(x) - y * d(y) @ d(y);
}
"""


def render(argv: list[str]) -> str:
    argv = [str(ROOT / a) if a.startswith(("examples_kcx/", "tests/")) else a for a in argv]
    code, text = run(argv)
    return f"exit: {code}\n{text}\n"


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv):
    assert render(argv) == (GOLDEN / name).read_text(encoding="utf-8")


# `python -m kcx` argv, exit code and expected output: the gallery's golden
# file, a check that fails (exit 1) and a usage error (exit 2).  `kcx.cli` has
# no `__main__` block of its own: the console script and `python -m kcx` run
# its `main`
PROGRAM_CASES = {
    "gallery": (["gallery"], 0, (GOLDEN / "gallery.txt").read_text(encoding="utf-8")),
    "no_connection": (["check", "examples_kcx/fatpoint.kcx"], 1,
                      "exit: 1\ncommand: check\n[FAIL] no-connections  residue: file defines no connection\n"),
    "negative_degree": (["solve", "examples_kcx/circle.kcx", "--module", "Omega", "--degree", "-1"], 2,
                        "exit: 2\nerror: --degree must be nonnegative\n"),
}


@pytest.mark.parametrize("case", PROGRAM_CASES)
def test_the_cli_module_runs_as_a_program(case):
    """`main` prints the report, adds no traceback and exits with its code."""
    argv, code, expected = PROGRAM_CASES[case]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "kcx", *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (code, "")
    assert f"exit: {proc.returncode}\n{proc.stdout}" == expected == render(argv)


def test_the_package_runs_as_the_kcx_command():
    """`python -m kcx` is the `kcx` command of a checkout that is not installed."""
    argv = ["check", "examples_kcx/circle.kcx"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "kcx", *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert f"exit: {proc.returncode}\n{proc.stdout}" == render(argv)


# Under `python -O` the falsified expectation below must still fail the
# gallery: fat-point-empty is told its solve found a connection.
FALSIFIED_GALLERY = """
import sys
import kcx.gallery
from kcx.cli import main

class Found:
    is_empty = False

kcx.gallery.solve_connection_space = lambda module, degree: Found()
sys.argv = ["kcx", "gallery"]
print(sys.flags.optimize, file=sys.stderr)
main()
"""


def test_gallery_expectations_hold_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FALSIFIED_GALLERY], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (1, "1\n")
    failed = [line for line in proc.stdout.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] fat-point-empty  residue: expectation failed: no connection exists on this module"]


def test_a_gallery_case_that_raises_is_reported_as_failed():
    def broken():
        raise KcxError("no basis")

    assert gallery._case("broken", broken) == ("broken", False, "error: no basis")


def test_falsified_gallery_expectations_are_reported_in_process(monkeypatch):
    """The circle case's two refusals, in this process: zero data that is
    accepted, and a rejection with another residue, each an expectation
    failure (the `python -O` run above sees `_expect` only in a subprocess)."""
    case = "circle-naive-reject"
    monkeypatch.setattr(gallery, "zero_gamma_connection", lambda M: None)
    assert gallery._case(case, gallery._circle_naive_reject) == (
        case, False, "expectation failed: zero data must be rejected on the circle")

    def other_residue(M):
        raise WellDefinednessFailure("connection", "x^2 + y^2 - 1", "1")

    monkeypatch.setattr(gallery, "zero_gamma_connection", other_residue)
    assert gallery._case(case, gallery._circle_naive_reject) == (case, False, "expectation failed: residue was 1")


@pytest.mark.parametrize("stem", RENDERED)
def test_rendering_matches_golden(stem):
    rendered = render_workspace(parse_workspace(RENDERED[stem]))
    assert rendered == (GOLDEN / f"{stem}.kcx").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in CASES:
        (GOLDEN / name).write_text(render(argv), encoding="utf-8")
    for stem, source in RENDERED.items():
        (GOLDEN / f"{stem}.kcx").write_text(render_workspace(parse_workspace(source)), encoding="utf-8")
