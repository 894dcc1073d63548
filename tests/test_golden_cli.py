"""Byte-for-byte CLI output, text and --json, against stored golden files.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from pathlib import Path

import pytest

from kcx.cli import run

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"

# golden file stem -> argv; the seven README command lines, the gallery, and
# the flat-with-torsion twist example (the "flat" and "has torsion" branches)
COMMANDS = {
    "gallery": ["gallery"],
    "check_circle": ["check", "examples_kcx/circle.kcx"],
    "solve_fatpoint": ["solve", "examples_kcx/fatpoint.kcx", "--module", "Omega", "--degree", "3"],
    "curvature_plane": ["curvature", "examples_kcx/plane.kcx"],
    "torsion_plane": ["torsion", "examples_kcx/plane.kcx"],
    "curvature_twist": ["curvature", "examples_kcx/twist.kcx"],
    "torsion_twist": ["torsion", "examples_kcx/twist.kcx"],
    "convert_circle": ["convert", "examples_kcx/circle.kcx"],
    "glue_p1": ["glue", "examples_kcx/p1.kcx", "--degree", "6"],
    "glue_p1_char2": ["glue", "examples_kcx/p1.kcx", "--degree", "6", "--char", "2"],
}

CASES = [
    (f"{stem}{suffix}", argv + flags)
    for stem, argv in COMMANDS.items()
    for suffix, flags in ((".txt", []), (".json", ["--json"]))
]


def render(argv: list[str]) -> str:
    argv = [str(ROOT / a) if a.startswith("examples_kcx/") else a for a in argv]
    code, text = run(argv)
    return f"exit: {code}\n{text}\n"


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv):
    assert render(argv) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in CASES:
        (GOLDEN / name).write_text(render(argv), encoding="utf-8")
