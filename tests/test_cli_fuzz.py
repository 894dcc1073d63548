"""Seeded mutation test of the command line on the example files.

Each mutant of an `examples_kcx/` file swaps one or two identifiers for another
identifier of the file or a fresh name, or inserts or deletes one token.  Every
command that reads a file runs on it: the exit code is 0, 1 or 2, an exit 2
prints an `error: ` line, and no exception escapes.  A mutant that parses
renders to text that parses back to the same rendering.
"""

import random
import re
from pathlib import Path

import pytest

from kcx.cli import run
from kcx.errors import KcxError
from kcx.workspace import parse_workspace, render_workspace

FILES = Path(__file__).parent.parent / "examples_kcx"
TOKEN = re.compile(r"#[^\n]*|[A-Za-z_]\w*|\d+|\S")
COMMANDS = [
    ["check"],
    ["curvature"],
    ["torsion"],
    ["convert"],
    ["solve", "--module", "Omega", "--degree", "1"],
    ["glue", "--degree", "1"],
]
MUTANTS_PER_FILE = 40


def mutate(text: str, rng: random.Random) -> str:
    tokens = [m for m in TOKEN.finditer(text) if not m.group().startswith("#")]
    idents = [m for m in tokens if m.group().isidentifier()]
    kind = rng.choice(["swap", "insert", "delete"])
    if kind == "swap":
        names = sorted({m.group() for m in idents}) + ["zz"]
        edits = [(m.start(), m.end(), rng.choice(names)) for m in rng.sample(idents, rng.randint(1, 2))]
    elif kind == "insert":
        at = rng.choice(tokens).start()
        edits = [(at, at, rng.choice(tokens).group() + " ")]
    else:
        m = rng.choice(tokens)
        edits = [(m.start(), m.end(), "")]
    for start, end, new in sorted(edits, reverse=True):
        text = text[:start] + new + text[end:]
    return text


def test_mutated_examples_keep_the_cli_contract(tmp_path):
    rng = random.Random(15)
    for source in sorted(FILES.glob("*.kcx")):
        original = source.read_text()
        for i in range(MUTANTS_PER_FILE):
            text = mutate(original, rng)
            path = tmp_path / f"{source.stem}{i}.kcx"
            path.write_text(text)
            for command in COMMANDS:
                try:
                    code, out = run([command[0], str(path), *command[1:]])
                except Exception as exc:  # noqa: BLE001 - any escape is the failure
                    pytest.fail(f"{command[0]} raised {exc!r} on:\n{text}")
                assert code in (0, 1, 2), (command, text)
                assert code != 2 or out.startswith("error: "), (command, out, text)
            try:
                rendered = render_workspace(parse_workspace(text))
            except KcxError:
                continue
            assert render_workspace(parse_workspace(rendered)) == rendered, text
