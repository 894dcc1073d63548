"""Print one digest line per run of `kcx.cli.run` over a fixed matrix.

The matrix is every file in `examples_kcx/`, then the definition files of
`GOLDEN_FILES`, under check, solve (on the module Omega), curvature, torsion,
convert and glue, each with no --char, --char 2 and --char 3, as text and with
--json, then `gallery` as text and with --json: 290 runs.  Each line is the
argv, the exit code and the sha256 of the output text, so two trees print
the same lines exactly when every run gives the same bytes and the same exit
code.  Run it from the root of each tree and diff the two outputs:

    PYTHONPATH=src python tests/cli_matrix.py > matrix.txt

The kcx that PYTHONPATH finds is the one measured, and the example paths are
read from the working directory, so the same file also checks a tree that
does not have it.  Standard library only; pytest does not collect it, but
`tests/test_cli_matrix.py` compares its lines with `tests/golden/cli_matrix.txt`
(regenerate that file with the command above after an intended output change).
"""

import hashlib
from pathlib import Path

from kcx.cli import run

COMMANDS = [
    ["check"],
    ["solve", "--module", "Omega"],
    ["curvature"],
    ["torsion"],
    ["convert"],
    ["glue"],
]
CHARS = [[], ["--char", "2"], ["--char", "3"]]
OUTPUTS = [[], ["--json"]]
# definition files kept with the goldens: a connection that fails
# well-definedness, chart connections that do not glue over QQ, and a gluing
# whose inverse check meets the substitution bound (the `render_*.kcx` files
# there are rendering goldens, not inputs)
GOLDEN_FILES = [
    "tests/golden/circle_naive.kcx",
    "tests/golden/p1_zero_connections.kcx",
    "tests/golden/glue_expansion.kcx",
]


def matrix() -> list[list[str]]:
    files = sorted(str(p) for p in Path("examples_kcx").glob("*.kcx")) + GOLDEN_FILES
    argvs = [
        [command[0], path, *command[1:], *char, *out]
        for path in files
        for command in COMMANDS
        for char in CHARS
        for out in OUTPUTS
    ]
    return argvs + [["gallery", *out] for out in OUTPUTS]


def digest_line(argv: list[str]) -> str:
    code, text = run(argv)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"{' '.join(argv)}\t{code}\t{digest}"


def main() -> None:
    for argv in matrix():
        print(digest_line(argv))


if __name__ == "__main__":
    main()
