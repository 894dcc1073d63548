"""Every run of `tests/cli_matrix.py` against its stored digest line: each
example file and each definition file kept with the goldens under every
command, characteristic and output format, and the gallery, with the exit
code and the sha256 of the output text."""

from pathlib import Path

from cli_matrix import digest_line, matrix

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cli_matrix.txt"


def test_cli_matrix_matches_golden(monkeypatch):
    monkeypatch.chdir(ROOT)  # the matrix names the example files relative to the root
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    argvs = matrix()
    assert len(argvs) == len(expected) == 290
    for argv, line in zip(argvs, expected):
        assert digest_line(argv) == line
