"""Print how many lines of `src/kcx` that carry bytecode the tier-1 suite never
runs, then list them as `path:line`.

    PYTHONPATH=src python tests/coverage_lines.py [pytest arguments]

Needs Python 3.12 or later.  A `sys.monitoring` LINE callback records each
line the first time it runs and then disables itself for that line, so the
suite runs at about its usual speed.  Tier-1 runs in this process through
`pytest.main`; tests that start a subprocess (`python -m kcx`, `python -O`)
are not seen, so a line only they run counts as unrun.  The lines that carry
bytecode are those of every code object compiled from each source file.
Standard library only, besides pytest itself; pytest does not collect this
file.  The exit code is the suite's: there is no threshold.
"""

import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kcx"


def code_lines(path: Path) -> set[int]:
    """Lines of `path` that some instruction of its compiled code sits on."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # line 0 is the module's entry
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def run_suite(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Tier-1's exit code, and the (file, line) pairs that ran under it."""
    monitoring = sys.monitoring
    tool, ran = monitoring.COVERAGE_ID, set()

    def on_line(code, line):
        ran.add((code.co_filename, line))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "kcx coverage_lines")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *args])
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    return int(status), {(os.path.realpath(f), line) for f, line in ran}


def main() -> int:
    if sys.version_info < (3, 12):
        sys.exit("coverage_lines.py needs Python 3.12 or later (sys.monitoring)")
    os.chdir(ROOT)
    status, ran = run_suite(sys.argv[1:])
    total, unrun = 0, []
    for path in sorted(SRC.glob("*.py")):
        lines = code_lines(path)
        total += len(lines)
        name = os.path.realpath(path)
        unrun += [f"{path.relative_to(ROOT)}:{line}" for line in sorted(lines) if (name, line) not in ran]
    print(f"src/kcx lines with bytecode that tier-1 never ran: {len(unrun)} of {total}")
    print("\n".join(unrun))
    return status


if __name__ == "__main__":
    sys.exit(main())
