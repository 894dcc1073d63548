"""Print how many lines of `src/kcx` that carry bytecode the program's own
traffic never runs, then list them as `path:line`.

    PYTHONPATH=src python tests/traffic_lines.py

The traffic is, in this one process: every run of the CLI matrix
(`tests/cli_matrix.py`), each demo under `runpy`, and one pass of each
benchmark workload with seed 0 (`bench/workloads.fresh_pass`, each op through
`run_op`, whose verdict must be the expected one).  A line this lists runs
only under tier-1, or never: a guard, a failure report, or code that nothing
but a test reaches.  Needs Python 3.12 or later, for the `sys.monitoring`
hook of `tests/coverage_lines.py`, which also counts the lines.  It reads
`bench/` and writes nothing there.  Standard library only; pytest does not
collect this file.  There is no threshold: the exit code is 1 only when an
op's verdict is wrong.
"""

import contextlib
import io
import os
import random
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "bench")]

from coverage_lines import record_lines, report_unrun  # noqa: E402


def traffic() -> list[str]:
    """Run the matrix, the demos and one pass of each workload; return the
    ops whose verdict was wrong, each with what it gave.  kcx is first
    imported here, so its module-level lines count as run."""
    import cli_matrix
    import workloads

    with contextlib.redirect_stdout(io.StringIO()):
        for argv in cli_matrix.matrix():
            cli_matrix.digest_line(argv)
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    wrong = []
    for workload in workloads.WORKLOADS:
        for op in workloads.fresh_pass(workload, random.Random(0)):
            outcome = workloads.run_op(op)
            if not outcome.ok:
                wrong.append(f"{workload}: {op.name} gave {outcome.observed!r} {outcome.error}")
    return wrong


def main() -> int:
    if sys.version_info < (3, 12):
        sys.exit("traffic_lines.py needs Python 3.12 or later (sys.monitoring)")
    os.chdir(ROOT)
    wrong, ran = record_lines(traffic)
    report_unrun(ran, "the CLI matrix, the demos and the workloads")
    for line in wrong:
        print(f"wrong verdict: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
