"""Print how much engine work one warm pass of each benchmark workload does.

    PYTHONPATH=src python tests/work_counts.py

For each workload (`bench/workloads.py`) it runs one pass with seed 1, then
counts, during one pass with seed 2, the calls of:

- `groebner.ModuleBasis._vector`: dense module vectors built;
- `groebner._reduce`: sparse normal-form reductions;
- `groebner._groebner`: Groebner bases built, ideal and module;
- `algebra.AlgebraMorphism.certify`: certifications;
- `algebra.AlgebraMorphism.certificate`: full certificates (a `certify` that
  makes none settled its map by reading).

The counting wrappers live in this process alone and are taken off after
the pass.  The counts are exact and do not depend on the hash seed.  It
reads `bench/` and writes nothing.  Standard library only; pytest does not
collect this file.  There is no threshold: the exit code is 1 only when an
op's verdict is wrong.
"""

import random
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench")]

from kcx import algebra, groebner  # noqa: E402

import workloads  # noqa: E402

# (label, owner, attribute) of each counted callable, in print order
COUNTED = (
    ("dense vectors", groebner.ModuleBasis, "_vector"),
    ("_reduce calls", groebner, "_reduce"),
    ("Groebner bases", groebner, "_groebner"),
    ("certifications", algebra.AlgebraMorphism, "certify"),
    ("certificates", algebra.AlgebraMorphism, "certificate"),
)


def _counted(counts: Counter, label: str, original):
    def counted(*args, **kwargs):
        counts[label] += 1
        return original(*args, **kwargs)

    return counted


@contextmanager
def counting():
    """Count the calls of each `COUNTED` callable until the block ends."""
    counts: Counter = Counter()
    originals = {(owner, name): getattr(owner, name) for _, owner, name in COUNTED}
    for label, owner, name in COUNTED:
        setattr(owner, name, _counted(counts, label, originals[owner, name]))
    try:
        yield counts
    finally:
        for (owner, name), original in originals.items():
            setattr(owner, name, original)


def run_pass(workload: str, seed: int) -> list[str]:
    """One pass of `workload`; the ops whose verdict was wrong, each with what it gave."""
    wrong = []
    for op in workloads.fresh_pass(workload, random.Random(seed)):
        outcome = workloads.run_op(op)
        if not outcome.ok:
            wrong.append(f"{workload}: {op.name} gave {outcome.observed!r} {outcome.error}")
    return wrong


def main() -> int:
    wrong = []
    for workload in workloads.WORKLOADS:
        wrong += run_pass(workload, 1)
        with counting() as counts:
            wrong += run_pass(workload, 2)
        print(f"{workload}: " + ", ".join(f"{counts[label]} {label}" for label, _, _ in COUNTED))
    for line in wrong:
        print(f"wrong verdict: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
