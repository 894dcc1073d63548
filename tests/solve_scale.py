"""Print the time and memory of connection-space verdicts past the solver's
unknown limit, on unit spheres over QQ.

    PYTHONPATH=src python tests/solve_scale.py

For S^3 at degrees 5, 7 and 9 and S^4 at degree 4 (4,184, 8,940, 16,336 and
10,725 unknowns), each line gives the unknowns, the dimension of the solution
space, the seconds `solve_connection_space(kahler_module(S^n), degree)` takes
and the `tracemalloc` peak of that call, which also slows it.  The limit
`kcx.solve.MAX_UNKNOWNS` is raised inside this process only, so that those
solves run.  Standard library only; pytest does not collect this file.  It
writes nothing, and there is no threshold: CI prints the lines.
"""

import tracemalloc
from time import perf_counter

import kcx.solve
from kcx import QQ, kahler_module, make_algebra, solve_connection_space

CASES = [(3, 5), (3, 7), (3, 9), (4, 4)]  # (n of S^n, degree bound)


def sphere(n: int):
    """S^n as the unit sphere in n + 1 variables over QQ."""
    xs = tuple(f"x{i}" for i in range(1, n + 2))
    return make_algebra(QQ, xs, [" + ".join(f"{x}^2" for x in xs) + " - 1"])


def main() -> None:
    kcx.solve.MAX_UNKNOWNS = 20_000
    print("case        unknowns  dimension  verdict_s  peak_MiB")
    for n, degree in CASES:
        omega = kahler_module(sphere(n))
        tracemalloc.start()
        try:
            t0 = perf_counter()
            space = solve_connection_space(omega, degree)
            dimension = space.dimension
            seconds = perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        case = f"S^{n} deg {degree}"
        print(f"{case:<11} {len(space.unknowns):>8}  {dimension:>9}  {seconds:>9.2f}  {peak / 2**20:>8.1f}")


if __name__ == "__main__":
    main()
