"""A reference kernel that puts op times on a steady scale.

On a shared host the same code runs up to 1.75 times slower at some moments
than at others, and the speed switches within seconds, in the middle of an op.
Every op slows by about the same factor as a short pure-Python kernel timed at
the same moments.  So a `Speedometer` times the kernel between every two ops
and, from a timer signal, every `SAMPLE_EVERY_S` seconds during an op.  An op's
time, less the time its in-op samples took, multiplied by `REF_S` and by the
mean of 1 / (kernel time) over the samples from just before to just after it,
is the op's time on a machine as fast as the one the bounds were set on,
whatever the host did meanwhile.

The kernel is pure Python in the style of kcx's kernel: a sparse polynomial
product with `Fraction` coefficients and tuple exponents, then a sort of the
result by a graded key.  It uses nothing from kcx, so a change to kcx cannot
move it.
"""

from __future__ import annotations

import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Seconds one kernel call takes on a quiet 2-vCPU Xeon at 2.0 GHz.
REF_S = 0.0025
SAMPLE_EVERY_S = 0.1
BRACKET_CALLS = 3  # kernel calls between two ops
WARMUP_CALLS = 10


def _poly(rng: random.Random) -> dict[tuple[int, int, int], Fraction]:
    return {
        (rng.randrange(4), rng.randrange(4), rng.randrange(4)):
            Fraction(rng.randrange(1, 50), rng.randrange(1, 9))
        for _ in range(30)
    }


_RNG = random.Random(7)
_A = _poly(_RNG)
_B = _poly(_RNG)


def _graded(e: tuple[int, int, int]):
    return (sum(e), tuple(-x for x in reversed(e)))


def kernel() -> list:
    out: dict[tuple[int, int, int], Fraction] = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return sorted(out, key=_graded)


def ref_time() -> float:
    """Seconds one kernel call takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def warm_up() -> None:
    for _ in range(WARMUP_CALLS):
        kernel()


class Speedometer:
    """Kernel timings around and inside the calls made through `run`.

    Use as a context manager: it installs the timer signal on entry and
    restores the previous handler on exit.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0  # seconds the timer's samples took
        self._sampling = False
        self._previous = None

    def _bracket(self) -> None:
        self._sampling = True
        self.samples += [ref_time() for _ in range(BRACKET_CALLS)]
        self._sampling = False

    def _on_timer(self, signum, frame) -> None:
        if self._sampling:
            return
        self._sampling = True
        t0 = perf_counter()
        self.samples.append(ref_time())
        self.busy += perf_counter() - t0
        self._sampling = False

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._bracket()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, fn):
        """Call `fn`: (its value, seconds of in-op samples, seconds-to-scale factor).

        The caller subtracts the in-op sample time from the time it measured
        and multiplies the rest by the factor.
        """
        first = len(self.samples) - BRACKET_CALLS
        busy0 = self.busy
        value = fn()
        busy = self.busy - busy0
        self._bracket()
        factor = REF_S * statistics.fmean(1 / r for r in self.samples[first:])
        return value, busy, factor
