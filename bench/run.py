#!/usr/bin/env python3
"""Time-to-verdict benchmark for kcx.

    python3 bench/run.py --workload catalog|solve|pipeline --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root.  The engine is imported from `src/`; nothing
needs installing.  One process, one thread, a closed loop: the ops of a
workload run back to back, and a full pass over them is the unit.  Every op's
verdict is checked against its known answer (`workloads.py`).

With `--trace 0` the run measures, with tracing off, every time on the
steady scale of `speed.py` (a reference kernel is timed between every two ops
and ten times a second during each, and each op's time is divided by the
kernel's times around and inside it):

- `setup_s`: median over fresh processes of importing kcx and building the
  op list;
- `cold_pass_s`: a first pass in a fresh process, as the sum over ops of
  each op's median time over the fresh processes;
- `pass_s`: a warm pass, as the sum over ops of each op's median warm time;
- `op_p50_ms`: the median over ops of each op's median warm time;
- `peak_mib`: median over fresh processes of the peak resident set of
  setting up and running one pass.

Warm passes alternate with passes in fresh processes for `--seconds`, and
for at least two rounds.  The host's speed drifts by up to 1.75 times over
seconds to minutes, which moves plain wall times from run to run; the details
line gives the plain wall-time medians too (README.md has the measurements).

With `--trace 1` untraced and traced passes alternate and the per-layer
metrics of `spans.py` are reported, plus the tracing overhead and the
tracemalloc peak of one untimed pass; spans go to `.bench_out/`.

The last line of standard output is the result object; the line before it
holds the details (seed, sample counts, op p90, failures, per-op medians).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_pass_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "peak_mib": "MiB",
}
# per-layer metrics a traced run adds to those of its spans
TRACED_RUN_UNITS = {"trace.overhead_s": "s", "memory.tracemalloc_peak_mib": "MiB"}
MIN_ROUNDS = 2  # a round is one warm pass plus one pass in a fresh process
SETUP_PROBES = 3  # extra fresh processes that only set up
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the p90


class MissingEngine(Exception):
    pass


def load_kcx():
    """Import kcx from this checkout's src/, never from anywhere else."""
    if not (SRC / "kcx" / "__init__.py").is_file():
        raise MissingEngine(f"no kcx sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kcx

    if Path(kcx.__file__).resolve().parent != SRC / "kcx":
        raise MissingEngine(f"kcx was imported from {kcx.__file__}, not {SRC}")
    return kcx


def setup(workload: str) -> float:
    """Import kcx and build the op list; returns the seconds it took."""
    t0 = perf_counter()
    load_kcx()
    workloads.build_ops(workload)
    return perf_counter() - t0


def scaled_setup(workload: str) -> tuple[float, float]:
    """Set up under a `speed.Speedometer`: (scaled seconds, wall seconds)."""
    with speed.Speedometer() as meter:
        dt, busy, factor = meter.run(lambda: setup(workload))
    return (dt - busy) * factor, dt - busy


def scaled_pass(ops: list):
    """Run ops back to back under a `speed.Speedometer`.

    Returns (outcomes, each op's scaled seconds, the kernel timings); each
    outcome's `seconds` is its wall time less the in-op kernel samples.
    """
    gc.collect()  # start each pass from the same collector state
    outcomes, scaled = [], []
    with speed.Speedometer() as meter:
        for op in ops:
            outcome, busy, factor = meter.run(lambda op=op: workloads.run_op(op))
            outcome.seconds -= busy
            outcomes.append(outcome)
            scaled.append(outcome.seconds * factor)
    return outcomes, scaled, meter.samples


def run_pass(ops: list, tracer=None):
    """Run ops back to back: (seconds, outcomes)."""
    gc.collect()  # start each pass from the same collector state
    t0 = perf_counter()
    if tracer is None:
        outcomes = [workloads.run_op(op) for op in ops]
    else:
        outcomes = [tracer.run_op(i, lambda op=op: workloads.run_op(op)) for i, op in enumerate(ops)]
    return perf_counter() - t0, outcomes


class Tally:
    """Ops attempted and failed over a run; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def add(self, outcomes) -> None:
        for o in outcomes:
            self.attempted += 1
            if not o.ok:
                self.failures.append({"op": o.name, "observed": repr(o.observed), "error": o.error})

    def add_counts(self, attempted: int, failures: list[dict]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _probe(kind: str, workload: str, seed: int) -> dict:
    """Run this script as a fresh process in probe mode and read its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} probe failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_main(kind: str, workload: str, seed: int) -> dict:
    """One fresh process: set up, then for `pass` and `heap` run one pass.

    `pass` times the pass and reads the process's peak resident set; `heap`
    traces Python allocations with tracemalloc from before kcx is imported
    and is never timed.
    """
    if kind == "heap":
        tracemalloc.start()
        setup(workload)
        tally = Tally()
        _, outcomes = run_pass(workloads.fresh_pass(workload, random.Random(seed)))
        tally.add(outcomes)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        return {"attempted": tally.attempted, "failures": tally.failures, "heap_peak_mib": peak}
    speed.warm_up()
    setup_s, setup_wall_s = scaled_setup(workload)
    out = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if kind == "setup":
        return out
    tally = Tally()
    outcomes, scaled, refs = scaled_pass(workloads.fresh_pass(workload, random.Random(seed)))
    tally.add(outcomes)
    out.update(
        attempted=tally.attempted,
        failures=tally.failures,
        op_s={o.name: t for o, t in zip(outcomes, scaled)},
        pass_wall_s=sum(o.seconds for o in outcomes),
        refs=refs,
        max_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**10,
    )
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _add_ops(samples: dict[str, list[float]], op_seconds) -> None:
    for name, seconds in op_seconds:
        samples.setdefault(name, []).append(seconds)


def _op_medians(samples: dict[str, list[float]]) -> list[float]:
    return [statistics.median(times) for times in samples.values()]


def measure(workload: str, seed: int, seconds: float,
            min_rounds: int = MIN_ROUNDS, setup_probes: int = SETUP_PROBES):
    """The end-to-end run: returns (metrics, details, tally)."""
    rng = random.Random(seed)
    tally = Tally()
    speed.warm_up()
    setup_s, setup_wall_s = scaled_setup(workload)
    setups, setups_wall = [setup_s], [setup_wall_s]
    outcomes, scaled, refs = scaled_pass(workloads.fresh_pass(workload, rng))
    tally.add(outcomes)
    cold_wall = [sum(o.seconds for o in outcomes)]
    cold_ops: dict[str, list[float]] = {}
    _add_ops(cold_ops, ((o.name, t) for o, t in zip(outcomes, scaled)))
    all_refs = list(refs)

    peaks: list[float] = []
    warm_wall: list[float] = []
    warm_ops: dict[str, list[float]] = {}
    # Warm passes alternate with fresh-process passes for `seconds`, so that
    # a slow spell of a shared machine falls on few samples of either kind.
    t_start = perf_counter()
    while True:
        outcomes, scaled, refs = scaled_pass(workloads.fresh_pass(workload, rng))
        tally.add(outcomes)
        warm_wall.append(sum(o.seconds for o in outcomes))
        _add_ops(warm_ops, ((o.name, t) for o, t in zip(outcomes, scaled)))
        all_refs += refs
        probe = _probe("pass", workload, seed)
        tally.add_counts(probe["attempted"], probe["failures"])
        setups.append(probe["setup_s"])
        setups_wall.append(probe["setup_wall_s"])
        cold_wall.append(probe["pass_wall_s"])
        _add_ops(cold_ops, probe["op_s"].items())
        all_refs += probe["refs"]
        peaks.append(probe["max_rss_mib"])
        rounds = len(warm_wall)
        elapsed = perf_counter() - t_start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    for _ in range(setup_probes):
        probe = _probe("setup", workload, seed)
        setups.append(probe["setup_s"])
        setups_wall.append(probe["setup_wall_s"])

    op_medians = _op_medians(warm_ops)
    values = {
        "setup_s": statistics.median(setups),
        "cold_pass_s": sum(_op_medians(cold_ops)),
        "pass_s": sum(op_medians),
        "op_p50_ms": statistics.median(op_medians) * 1e3,
        "peak_mib": statistics.median(peaks),
    }
    metrics = {k: _metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
    op_ms = [t * 1e3 for times in warm_ops.values() for t in times]
    details = {
        "samples": {"setup_s": len(setups), "cold_pass_s": len(cold_wall),
                    "pass_s": len(warm_wall), "op": len(op_ms), "peak_mib": len(peaks),
                    "ref_s": len(all_refs)},
        "ref_median_s": statistics.median(all_refs),
        "wall_median_setup_s": statistics.median(setups_wall),
        "wall_median_cold_pass_s": statistics.median(cold_wall),
        "wall_median_pass_s": statistics.median(warm_wall),
        "op_p90_ms": None,
        "op_median_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(warm_ops.items())},
    }
    if len(op_ms) >= P90_MIN_SAMPLES:
        details["op_p90_ms"] = statistics.quantiles(op_ms, n=10)[-1]
    else:
        details["op_p90_note"] = (
            f"omitted: {len(op_ms)} op samples, fewer than {P90_MIN_SAMPLES}"
        )
    return metrics, details, tally


def measure_traced(workload: str, seed: int, seconds: float):
    """Alternate untraced and traced passes; returns (metrics, details, tally)."""
    import spans

    rng = random.Random(seed)
    tally = Tally()
    setup(workload)
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    spans_by_pass: list[list] = []
    names_by_pass: list[list[str]] = []
    tracer = spans.Tracer()
    t_start = perf_counter()
    while True:
        dt, outcomes = run_pass(workloads.fresh_pass(workload, rng))
        plain.append(dt)
        tally.add(outcomes)
        ops = workloads.fresh_pass(workload, rng)
        with tracer:
            dt, outcomes = run_pass(ops, tracer)
        traced.append(dt)
        tally.add(outcomes)
        recs = tracer.take()
        layers.append(spans.layer_metrics(recs))
        spans_by_pass.append(recs)
        names_by_pass.append([op.name for op in ops])
        if perf_counter() - t_start + statistics.median(plain) + statistics.median(traced) > seconds:
            break

    heap = _probe("heap", workload, seed)
    tally.add_counts(heap["attempted"], heap["failures"])
    metrics = {k: _metric(statistics.median(layer[k] for layer in layers), u)
               for k, u in spans.per_layer_units().items()}
    metrics["trace.overhead_s"] = _metric(
        statistics.median(traced) - statistics.median(plain), "s")
    metrics["memory.tracemalloc_peak_mib"] = _metric(heap["heap_peak_mib"], "MiB")
    solves = [
        {**s, "op": names_by_pass[0][s["op"]]} for s in spans.solve_space_shapes(spans_by_pass[0])
    ]
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    spans.write_spans(path, spans_by_pass, names_by_pass, {"workload": workload, "seed": seed})
    details = {
        "samples": {"untraced_passes": len(plain), "traced_passes": len(traced)},
        "untraced_pass_s": statistics.median(plain),
        "traced_pass_s": statistics.median(traced),
        "solve_spaces": solves,
        "spans_file": str(path.relative_to(ROOT)),
    }
    return metrics, details, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's self-tests")
    parser.add_argument("--probe", choices=("setup", "pass", "heap"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.smoke:
            import selftest

            return selftest.main()
        if args.workload is None:
            parser.error("--workload is required")
        if args.probe:
            print(json.dumps(probe_main(args.probe, args.workload, args.seed)))
            return 0
        run = measure_traced if args.trace else measure
        metrics, details, tally = run(args.workload, args.seed, args.seconds)
    except MissingEngine as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "why": workloads.WHY[args.workload],
        "trace": args.trace,
        "fail_ratio": tally.failed / tally.attempted,
        "failures": tally.failures,
        **details,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
