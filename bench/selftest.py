"""Self-tests of the benchmark, run by `python3 bench/run.py --smoke`.

One short pass per workload checks that:

- every metric named in BENCHMARK.json is emitted, with its unit;
- every op gives its known verdict, every op's check fails when it expects
  a wrong answer, and a wrong expected value or an exception counts as a
  failed op;
- after a traced pass every kcx function and method is the original object;
- after a timed run the speed timer is stopped and its handler restored;
- with only BENCHMARK.json and the benchmark's files present, the run exits
  nonzero without printing a result.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys

import run
import spans
import workloads


def _perturbed(value):
    """A wrong answer of the same shape as a known one."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple):
        return (_perturbed(value[0]), *value[1:])
    return f"not {value}"


def _snapshot() -> dict:
    """Identity of every attribute of every kcx module and the traced classes."""
    out = {}
    for mod in spans.kcx_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, f"{key}.{attr}")] = member
    return out


def _check_units(emitted: dict, declared: list[dict]) -> list[str]:
    problems = []
    want = {m["name"]: m["unit"] for m in declared}
    if set(emitted) != set(want):
        problems.append(f"names differ: extra {sorted(set(emitted) - set(want))},"
                        f" missing {sorted(set(want) - set(emitted))}")
    for name, metric in emitted.items():
        if name in want and metric["unit"] != want[name]:
            problems.append(f"{name}: unit {metric['unit']!r}, declared {want[name]!r}")
    return problems


def check_layers_and_verdicts(declared: dict, report) -> None:
    """One traced pass per workload, each op expecting a wrong answer."""
    before = _snapshot()
    tracer = spans.Tracer()
    for workload in workloads.WORKLOADS:
        ops = workloads.fresh_pass(workload, random.Random(0))
        truth = {op.name: op.expected for op in ops}
        for op in ops:
            op.expected = _perturbed(op.expected)
        with tracer:
            _, outcomes = run.run_pass(ops, tracer)
        layers = spans.layer_metrics(tracer.take())
        units = {**spans.per_layer_units(), **run.TRACED_RUN_UNITS}
        emitted = {k: {"unit": units[k]} for k in [*layers, *run.TRACED_RUN_UNITS]}
        report(f"{workload}: per-layer metrics match BENCHMARK.json",
               _check_units(emitted, declared["per_layer"]))
        wrong = [f"{o.name}: {o.observed!r} {o.error}" for o in outcomes
                 if o.error or o.observed != truth[o.name]]
        report(f"{workload}: all {len(outcomes)} ops give their known verdict", wrong)
        silent = [o.name for o in outcomes if o.ok]
        report(f"{workload}: every verdict check rejects a wrong expected value", silent)
    changed = [k for k, v in _snapshot().items() if before.get(k, v) is not v]
    report("kcx attributes are the original objects after tracing", changed)


def check_failure_counting(report) -> None:
    op = workloads.build_ops("catalog")[0]
    wrong = workloads.Op(op.name, op.run, _perturbed(op.expected))

    def boom():
        raise RuntimeError("deliberate")

    raising = workloads.Op("raises", boom, "never")
    tally = run.Tally()
    tally.add([workloads.run_op(op), workloads.run_op(wrong), workloads.run_op(raising)])
    problems = [] if (tally.attempted, tally.failed) == (3, 2) else [
        f"attempted {tally.attempted}, failed {tally.failed}; expected 3 and 2"]
    report("a wrong expected value and an exception each count as a failure", problems)


def check_end_to_end(declared: dict, report) -> None:
    handler = signal.getsignal(signal.SIGALRM)
    metrics, details, tally = run.measure("catalog", seed=0, seconds=0, min_rounds=1, setup_probes=1)
    problems = _check_units(metrics, declared["end_to_end"])
    problems += [f"{k} is {m['value']}" for k, m in metrics.items() if not m["value"] > 0]
    problems += [f"{tally.failed} failed ops"] if tally.failed else []
    report("end-to-end metrics match BENCHMARK.json and are positive", problems)
    problems = [] if signal.getsignal(signal.SIGALRM) is handler else ["SIGALRM handler not restored"]
    problems += [] if signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0) else ["timer still armed"]
    report("the speed timer is stopped and its signal handler restored", problems)


def check_bare_directory(report) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0")
    if '"correct"' in proc.stdout:
        problems.append("printed a result")
    report("without the engine's sources the run fails and prints no result", problems)


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.load_kcx()
    failures = 0

    def report(name: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"[{'FAIL' if problems else 'PASS'}] {name}")
        for p in problems:
            print(f"    {p}")

    workloads_declared = {w["name"]: w["why"] for w in declared["workloads"]}
    report("BENCHMARK.json lists the workloads and their reasons",
           [] if workloads_declared == workloads.WHY else ["workloads or reasons differ"])
    check_failure_counting(report)
    check_layers_and_verdicts(declared, report)
    check_end_to_end(declared, report)
    check_bare_directory(report)
    print(f"{failures} self-test(s) failed" if failures else "all self-tests passed")
    return 1 if failures else 0
