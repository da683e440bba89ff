"""Benchmark of the quartic15 certification suite.

    python3 bench/run.py --workload certify-full|sections|sampling|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each run compiles `src/` to bytecode, then
runs the workload in a fresh interpreter (`bench/worker.py`), and times the
import of every `quartic15` module in twelve more fresh interpreters, six
before and six after it (`setup_s`).  Times are in reference seconds
(`bench/probe.py`).  With `--trace 0` it prints the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run, which it compares against
an untraced run of the same inputs, each of half the length.  Every line
before the last is for people; the last line is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from probe import REFERENCE_CHUNK_S, bracket  # noqa: E402  (bench/ is on sys.path)
from spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 12
RUN_LIMIT_S = 170  # every run of one workload ends within this, or fails

IMPORT_ALL = (
    "import importlib, pkgutil, sys\n"
    "sys.path.insert(0, {src!r})\n"
    "import quartic15\n"
    "for m in pkgutil.iter_modules(quartic15.__path__):\n"
    "    importlib.import_module('quartic15.' + m.name)\n"
    "print('ready', flush=True)\n"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"the run took over {RUN_LIMIT_S} s")
    return left


def time_setup(deadline: float) -> tuple[float, float]:
    """Time from starting an interpreter until every quartic15 module is
    imported, in reference seconds (machine speed probed just before and
    after) and in wall seconds."""
    code = IMPORT_ALL.format(src=str(SRC))
    before = bracket()
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if proc.wait(timeout=time_left(deadline)) != 0 or line.strip() != "ready":
            raise BenchError(f"importing quartic15 failed (exit {proc.returncode})")
    speed = (before + bracket()) / 2
    return elapsed * REFERENCE_CHUNK_S / speed, elapsed


def run_worker(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=time_left(deadline))
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{workload} worker ran past the {RUN_LIMIT_S} s limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrate_ms() -> float:
    """A fixed pure-Python workload (Fractions, ints, dicts), median of 5, so
    that a change of machine speed between two sets of runs shows."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 20001):
            acc = (acc + Fraction(i % 97, i % 89 + 1)) % 1000
            table[i % 1009] = table.get(i % 1009, 0) + i * i % 7
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_revision": git_revision(),
        "seed": seed,
        "calibration_ms": calibrate_ms(),
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Metrics of one run, with the outcome counts and a detail record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:  # an untraced and a traced run of the same inputs, which must agree
        plain = run_worker(workload, seed, seconds / 2, False, deadline)
        traced = run_worker(workload, seed, seconds / 2, True, deadline)
        digests = sorted({plain["digest"], traced["digest"]})
        differ = [f"digests differ: {digests}"] if len(digests) > 1 else []
        return {
            "attempted": plain["attempted"] + traced["attempted"] + 1,
            "failed": plain["failed"] + traced["failed"] + len(differ),
            "failures": plain["failures"] + traced["failures"] + differ,
            "metrics": traced["layers"] | {"trace.overhead_ratio": traced["run_s"] / plain["run_s"]},
            "detail": {
                "digest": plain["digest"],
                "traced_digest": traced["digest"],
                "untraced_run_s": plain["run_s"],
                "traced_run_s": traced["run_s"],
                "missing_functions": traced["missing_functions"],
            },
        }
    half = SETUP_REPEATS // 2
    setup = [time_setup(deadline) for _ in range(half)]
    run = run_worker(workload, seed, seconds, False, deadline)
    setup += [time_setup(deadline) for _ in range(SETUP_REPEATS - half)]
    latencies = run["latencies_ms"]
    return {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "metrics": {
            "setup_s": statistics.median(ref for ref, _ in setup),
            "run_s": run["run_s"],
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": percentile(latencies, 90),
            "peak_rss_mb": run["peak_rss_mb"],
        },
        "detail": {
            "ops": len(latencies),
            "wall_run_s": run["wall_run_s"],
            "wall_setup_s": statistics.median(wall for _, wall in setup),
            "probe": run["probe"],
            "digest": run["digest"],
        },
    }


def report(workload: str, args) -> None:
    env = environment(args.seed)
    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    metrics, attempted, failed = run["metrics"], run["attempted"], run["failed"]
    units = {row[0]: row[1] for row in (PER_LAYER if args.trace else END_TO_END)}
    if set(metrics) != set(units):
        raise BenchError(f"metric names differ from bench/spec.py: {sorted(set(metrics) ^ set(units))}")
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]:>14.6g} {unit}")
    print(f"  {'fail_ratio':44s} {failed / attempted:>14.6g} ({failed} of {attempted} outcomes)")
    for what in run["failures"]:
        print(f"  FAILED: {what}")
    print("detail " + json.dumps({"workload": workload, "environment": env} | run["detail"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    names = [n for n, _ in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quartic15" / "__init__.py").is_file():
        print(f"error: {SRC / 'quartic15'} not found; run from a quartic15 checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            report(workload, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
