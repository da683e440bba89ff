"""Smoke test of the benchmark itself, at small sizes (about a minute).

    python3 bench/smoke_test.py

Checks that `BENCHMARK.json` matches `bench/spec.py`, that the speed probe
converts wall time as documented, that short runs print every metric by
name and unit, that tampered program outputs raise `fail_ratio`, and that
the benchmark refuses to run without `src/`.
`certify-full` is not run here (one certificate takes about 30 s); its
output check is tested on a synthetic report.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def tampered_run(workload: str, patch: str) -> dict:
    """Run a workload in a fresh interpreter after `patch` altered the program."""
    code = textwrap.dedent(
        f"""
        import json, sys
        sys.path.insert(0, {str(BENCH)!r})
        import worker
        modules = {{m.__name__: m for m in worker.import_program()}}
        va = modules["quartic15.varieties"]
        {patch}
        print(json.dumps(worker.run({workload!r}, seed=1, seconds=1, trace=False)))
        """
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_spec(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            self.assertEqual(json.load(fh), spec.benchmark_json())


class ProbeTest(unittest.TestCase):
    def test_reference_time_drops_handler_time_and_scales(self):
        p = probe.Probe()
        # a chunk every 10 ms, each twice the reference time, each handler 1 ms
        p.starts = [i * 0.01 for i in range(101)]
        p.chunk_s = [2 * probe.REFERENCE_CHUNK_S] * 101
        p.handler_s = [0.001] * 101
        # 0.5 s of wall time holds 50 handlers: 0.45 s of program time, halved
        self.assertAlmostEqual(p.reference_s(0.005, 0.505), 0.225)
        # an interval between two chunks takes the speed of its neighbours
        p.chunk_s[30] = 4 * probe.REFERENCE_CHUNK_S
        self.assertAlmostEqual(p.reference_s(0.3052, 0.3058), 0.0006 / 3)

    def test_probe_samples_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with probe.Probe() as p:
            start = probe.clock()
            while probe.clock() - start < 0.2:
                sum(range(1000))
            end = probe.clock()
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertGreater(p.summary()["ticks"], 2 * probe.BRACKET_CHUNKS + 5)
        self.assertGreater(p.reference_s(start, end), 0)


class PrintedMetricsTest(unittest.TestCase):
    def check_run(self, workload: str, trace: int):
        proc = run_bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        table = spec.PER_LAYER if trace else spec.END_TO_END
        self.assertEqual(
            {n: m["unit"] for n, m in result["metrics"].items()}, {row[0]: row[1] for row in table}
        )
        for name, unit, *_ in table:
            self.assertTrue(
                any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines),
                f"{name} [{unit}] not printed",
            )
        self.assertTrue(any(line.split()[:1] == ["fail_ratio"] for line in lines))
        detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
        if trace:
            self.assertEqual(detail["missing_functions"], [])
            self.assertEqual(detail["digest"], detail["traced_digest"])
        return result

    def test_sections(self):
        self.assertGreater(self.check_run("sections", 0)["metrics"]["run_s"]["value"], 0)

    def test_sections_traced(self):
        metrics = self.check_run("sections", 1)["metrics"]
        self.assertGreater(metrics["exact.fp_evals"]["value"], 0)
        self.assertEqual(metrics["lattice.pair_calls"]["value"], 0)

    def test_sampling(self):
        self.check_run("sampling", 0)

    def test_sampling_traced(self):
        metrics = self.check_run("sampling", 1)["metrics"]
        self.assertGreater(metrics["exact.linsolve_calls"]["value"], 0)
        self.assertGreater(metrics["varieties.sample_yield"]["value"], 0)


class TamperTest(unittest.TestCase):
    def test_dropped_scan_point_fails(self):
        result = tampered_run(
            "sections",
            "scan = va.singular_scan_fp; va.singular_scan_fp = lambda t, p: scan(t, p)[1:]",
        )
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_wrong_duality_image_fails(self):
        result = tampered_run(
            "sampling",
            "va.duality_image = lambda z: va.DualityImage(z, va.ProjectivePoint([1, -1, 0, 0, 0, 0]), 0)",
        )
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def certificate(self, red_status="fail", red_points=13, drop=0):
        checks = [{"id": f"check-{i}", "status": "pass"} for i in range(worker.CERTIFICATE_CHECKS - 1)]
        checks.append({"id": worker.RED_CHECK, "status": red_status})
        capture = SimpleNamespace(
            scans=[(11, "section", [(0, 0, 0, 1)] * red_points)],
            reflections=[worker.PENTAD_REFLECTIONS],
        )
        outcomes = worker.certificate_outcomes(1, checks[drop:], capture)
        return [what for what, ok in outcomes if not ok]

    def test_certificate_with_red_check(self):
        self.assertEqual(self.certificate(), [])

    def test_certificate_red_check_must_stay_red(self):
        self.assertTrue(self.certificate(red_status="pass"))
        self.assertTrue(self.certificate(red_points=15))
        self.assertTrue(self.certificate(drop=1))

    def test_run_without_checks_is_an_error(self):
        cli = SimpleNamespace(run=lambda argv, out: (0, SimpleNamespace(checks=[])))
        with self.assertRaises(RuntimeError):
            worker.call_cli(cli, ["verify", "--all"])


class MissingProgramTest(unittest.TestCase):
    def test_refuses_without_src(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "sections", "--seconds", "1", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
