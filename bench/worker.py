"""One run of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Imports the program from `src/`, makes the workload's inputs from the seed,
drives the CLI through `quartic15.cli.run` as a closed loop with one caller,
checks every output, and prints one JSON line: run time and per-operation
latencies in reference seconds (`probe.py`), raw wall time, checked
outcomes, a digest of the mathematical results, peak RSS and, with
`--trace 1`, the per-layer metrics.  `bench/run.py` starts it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import pkgutil
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from probe import Probe
from spec import MODULES, TIMED_CHECKS
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

# Nominal cost of one operation on a 2-core x86 VM; `--seconds` is
# turned into an operation count with it, so that a run's inputs depend on
# the seed and the length only, never on the speed of the machine.
SECTION_OP_S = 0.8
SAMPLE_OP_S = 0.012

# Scan primes of the sections in one run, cycled.  Scan cost grows like p^3,
# so every run gets the same mix (about the mix of random hyperplanes with
# |c| <= 30: 53% p=23, 28% p=29, 14% p=31, 4% p=37) and run time does not
# depend on how many expensive primes a seed happens to draw.
SCAN_PRIME_CYCLE = (23, 29, 23, 31, 23, 23, 29, 23, 37, 23)
COEFF_HEIGHT = 30

RED_CHECK = "section-scan-f11[1,2,3,5,7,11]"
RED_CHECK_POINTS = 13
CERTIFICATE_CHECKS = 44
PENTAD_REFLECTIONS = (3003, 3003, 3003, 3003)


def import_program() -> list:
    """Import every module of the package from `src/`."""
    sys.path.insert(0, str(SRC))
    import quartic15

    if Path(quartic15.__file__).resolve().parent != SRC / "quartic15":
        raise RuntimeError(f"quartic15 imported from {quartic15.__file__}, not from {SRC}")
    names = sorted(m.name for m in pkgutil.iter_modules(quartic15.__path__))
    return [quartic15] + [importlib.import_module(f"quartic15.{n}") for n in names]


def hook(owner, name: str, make) -> None:
    setattr(owner, name, make(getattr(owner, name)))


class Capture:
    """Records what the program computed, through thin wrappers around the
    functions the CLI calls.  The wrappers are the same with and without
    tracing, so both runs give the same digest."""

    def __init__(self, cli, va, inv):
        self.cli, self.va = cli, va
        self.sections = []  # SectionModel of every certified hyperplane
        self.scans = []  # (prime, "section" or "threefold", singular points)
        self.reflections = []  # return values of verify_all_pentad_reflections
        self.check_s = {}  # check id -> seconds
        self.samples = []  # (start, end, DualityImage)

        def on_section(fn):
            def hyperplane_section(*args, **kwargs):
                model = fn(*args, **kwargs)
                self.sections.append(model)
                return model

            return hyperplane_section

        def on_scan(fn):
            def singular_scan_fp(target, p):
                pts = fn(target, p)
                kind = "section" if isinstance(target, va.SectionModel) else "threefold"
                self.scans.append((p, kind, pts))
                return pts

            return singular_scan_fp

        def on_reflections(fn):
            def verify_all_pentad_reflections(*args, **kwargs):
                counts = fn(*args, **kwargs)
                self.reflections.append(tuple(counts))
                return counts

            return verify_all_pentad_reflections

        def on_check(fn):
            def run(runner, check_id, claim, check):
                start = time.perf_counter()
                try:
                    return fn(runner, check_id, claim, check)
                finally:
                    self.check_s[check_id] = time.perf_counter() - start

            return run

        hook(va, "hyperplane_section", on_section)
        hook(va, "singular_scan_fp", on_scan)
        hook(inv, "verify_all_pentad_reflections", on_reflections)
        hook(cli.Runner, "run", on_check)

    def time_samples(self) -> None:
        """Time each duality sample: from drawing the point to its image."""
        pending = []

        def on_sample(fn):
            def sample_smooth_cubic_point(*args, **kwargs):
                pending.append(time.perf_counter())
                return fn(*args, **kwargs)

            return sample_smooth_cubic_point

        def on_image(fn):
            def duality_image(z):
                img = fn(z)
                self.samples.append((pending.pop(), time.perf_counter(), img))
                return img

            return duality_image

        hook(self.va, "sample_smooth_cubic_point", on_sample)
        hook(self.va, "duality_image", on_image)


def call_cli(cli, argv: list[str]):
    """`cli.run` with its report kept; a run without a single check is an error."""
    code, report = cli.run(argv, out=io.StringIO())
    if not report.checks:
        raise RuntimeError(f"cli.run({argv}) exited {code} without running a check")
    return code, report


# -- output checks ----------------------------------------------------------------


def _primitive(coords) -> list[int]:
    den = math.lcm(*(Fraction(x).denominator for x in coords))
    ints = [int(Fraction(x) * den) for x in coords]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def reduce_point(coords, p: int) -> tuple[int, ...]:
    """Canonical F_p representative (first nonzero coordinate 1), as the scan lists points."""
    v = [x % p for x in _primitive(coords)]
    lead_inv = pow(next(x for x in v if x), -1, p)
    return tuple(x * lead_inv % p for x in v)


def certificate_outcomes(code: int, checks: list[dict], capture: Capture) -> list[tuple[str, bool]]:
    """Each of the 44 checks has its expected status; the known-red F11 check
    must fail, with 13 points, and stays counted as a check."""
    statuses = {c["id"]: c["status"] for c in checks}
    out = [
        (f"check {cid} is {st}", st == ("fail" if cid == RED_CHECK else "pass"))
        for cid, st in statuses.items()
    ]
    out += [
        (f"{CERTIFICATE_CHECKS} distinct checks", len(checks) == len(statuses) == CERTIFICATE_CHECKS),
        (f"{RED_CHECK} is reported", RED_CHECK in statuses),
        ("exit code 1, for the red check only", code == 1),
        (
            f"the F11 scan of the reference section finds {RED_CHECK_POINTS} points",
            [len(pts) for p, kind, pts in capture.scans if (p, kind) == (11, "section")]
            == [RED_CHECK_POINTS],
        ),
        ("pentad reflections 3003/3003/3003/3003", capture.reflections == [PENTAD_REFLECTIONS]),
    ]
    return out


def section_problems(code: int, checks: list[dict], models: list, scans: list, p: int) -> list[str]:
    """A section is right when its nodes, tropes and incidence certify and the
    F_p reductions of all 15 nodes are among the scanned singular points.
    The scan may find more than 15 points, so the count is not asserted."""
    problems = []
    kinds = [c["id"].split("[")[0] for c in checks]
    if kinds != ["section-nodes", "section-tropes", "section-incidence", f"section-scan-f{p}"]:
        problems.append(f"unexpected checks {kinds}")
    problems += [f"{c['id']} failed" for c in checks[:3] if c["status"] != "pass"]
    if code not in (0, 1) or (code == 1) != any(c["status"] == "fail" for c in checks):
        problems.append(f"exit code {code} disagrees with the checks")
    if len(models) != 1 or len(scans) != 1:
        return problems + [f"{len(models)} sections and {len(scans)} scans recorded, expected 1 and 1"]
    nodes = models[0].nodes
    found = set(scans[0][2])
    missing = [n.syntheme for n in nodes if reduce_point(n.chart_point.coords, p) not in found]
    if len(nodes) != 15 or missing:
        problems.append(f"{len(nodes)} nodes; reductions missing from the F{p} scan: {missing}")
    return problems


def image_problems(img) -> list[str]:
    """Recompute the duality image from its source, independently of the program."""
    z = [Fraction(x) for x in img.source.coords]
    y = [Fraction(x) for x in img.point.coords]
    problems = []
    if sum(z) != 0 or sum(c**3 for c in z) != 0:
        problems.append("source is not on the cubic")
    s = sum(c * c for c in z)
    expected = [c * c - s / 6 for c in z]
    k = next((a / b for a, b in zip(y, expected) if b), None)
    if k is None or k == 0 or any(a != k * b for a, b in zip(y, expected)):
        problems.append("image is not the traceless square of its source")
    if 4 * sum(c**4 for c in y) - sum(c * c for c in y) ** 2 != 0 or img.quartic_value != 0:
        problems.append("image is not on the quartic")
    return problems


# -- workloads ------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def scan_prime(coeffs, limit: int, va, exact) -> int | None:
    """First prime >= 23 at which no duad pairing vanishes and the restricted
    quartic reduces, if it is at most `limit`; None for hyperplanes that
    meet a line-intersection point or are cardinal."""
    hp = exact.primitive_integer_vector([Fraction(c) - Fraction(sum(coeffs), 6) for c in coeffs])
    if not any(hp):
        return None
    for subset in va.three_subsets():
        card = exact.primitive_integer_vector(va.cardinal_coefficients(subset))
        if hp in (card, [-x for x in card]):
            return None
    pairings = [sum(a * b for a, b in zip(hp, va.duad_point(d).coords)) for d in va.duads()]
    if any(x == 0 for x in pairings):
        return None
    primes = [p for p in range(23, limit + 1) if _is_prime(p) and all(x.numerator % p for x in pairings)]
    if not primes:
        return None
    chart = exact.LinearMap([list(row) for row in zip(*exact.nullspace([list(va.ONES), hp], 6))])
    quartic3 = va.cr_quartic_form().substitute_linear(chart)
    for p in primes:
        try:
            quartic3.mod_p(p)
            return p
        except ValueError:
            continue
    return None


def section_inputs(seed: int, count: int, va, exact) -> list[tuple[list[int], int]]:
    rng = random.Random(seed)
    inputs = []
    for i in range(count):
        target = SCAN_PRIME_CYCLE[i % len(SCAN_PRIME_CYCLE)]
        while True:
            coeffs = [rng.randint(-COEFF_HEIGHT, COEFF_HEIGHT) for _ in range(6)]
            if scan_prime(coeffs, target, va, exact) == target:
                inputs.append((coeffs, target))
                break
    return inputs


# Each runner returns the intervals (perf_counter start, end) that make up the
# run, those of its operations, the checked outcomes and the check views.


def run_certify_full(capture, seed, _):
    """One cold `verify --all`; a certificate cannot be cut to `--seconds`."""
    start = time.perf_counter()
    code, report = call_cli(capture.cli, ["--seed", str(seed), "verify", "--all"])
    run = [(start, time.perf_counter())]
    checks = report.checks
    return run, run, certificate_outcomes(code, checks, capture), [_check_view(checks)]


def run_sections(capture, seed, inputs):
    """One CLI call per section; the run is the calls, not the checks between them."""
    outcomes, ops, views = [], [], []
    for coeffs, p in inputs:
        n_sections, n_scans = len(capture.sections), len(capture.scans)
        argv = ["section", "--coeffs=" + ",".join(map(str, coeffs)), "--scan-prime", str(p)]
        t0 = time.perf_counter()
        code, report = call_cli(capture.cli, argv)
        ops.append((t0, time.perf_counter()))
        problems = section_problems(
            code, report.checks, capture.sections[n_sections:], capture.scans[n_scans:], p
        )
        outcomes.append((f"section {coeffs} at p={p}: {problems}", not problems))
        views.append(_check_view(report.checks))
    return ops, ops, outcomes, views


def run_sampling(capture, seed, samples):
    capture.time_samples()
    start = time.perf_counter()
    code, report = call_cli(capture.cli, ["--seed", str(seed), "duality", "--samples", str(samples)])
    run = [(start, time.perf_counter())]
    outcomes = []
    for i, (_, _, img) in enumerate(capture.samples):
        problems = image_problems(img)
        outcomes.append((f"sample {i}: {problems}", not problems))
    outcomes += [
        (f"{samples} samples imaged", len(capture.samples) == samples),
        ("exit code 0, 3 checks pass", code == 0 and [c["status"] for c in report.checks] == ["pass"] * 3),
    ]
    ops = [(begin, end) for begin, end, _ in capture.samples]
    return run, ops, outcomes, [_check_view(report.checks)]


def make_inputs(workload: str, seed: int, seconds: float, va, exact):
    """The workload's inputs, from the seed and the run length only."""
    if workload == "certify-full":
        return None
    if workload == "sections":
        return section_inputs(seed, max(1, round(seconds / SECTION_OP_S)), va, exact)
    if workload == "sampling":
        return max(1, round(seconds / SAMPLE_OP_S))
    raise ValueError(f"unknown workload {workload!r}")


RUNNERS = {"certify-full": run_certify_full, "sections": run_sections, "sampling": run_sampling}


def _check_view(checks) -> list:
    return [(c["id"], c["status"]) for c in checks]


def digest(capture: Capture, views: list) -> str:
    """Hash of the mathematical results, identical for every run of one seed."""
    data = {
        "checks": views,
        "reflections": capture.reflections,
        "scans": [(p, kind, sorted(pts)) for p, kind, pts in capture.scans],
        "nodes": [
            (m.hyperplane, [[str(x) for x in n.chart_point.coords] for n in m.nodes])
            for m in capture.sections
        ],
        "images": [
            ([str(x) for x in img.source.coords], [str(x) for x in img.point.coords])
            for _, _, img in capture.samples
        ],
    }
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(tracer: Tracer, capture: Capture, planes: list) -> dict[str, float]:
    stat = tracer.stat
    m: dict[str, float] = {}
    for layer in MODULES:
        m[f"{layer}.calls"], m[f"{layer}.self_s"] = tracer.layer_totals(layer)
    m["lattice.pair_calls"] = stat("lattice.IntegerLattice.pair").calls
    m["lattice.mat_mul_calls"] = stat("lattice.mat_mul").calls
    m["lattice.snf_calls"] = stat("lattice.smith_normal_form").calls
    m["lattice.hnf_calls"] = stat("lattice.hermite_normal_form").calls
    m["nodal_surface.dot_calls"] = stat("nodal_surface.DivisorClass.dot").calls
    m["nodal_surface.dual_vector_tests"] = stat("nodal_surface.is_dual_vector").calls
    m["nodal_surface.picard_build_s"] = stat("nodal_surface.picard_lattice").total_s
    m["nodal_surface.kummer_build_s"] = stat("nodal_surface.kummer_model").total_s
    reflections = stat("involutions._reflection_norm4")
    m["involutions.reflections_attempted"] = reflections.calls
    m["involutions.reflections_integral"] = reflections.calls - reflections.raised
    m["involutions.to_pic_calls"] = stat("involutions._Basis.to_pic").calls
    m["involutions.s6_isometries"] = stat("involutions.s6_isometry").calls
    for check in TIMED_CHECKS:
        m[f"cli.check.{check}_s"] = capture.check_s.get(check, 0.0)
    m["exact.fp_evals"] = stat("exact.ModPoly.evaluate").calls
    m["exact.fp_eval_s"] = stat("exact.ModPoly.evaluate").total_s
    # points enumerated: P^3(F_p) for a section, P^4(F_p) for a threefold
    m["varieties.scan_points"] = sum(
        (p ** (4 if kind == "section" else 5) - 1) // (p - 1) for p, kind, _ in capture.scans
    )
    m["varieties.scan_s"] = stat("varieties.singular_scan_fp").total_s
    sections = stat("varieties.hyperplane_section")
    m["varieties.sections_attempted"] = sections.calls
    m["varieties.section_accept_ratio"] = _ratio(sections.calls - sections.raised, sections.calls)
    m["exact.linsolve_calls"] = stat("exact.rref").calls
    m["exact.linsolve_s"] = stat("exact.rref").total_s
    m["exact.poly_substitutions"] = stat("exact.MultiPoly.substitute_linear").calls
    sampled = stat("varieties.sample_smooth_cubic_point")
    chords = stat("varieties.plane_point").calls / 2  # two plane points per chord
    m["varieties.sample_yield"] = _ratio(sampled.calls - sampled.raised, chords)
    m["varieties.syntheme_plane_distinct_ratio"] = _ratio(len(set(planes)), len(planes))
    return m


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# -- entry point -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    modules = import_program()
    by_name = {m.__name__.removeprefix("quartic15."): m for m in modules}
    cli, va, inv, exact = by_name["cli"], by_name["varieties"], by_name["involutions"], by_name["exact"]
    inputs = make_inputs(workload, seed, seconds, va, exact)  # before tracing starts
    tracer, planes = (Tracer() if trace else None), []
    if tracer:
        tracer.install(modules)
        hook(va, "syntheme_plane", lambda fn: lambda s: planes.append(s) or fn(s))
    capture = Capture(cli, va, inv)
    with Probe() as probe:
        run, ops, outcomes, views = RUNNERS[workload](capture, seed, inputs)
    failures = [what for what, ok in outcomes if not ok]
    out = {
        "run_s": sum(probe.reference_s(t0, t1) for t0, t1 in run),
        "latencies_ms": [probe.reference_s(t0, t1) * 1000 for t0, t1 in ops],
        "wall_run_s": sum(t1 - t0 for t0, t1 in run),
        "probe": probe.summary(),
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures[:10],
        "digest": digest(capture, views),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, capture, planes)
        out["missing_functions"] = sorted(tracer.missing)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
