"""Names, units and bounds of everything the benchmark reports.

`BENCHMARK.json` at the repository root repeats these tables (the smoke test
checks that the two agree).  Each per-layer metric also names the end-to-end
metric and workload it is expected to move, which `BENCHMARK.json` has no
field for.
"""

WORKLOADS = (
    (
        "certify-full",
        "cold `verify --all` (44 checks); lattice, nodal_surface and involutions do most of the work",
    ),
    (
        "sections",
        "seeded hyperplane sections with F_p singular scans; bypasses the lattice, F_p kernel bound",
    ),
    (
        "sampling",
        "seeded duality samples; many tiny Fraction eliminations, no F_p scan and no lattice",
    ),
)

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# The program's modules, one layer each.
MODULES = (
    "exact",
    "varieties",
    "configs",
    "lattice",
    "nodal_surface",
    "involutions",
    "pentads",
    "congruence",
    "cli",
)

_MODULE_MOVES = {
    "exact": "run_s on sections and sampling",
    "varieties": "run_s on sections and sampling",
    "configs": "run_s on certify-full (regression watch only)",
    "lattice": "run_s on certify-full",
    "nodal_surface": "run_s on certify-full",
    "involutions": "run_s on certify-full",
    "pentads": "run_s on certify-full (regression watch only)",
    "congruence": "run_s on certify-full (regression watch only)",
    "cli": "run_s on every workload",
}

# Checks of `verify --all` timed one by one in the traced run.
TIMED_CHECKS = (
    "pentad-reflections",
    "picard-discriminant",
    "kummer-embedding",
    "duality-samples",
    "pentad-naturality",
    "picard-lattice",
)

_CERTIFY = "run_s on certify-full; zero on sections and sampling"
_SECTIONS = "run_s, op_p50_ms and op_p90_ms on sections"
_SAMPLING = "run_s and op_p50_ms on sampling; about 7% of run_s on certify-full"

# name, unit, better, what it should move
PER_LAYER = (
    *(
        row
        for m in MODULES
        for row in (
            (f"{m}.self_s", "s", "lower", _MODULE_MOVES[m]),
            (f"{m}.calls", "count", "lower", _MODULE_MOVES[m]),
        )
    ),
    ("lattice.pair_calls", "count", "lower", _CERTIFY),
    ("lattice.mat_mul_calls", "count", "lower", _CERTIFY),
    ("lattice.snf_calls", "count", "lower", _CERTIFY),
    ("lattice.hnf_calls", "count", "lower", _CERTIFY),
    ("nodal_surface.dot_calls", "count", "lower", _CERTIFY),
    ("nodal_surface.dual_vector_tests", "count", "lower", _CERTIFY),
    ("nodal_surface.picard_build_s", "s", "lower", _CERTIFY),
    ("nodal_surface.kummer_build_s", "s", "lower", _CERTIFY),
    ("involutions.reflections_attempted", "count", "lower", _CERTIFY),
    ("involutions.reflections_integral", "count", "higher", _CERTIFY),
    ("involutions.to_pic_calls", "count", "lower", _CERTIFY),
    ("involutions.s6_isometries", "count", "lower", _CERTIFY),
    *((f"cli.check.{c}_s", "s", "lower", _CERTIFY) for c in TIMED_CHECKS),
    ("exact.fp_evals", "count", "lower", _SECTIONS),
    ("exact.fp_eval_s", "s", "lower", _SECTIONS),
    ("varieties.scan_points", "count", "lower", _SECTIONS),
    ("varieties.scan_s", "s", "lower", _SECTIONS),
    ("varieties.sections_attempted", "count", "lower", _SECTIONS),
    ("varieties.section_accept_ratio", "ratio", "higher", _SECTIONS),
    ("exact.linsolve_calls", "count", "lower", _SAMPLING),
    ("exact.linsolve_s", "s", "lower", _SAMPLING),
    ("exact.poly_substitutions", "count", "lower", _SAMPLING),
    ("varieties.sample_yield", "ratio", "higher", _SAMPLING),
    ("varieties.syntheme_plane_distinct_ratio", "ratio", "higher", _SAMPLING),
    ("trace.overhead_ratio", "ratio", "lower", "nothing: traced run_s over untraced run_s"),
)

RUN_SECONDS = 20


def benchmark_json() -> dict:
    """The content `BENCHMARK.json` must have."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
