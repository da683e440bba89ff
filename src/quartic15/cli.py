"""Command-line verification front end.

Runs the full certification suite or individual check groups and emits a
deterministic JSON report: identical arguments and seed give byte-identical
output (timings are zeroed under --no-timing).  Exit status 0 means every
executed check passed; 1 means at least one check failed; 2 is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from functools import lru_cache

from . import __version__
from . import congruence as cg
from . import involutions as inv
from . import nodal_surface as ns
from . import pentads as pt
from . import varieties as va
from .configs import (
    duads,
    IncidenceStructure,
    synthemes,
    three_subsets,
    trope_incidence_model,
)
from .exact import perfect_square_factor
from .lattice import direct_sum, mat_mul, named_lattice, smith_normal_form

REFERENCE_COEFFS = (1, 2, 3, 5, 7, 11)


class Report:
    tool_version: str
    seed: int
    argv: list[str]
    checks: list[dict]

    def __init__(self, tool_version: str, seed: int, argv: list[str], checks: list[dict] | None = None):
        self.tool_version = tool_version
        self.seed = seed
        self.argv = argv
        self.checks = [] if checks is None else checks

    @property
    def failed(self) -> bool:
        return any(c["status"] == "fail" for c in self.checks)

    def to_jsonable(self, with_timing: bool) -> dict:
        checks = [dict(c) for c in self.checks]
        if not with_timing:
            for c in checks:
                c["elapsed_ms"] = 0
        return {
            "tool_version": self.tool_version,
            "seed": self.seed,
            "argv": self.argv,
            "checks": checks,
        }


class Runner:
    def __init__(self, report: Report, out):
        self.report = report
        self.out = out

    def run(self, check_id: str, claim: str, fn):
        start = time.monotonic()
        error = None
        try:
            ok, details = fn()
            status = "pass" if ok else "fail"
        except Exception as exc:  # checks report, they do not crash the suite
            status = "fail"
            details = f"unexpected error: {exc}"
            error = _error_record(exc)
        elapsed = int((time.monotonic() - start) * 1000)
        entry = {
            "id": check_id,
            "claim": claim,
            "status": status,
            "details": details,
            "elapsed_ms": elapsed,
        }
        if error:
            entry["error"] = error
        self.report.checks.append(entry)
        print(f"[{status.upper():4s}] {check_id}: {details}", file=self.out)


def _error_record(exc: Exception) -> dict:
    """Type of a check's exception, the file:line that raised it and its last
    five frames (file names without directories, so reports stay portable)."""
    import traceback  # only when a check raises: it adds to the start-up time

    frames = traceback.extract_tb(exc.__traceback__)[-5:]
    where = [f"{os.path.basename(f.filename)}:{f.lineno}" for f in frames]
    return {
        "type": type(exc).__name__,
        "where": where[-1],
        "traceback": [f"{w} in {f.name}" for w, f in zip(where, frames)],
    }


# -- check groups ---------------------------------------------------------------


def checks_segre(r: Runner):
    def invariance():
        return va.build_variety("segre").is_s6_invariant(), "cubic form fixed by all 720 coordinate permutations"

    r.run("segre-s6-invariance", "the cubic is symmetric in the six coordinates", invariance)

    def nodes():
        variety = va.build_variety("segre")
        certs = {}
        for label in three_subsets():
            cert = va.certify_ordinary_node(variety, va.node_point(label))
            if isinstance(cert, va.SmoothPointFailure) or not cert.is_ordinary:
                return False, f"node {label} failed certification"
            certs[label] = cert
        ranks = {c.hessian_rank for c in certs.values()}
        return (
            len(certs) == 10 and ranks == {4},
            f"10 ordinary nodes certified, Hessian rank 4 on the constrained chart",
        )

    r.run("segre-nodes", "the cubic has exactly 10 ordinary nodes", nodes)

    def scan():
        pts = va.singular_scan_fp(va.build_variety("segre"), 11)
        return len(pts) == 10, f"F11 exhaustive scan found {len(pts)} singular points (expected 10)"

    r.run("segre-scan-f11", "brute force over F11 sees exactly the 10 nodes", scan)


def checks_cr(r: Runner):
    def invariance():
        return va.build_variety("cr").is_s6_invariant(), "quartic form fixed by all 720 coordinate permutations"

    r.run("cr-s6-invariance", "the quartic is symmetric in the six coordinates", invariance)

    def lines():
        variety = va.build_variety("cr")
        bad = [s for s in synthemes() if not va.verify_double_line(variety, va.syntheme_line(s))]
        return not bad, f"15 double lines verified identically singular; failures: {bad}"

    r.run("cr-double-lines", "all 15 syntheme lines are double lines", lines)

    def duad_points():
        for d in duads():
            if va.derive_duad_point(d) != va.duad_point(d):
                return False, f"derived intersection point differs for duad {d}"
        return True, (
            "line-intersection points solved from the three line systems; "
            "representative (-2,-2,1,1,1,1) for duad (1,2); the often-quoted "
            "coordinates (-2,2,1,1,1,1) violate the coordinate-sum constraint"
        )

    r.run("cr-duad-points", "the 15 line-intersection points match the derived orbit", duad_points)

    def scan():
        pts = va.singular_scan_fp(va.build_variety("cr"), 7)
        expected = 15 * 8 - 2 * 15
        return (
            len(pts) == expected,
            f"F7 scan found {len(pts)} singular points; lines give 15*(7+1) - 2*15 = {expected}",
        )

    r.run("cr-scan-f7", "the F7 singular locus is the union of the 15 lines", scan)

    def cardinals():
        for subset in three_subsets():
            res = va.cardinal_restriction(subset)
            if res.square_root.total_degree() != 2:
                return False, f"cardinal {subset} square root is not a conic"
        res = va.cardinal_restriction((1, 2, 3))
        stated = va.cardinal_tangency_quadric().substitute_linear(res.plane.parametrization, res.plane.den)
        match = stated * res.square_root.leading_coefficient() == res.square_root * stated.leading_coefficient()
        return match, "all 10 cardinal restrictions are perfect squares; {1,2,3} matches the classical quadric"

    r.run("cr-cardinal-tangency", "cardinal hyperplanes touch the quartic along doubled quadrics", cardinals)

    def noncardinal(seed):
        rng = random.Random(seed)
        tried = 0
        while tried < 3:
            h = [rng.randint(-9, 9) for _ in range(6)]
            if all(x == h[0] for x in h):
                continue
            plane = va.LinearSubspace.from_equations([va.ONES, h], 6)
            if len(plane.rows) != 2:
                continue
            tried += 1
            if perfect_square_factor(va.cr_quartic_form().substitute_linear(plane.parametrization, plane.den)):
                return False, f"sampled hyperplane {h} restricted to a perfect square"
        return True, "3 sampled non-cardinal hyperplane restrictions are not perfect squares"

    r.run(
        "cr-noncardinal-not-square",
        "generic hyperplane restrictions are not doubled quadrics",
        lambda: noncardinal(r.report.seed),
    )


def checks_duality(r: Runner, samples: int, max_height: int):
    def sample_check():
        rng = random.Random(r.report.seed)
        for i in range(samples):
            z = va.sample_smooth_cubic_point(rng, max_height)
            img = va.duality_image(z)
            if img.quartic_value != 0:
                return False, f"sample {i} failed: nonzero quartic value"
        return True, f"{samples} seeded smooth rational cubic points map to exact quartic zeros"

    r.run("duality-samples", "the traceless-square map lands on the quartic", sample_check)

    def planes():
        bad = [s for s in synthemes() if not va.duality_plane_to_line(s)]
        return not bad, f"15 planes map into the matching double lines; failures: {bad}"

    r.run("duality-planes-to-lines", "cubic planes map onto the quartic's double lines", planes)

    def nodes_to_cardinals():
        for subset in three_subsets():
            if va.ProjectivePoint(va.cardinal_coefficients(subset)) != va.node_point(subset):
                return False, f"node {subset} does not match its cardinal hyperplane"
        return True, "each node's coordinate vector equals the cardinal hyperplane of its 3-subset"

    r.run("duality-nodes-to-cardinals", "cubic nodes are dual to cardinal hyperplanes", nodes_to_cardinals)


def checks_section(r: Runner, coeffs, scan_prime: int | None):
    """The section checks; returns the built model, or None if building it failed."""
    tag = ",".join(str(c) for c in coeffs)
    model = None

    def build():
        nonlocal model
        try:
            model = va.hyperplane_section(coeffs)
        except va.GenericityError as exc:
            return False, f"genericity failure: {exc}"
        ordinary = all(n.certificate.is_ordinary and n.certificate.hessian_rank == 3 for n in model.nodes)
        return (
            len(model.nodes) == 15 and ordinary,
            f"15 ordinary nodes certified (Hessian rank 3) for hyperplane ({tag})",
        )

    r.run(f"section-nodes[{tag}]", "the hyperplane section is a 15-nodal quartic surface", build)
    if model is None:
        return None

    def tropes():
        ok = len(model.tropes) == 10 and all(
            len(t.incident_nodes) == 6 and t.conic.total_degree() == 2 for t in model.tropes
        )
        return ok, "10 trope-conics, each through exactly 6 nodes"

    r.run(f"section-tropes[{tag}]", "the cardinal planes cut doubled conics", tropes)

    def incidence():
        pts = tuple(n.syntheme for n in model.nodes if n.syntheme is not None)
        blocks = tuple(t.subset for t in model.tropes)
        matrix = tuple(
            tuple(n.syntheme in t.incident_nodes for t in model.tropes)
            for n in model.nodes
            if n.syntheme is not None
        )
        geometric = IncidenceStructure(pts, blocks, matrix)
        if not geometric.is_configuration(4, 6):
            return False, "node-trope incidence is not of type (15_4, 10_6)"
        # the labels are the witness: the identity labelling is the isomorphism
        expected = trope_incidence_model()
        if geometric == expected:
            return True, "geometric incidence isomorphic to the matching-rule model"

        def nodes_on(inc, j):
            return {pt for pt, row in zip(inc.points, inc.matrix) if row[j]}

        wanted = {blk: nodes_on(expected, j) for j, blk in enumerate(expected.blocks)}
        for j, blk in enumerate(geometric.blocks):
            if nodes_on(geometric, j) != wanted.get(blk):
                return False, f"trope {blk}: labelled nodes differ from the matching-rule model"
        return False, "node and trope labels are not in the matching-rule model's order"

    r.run(f"section-incidence[{tag}]", "node-trope incidence has the abstract (15_4,10_6) type", incidence)

    if scan_prime is not None:

        def scan():
            pts = va.singular_scan_fp(model, scan_prime)
            detail = f"F{scan_prime} scan found {len(pts)} singular points (expected 15)"
            bad = va.bad_prime_duads(model, scan_prime)
            if bad:
                detail += (
                    f"; {scan_prime} is a bad prime for this hyperplane: it divides the "
                    f"pairing with the line-intersection point(s) {list(bad)}, so the three "
                    "nodes on each such duad's lines collide in reduction"
                )
            if tuple(coeffs) == REFERENCE_COEFFS and scan_prime == 11:
                detail += (
                    "; the asserted count 15 is therefore unattainable here — the true "
                    "count is 13, and scans at the good primes 23 and 29 give 15"
                )
            return len(pts) == 15, detail

        r.run(
            f"section-scan-f{scan_prime}[{tag}]",
            "the finite-field singular scan sees exactly the reduced nodes",
            scan,
        )
    return model


def checks_tangent_section(r: Runner, max_height: int):
    def build():
        rng = random.Random(r.report.seed)
        model = va.sample_tangent_section(rng, max_height)
        ordinary = all(n.certificate.is_ordinary for n in model.nodes)
        extra = sum(1 for n in model.nodes if n.syntheme is None)
        return (
            len(model.nodes) == 16 and ordinary and extra == 1,
            f"tangent hyperplane at a seeded smooth point: 16 certified ordinary nodes",
        )

    r.run("tangent-section-16-nodes", "a tangent section has sixteen nodes", build)


def checks_lattice(r: Runner):
    def named():
        u = named_lattice("U")
        a12 = named_lattice("A1(2)")
        big = direct_sum(
            named_lattice("U(2)"), named_lattice("U(2)"), a12, named_lattice("A1")
        )
        ok = (
            u.gram == ((0, 1), (1, 0))
            and a12.gram == ((-4,),)
            and big.rank == 6
            and big.det() == (-4) * (-4) * (-4) * (-2)
            and big.signature() == (2, 4)
        )
        return ok, "hyperbolic plane, scaled A1, and the rank-6 reference sum (det +128) have their classical Grams"

    r.run("lattice-named", "the named lattices have their classical Gram matrices", named)

    def snf_check():
        rng = random.Random(r.report.seed)
        for _ in range(10):
            m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            d, u, v = smith_normal_form(m)
            if mat_mul(mat_mul(u, m), v) != d:
                return False, "transformation identity failed"
        return True, "10 random Smith decompositions re-verified (U·M·V = D, divisibility chain)"

    r.run("lattice-snf", "Smith normal forms certify their transformations", snf_check)

    def picard():
        model = ns.picard_lattice()
        ok = (
            model.lattice.rank == 16
            and abs(model.lattice.det()) == 128
            and model.index == 32
            and model.lattice.signature() == (1, 15)
            and all(ns.verify_class_identities().values())
        )
        return ok, "rank 16, |det| 128, index 32 over <4>+A1^15, signature (1,15)"

    r.run("picard-lattice", "the Picard lattice is the code-glued overlattice", picard)

    def disc():
        comp = ns.discriminant_comparison()
        ok = (
            comp.groups_match
            and comp.q_match_negated
            and comp.snf_generators_generate
            and comp.weight4_duals_are_four_cycles
        )
        dual_count = sum(1 for x in comp.classical_generator_duality if x)
        detail = (
            f"invariant factors {list(comp.pic_invariants.invariant_factors)} on both sides; "
            f"q-value multisets match after a global sign flip; {dual_count}/6 classically "
            "quoted generators are dual vectors as transcribed (the rest carry typos; the valid "
            "weight-4 dual classes are exactly the 45 four-cycles); the full isometry "
            "claim for the transcendental lattice is not certified at desk scale"
        )
        return ok, detail

    r.run("picard-discriminant", "disc(Pic) matches disc(U(2)+U(2)+A1(2)+A1) up to sign", disc)

    def kummer():
        ok_pairings = ns.kummer_node_trope_pairings()
        cert = ns.kummer_embedding_check()
        ok = (
            ok_pairings
            and cert.pairings_preserved
            and cert.image_in_lattice
            and cert.image_orthogonal_to_n0
            and cert.image_equals_complement
            and cert.gram_match
        )
        return ok, (
            "node-trope pairings reproduce the six-node rule; the specialization map "
            "is an isometry onto the orthogonal complement of the sixteenth node class"
        )

    r.run("kummer-embedding", "the 15-nodal lattice embeds into the 16-nodal one", kummer)


def checks_code(r: Runner):
    def code():
        c = ns.even_set_code()
        enum = c.node_weight_enumerator()
        return (
            c.dimension == 5 and enum == {0: 1, 6: 10, 8: 15, 10: 6},
            f"dimension {c.dimension}, node weights {enum}",
        )

    r.run("even-set-code", "the even-set code has dimension 5 and weights 6^10 8^15 10^6", code)


def checks_involutions(r: Runner):
    def sigma():
        # sigma_star() raises unless its isometry is integral and involutive
        img = inv._apply_to_class(inv.sigma_star(), ns.ETA)
        return img.degree() == 16, "integral involutive isometry; image of eta has degree 16"

    r.run("sigma-star", "the covering involution acts integrally on the lattice", sigma)

    def tau_rey():
        report = inv.reye_image_report()
        return report.all_hold(), "all six classical image formulas hold exactly"

    r.run("tau-rey-images", "the Reye reflection has its classical image table", tau_rey)

    def relations():
        rep = inv.verify_relations()
        ok = (
            rep.goepel_conjugation
            and rep.reflection_routes_agree
            and rep.reye_invariant_rank == 15
            and rep.goepel_invariant_rank == 15
            and rep.lefschetz_reye == 10
            and rep.lefschetz_goepel == 10
            and rep.pencil_norms
            and rep.reye_fixes_pencils
        )
        detail = (
            "conjugating the Reye reflection by the covering involution gives the "
            "five-star pentad reflection (matrix identity); invariant ranks 15/15; "
            "Lefschetz numbers 10/10 under the recorded assumption that the "
            "involutions act as -1 on the rank-6 complement of the lattice"
        )
        return ok, detail

    r.run("involution-relations", "conjugation, ranks and Lefschetz arithmetic all verify", relations)

    def all_pentads():
        count, integral, isometric, involutive = inv.verify_all_pentad_reflections()
        ok = count == integral == isometric == involutive == 3003
        return ok, f"{count} pentad reflections: {integral} integral, {isometric} Gram-preserving, {involutive} involutive"

    r.run("pentad-reflections", "all 3003 pentad reflections are certified isometries", all_pentads)

    def naturality():
        return inv.pentad_naturality_spot_check(), "conjugation by node relabelings permutes the reflections"

    r.run("pentad-naturality", "reflections transform naturally under relabeling", naturality)


def checks_pentads(r: Runner, crosscheck: bool, section=None):
    """The pentad checks; `pentads-coplanarity` uses `section`, the reference
    section already built by `checks_section`, or builds it when given None."""
    def counts():
        table = pt.orbit_table()
        total = sum(o.size for o in table)
        goepel = [o for o in table if o.goepel]
        ok = total == 3003 and len(goepel) == 1 and goepel[0].size == 6
        return ok, f"3003 pentads in {len(table)} orbits; one Goepel orbit of size 6"

    r.run("pentads-classified", "all 3003 pentads classified into relabeling orbits", counts)

    def type_ii():
        cls = pt.classify(((1, 5), (2, 3), (3, 4), (3, 5), (4, 5)))
        labels = sorted(t[0] for t in cls.trope_triples)
        ok = cls.admissible and cls.trope_triple_count == 3 and labels == [(1, 2), (1, 5), (2, 3)]
        return ok, f"the worked pentad has exactly 3 trope-triples, on the conics for {labels}"

    r.run("pentads-type-ii", "the worked example pentad has its three known trope-triples", type_ii)

    def pencils():
        data = pt.pencil_classes(tuple(sorted(ns.C_SET)))
        ok = data.half_sum.norm() == 10 and all(f.norm() == 0 for f in data.classes)
        return ok, "five-star pencils: F^2 = 0, F_i·F_j = 2, eta·F = 8, half-sum of norm 10"

    r.run("pentads-pencils", "elliptic-pencil classes have the classical pairings", pencils)

    if crosscheck:

        def crosscheck_fn():
            rep = pt.graph_criterion_crosscheck()
            detail = (
                f"one-edge readings agree with incidence on {rep.agree_exists}/{rep.total} "
                f"(some-edge) and {rep.agree_forall}/{rep.total} (every-edge) pentads; "
                f"the two-edge triple rule agrees on all; mismatching orbits: "
                f"{len(rep.mismatch_orbits_exists)}/{len(rep.mismatch_orbits_forall)}"
            )
            # the report is the outcome; producing it is the check
            return rep.triple_rule_agrees, detail

        r.run("pentads-graph-criterion", "the one-edge criterion is reported under both readings", crosscheck_fn)

        def coplanarity_fn():
            model = section if section is not None else va.hyperplane_section(REFERENCE_COEFFS)
            rep = pt.geometric_admissibility_crosscheck(model)
            detail = (
                f"{rep.coplanar_quadruples} coplanar node quadruples on the reference "
                f"section, all on trope-conics ({rep.accidental_quadruples} accidental); "
                f"geometric and combinatorial admissible counts both "
                f"{rep.geometric_admissible}"
            )
            return rep.agrees, detail

        r.run(
            "pentads-coplanarity",
            "coplanarity-based admissibility matches the trope rule on a section",
            coplanarity_fn,
        )


def checks_congruence(r: Runner, m: int, n: int, rank: int):
    def run():
        invs = cg.invariants(m, n, rank)
        return True, (
            f"(m,n,r)=({m},{n},{rank}): genus {invs.g}, focal degree {invs.deg_focal}, "
            f"deg|l| {invs.deg_l_curve}, deg(P) {invs.deg_p_surface}, branch degree {invs.deg_branch_locus}"
        )

    r.run(f"congruence[{m},{n},{rank}]", "the closed-form invariants are evaluated from the formulas", run)


def checks_table1(r: Runner, n: int):
    def run():
        rep = cg.table1_report(n)
        extras = [v.counts for v in rep.extra_solutions]
        return rep.published_found, (
            f"n={n}: {len(rep.with_node_count)} solutions with the node-count constraint "
            f"({rep.without_node_count_total} without); published columns found; extras: {extras}"
        )

    r.run(f"table1[{n}]", "the published singular-point columns solve the count equations", run)


def checks_congruence_profile(r: Runner):
    def run():
        prof = cg.two_n_profile(3)
        i = prof.invariants
        ok = (
            i.deg_focal == 4
            and i.deg_l_curve == 4
            and i.deg_p_surface == 2
            and i.deg_branch_locus == 10
            and prof.expected_nodes == 15
        )
        return ok, "class-3 profile: focal degree 4, deg|l| 4, deg(P) 2, branch 10, 15 nodes"

    r.run("congruence-2-3", "the bidegree (2,3) profile matches the quartic model", run)


# -- argument parsing ------------------------------------------------------------


def _parse_coeffs(text: str):
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"coefficients must be integers: {exc}")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("exactly six comma-separated coefficients required")
    return tuple(parts)


def _parse_bidegree(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("bidegree must be m,n")
    return (int(parts[0]), int(parts[1]))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _global_flags(**defaults) -> argparse.ArgumentParser:
    """The flags accepted both before and after the subcommand.

    Flags without a given default are SUPPRESSed: the subcommand's namespace
    is copied over the main one, so a plain default there would reset a
    value given before the subcommand.
    """
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--json", metavar="PATH", help="write the JSON report here")
    flags.add_argument("--seed", type=int, help="seed for sampled points")
    flags.add_argument("--no-timing", action="store_true", help="zero out timings for byte-stable output")
    flags.add_argument("--max-height", type=_positive_int, help="coefficient height cap for sampling")
    flags.set_defaults(**defaults)
    return flags


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="quartic15",
        description="exact certification suite for 15-nodal quartic surface geometry",
        parents=[_global_flags(json=None, seed=0, no_timing=False, max_height=50)],
    )
    common = [_global_flags()]
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run the complete suite", parents=common)
    verify.add_argument("--all", action="store_true", required=True)
    sub.add_parser("segre", help="cubic checks", parents=common)
    sub.add_parser("cr", help="quartic hypersurface checks", parents=common)
    duality = sub.add_parser("duality", help="polar duality checks", parents=common)
    duality.add_argument("--samples", type=_positive_int, default=200)
    section = sub.add_parser("section", help="hyperplane section checks", parents=common)
    section.add_argument("--coeffs", type=_parse_coeffs, required=True)
    section.add_argument("--scan-prime", type=int, default=None)
    sub.add_parser("tangent-section", help="tangent hyperplane section checks", parents=common)
    sub.add_parser("lattice", help="Picard and Kummer lattice checks", parents=common)
    sub.add_parser("code", help="even-set code checks", parents=common)
    sub.add_parser("involutions", help="involution certification", parents=common)
    pentads = sub.add_parser("pentads", help="pentad classification", parents=common)
    pentads.add_argument("--crosscheck-graph", action="store_true")
    congr = sub.add_parser("congruence", help="congruence invariants", parents=common)
    congr.add_argument("--bidegree", type=_parse_bidegree, required=True)
    congr.add_argument("--rank", type=int, required=True)
    table1 = sub.add_parser("table1", help="singular-point table solver", parents=common)
    table1.add_argument("--n", type=int, required=True)
    return parser


def run(argv, out=None) -> tuple[int, Report]:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return (code if code else 0), Report(__version__, 0, list(argv))
    report = Report(__version__, args.seed, list(argv))
    runner = Runner(report, out)
    cmd = args.command
    if cmd == "segre":
        checks_segre(runner)
    elif cmd == "cr":
        checks_cr(runner)
    elif cmd == "duality":
        checks_duality(runner, args.samples, args.max_height)
    elif cmd == "section":
        checks_section(runner, args.coeffs, args.scan_prime)
    elif cmd == "tangent-section":
        checks_tangent_section(runner, args.max_height)
    elif cmd == "lattice":
        checks_lattice(runner)
    elif cmd == "code":
        checks_code(runner)
    elif cmd == "involutions":
        checks_involutions(runner)
    elif cmd == "pentads":
        checks_pentads(runner, args.crosscheck_graph)
    elif cmd == "congruence":
        m, n = args.bidegree
        checks_congruence(runner, m, n, args.rank)
    elif cmd == "table1":
        checks_table1(runner, args.n)
    elif cmd == "verify":
        checks_segre(runner)
        checks_cr(runner)
        checks_duality(runner, 200, args.max_height)
        reference = checks_section(runner, REFERENCE_COEFFS, 11)
        checks_section(runner, (0, 1, 3, 14, 15, 17), 13)
        checks_tangent_section(runner, args.max_height)
        checks_lattice(runner)
        checks_code(runner)
        checks_involutions(runner)
        checks_pentads(runner, crosscheck=True, section=reference)
        checks_congruence_profile(runner)
        for n in range(2, 8):
            checks_table1(runner, n)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_jsonable(not args.no_timing), fh, sort_keys=True, indent=1)
            fh.write("\n")
    failed = sum(1 for c in report.checks if c["status"] == "fail")
    print(
        f"{len(report.checks)} checks: {len(report.checks) - failed} passed, {failed} failed",
        file=out,
    )
    return (1 if report.failed else 0), report


def main() -> None:
    code, _ = run(sys.argv[1:])
    sys.exit(code)
