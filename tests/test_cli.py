import argparse
import hashlib
import inspect
import io
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quartic15
from quartic15 import congruence
from quartic15.cli import build_parser, run

README = Path(__file__).resolve().parents[1] / "README.md"


def run_quiet(argv):
    out = io.StringIO()
    code, report = run(argv, out=out)
    return code, report, out.getvalue()


def test_code_subcommand_prints_enumerator():
    code, report, text = run_quiet(["code"])
    assert code == 0
    assert "dimension 5" in text or "dimension: 5" in text
    assert report.checks[0]["status"] == "pass"


def test_cardinal_section_fails_genericity_named():
    code, report, text = run_quiet(["section", "--coeffs", "1,1,1,-1,-1,-1"])
    assert code == 1
    assert report.checks[0]["status"] == "fail"
    assert "cardinal" in report.checks[0]["details"]


def test_section_reference_checks_pass_without_scan():
    code, report, _ = run_quiet(["section", "--coeffs", "1,2,3,5,7,11"])
    assert code == 0
    assert all(c["status"] == "pass" for c in report.checks)


def _section_with_tropes(monkeypatch, mutate):
    """Run `section` on the reference hyperplane with its trope records
    passed through `mutate`; returns its checks by id, the hyperplane tag
    dropped."""
    from quartic15 import varieties as va

    real = va.hyperplane_section

    def mutated(coeffs):
        model = real(coeffs)
        return model._replace(tropes=mutate(model.tropes))

    monkeypatch.setattr(va, "hyperplane_section", mutated)
    code, report, _ = run_quiet(["section", "--coeffs", "1,2,3,5,7,11"])
    assert code == 1
    return {c["id"].removesuffix("[1,2,3,5,7,11]"): c for c in report.checks}


def test_a_flipped_incidence_entry_turns_section_incidence_red(monkeypatch):
    from quartic15.configs import synthemes

    def flip(tropes):
        first = tropes[0]
        outside = next(s for s in synthemes() if s not in first.incident_nodes)
        return (first._replace(incident_nodes=first.incident_nodes + (outside,)),) + tropes[1:]

    check = _section_with_tropes(monkeypatch, flip)["section-incidence"]
    assert check["status"] == "fail"
    assert check["details"] == "node-trope incidence is not of type (15_4, 10_6)"


def test_swapped_trope_labels_turn_section_incidence_red(monkeypatch):
    # two tropes trade their node sets: the incidence is still of type
    # (15_4, 10_6) and isomorphic to the model, but its labels are wrong,
    # and the labels are what the check certifies
    def swap(tropes):
        a, b = tropes[0], tropes[1]
        return (
            a._replace(incident_nodes=b.incident_nodes),
            b._replace(incident_nodes=a.incident_nodes),
        ) + tropes[2:]

    check = _section_with_tropes(monkeypatch, swap)["section-incidence"]
    assert check["status"] == "fail"
    # the details name the first trope whose nodes are wrong, not the pass text
    assert check["details"] == "trope (1, 2, 3): labelled nodes differ from the matching-rule model"


def test_a_zeroed_trope_conic_turns_only_section_tropes_red(monkeypatch):
    # the claim is that the cardinal planes cut doubled conics: a trope whose
    # conic has rank 0 is not a conic and fails it, while its incidence stays right
    def zero_conic(tropes):
        return (tropes[0]._replace(conic_rank=0),) + tropes[1:]

    checks = _section_with_tropes(monkeypatch, zero_conic)
    assert [key for key, c in checks.items() if c["status"] != "pass"] == ["section-tropes"]
    assert checks["section-tropes"]["details"] == (
        "9 of 10 tropes are conics through exactly 6 nodes (expected 10 of 10)"
    )


def test_a_dropped_node_turns_section_nodes_red(monkeypatch):
    from quartic15 import varieties as va

    real = va.hyperplane_section
    monkeypatch.setattr(va, "hyperplane_section", lambda coeffs: real(coeffs)._replace(nodes=real(coeffs).nodes[:14]))
    code, report, _ = run_quiet(["section", "--coeffs", "1,2,3,5,7,11"])
    check = report.checks[0]
    assert code == 1 and check["id"] == "section-nodes[1,2,3,5,7,11]" and check["status"] == "fail"
    assert check["details"] == "14 ordinary nodes certified (Hessian rank 3) for hyperplane (1,2,3,5,7,11)"


def test_section_scan_good_prime(monkeypatch):
    # a good prime adds no bad-prime clause, and no other prime is scanned
    from quartic15 import varieties as va

    real, primes = va.singular_scan_fp, []
    monkeypatch.setattr(va, "singular_scan_fp", lambda target, p: primes.append(p) or real(target, p))
    code, report, _ = run_quiet(["section", "--coeffs", "0,1,3,14,15,17", "--scan-prime", "11"])
    assert code == 0 and primes == [11]
    assert report.checks[-1]["details"] == "F11 scan found 15 singular points (expected 15)"


def test_the_bad_prime_explanation_reads_the_good_prime_scans(monkeypatch):
    # the reference section is bad at 11; the explanation reports the scans
    # at the two smallest good primes, 23 and 29, as they come out
    from quartic15 import varieties as va

    real = va.singular_scan_fp
    monkeypatch.setattr(va, "singular_scan_fp", lambda target, p: real(target, p)[: 14 if p == 23 else None])
    code, report, _ = run_quiet(["section", "--coeffs", "1,2,3,5,7,11", "--scan-prime", "11"])
    check = report.checks[-1]
    assert code == 1 and check["id"] == "section-scan-f11[1,2,3,5,7,11]" and check["status"] == "fail"
    assert check["details"].endswith(
        "the asserted count 15 is therefore unattainable here — the true count is 13, "
        "and scans at the good primes 23 and 29 give 14 and 15"
    )


def test_usage_error_exit_code():
    code, _, _ = run_quiet(["no-such-command"])
    assert code == 2
    code, _, _ = run_quiet(["section", "--coeffs", "1,2,3"])
    assert code == 2


def test_vacuous_sampling_is_a_usage_error(capsys):
    # zero or negative samples would certify nothing: refused at parse time
    for argv in (
        ["duality", "--samples", "0"],
        ["duality", "--samples", "-3"],
    ):
        code, report, _ = run_quiet(argv)
        assert code == 2 and report.checks == [], argv
        assert "must be at least 1" in capsys.readouterr().err
    code, report, _ = run_quiet(["duality", "--samples", "1"])
    assert code == 0 and report.checks[0]["details"].startswith("1 seeded")


def test_a_scan_prime_outside_the_scan_range_is_a_usage_error(capsys, monkeypatch):
    # primes below 5 and moduli that are not prime are refused by the one
    # rule `singular_scan_fp` applies, at parse time, before any check runs
    from quartic15 import cli

    ran = []
    monkeypatch.setattr(cli.Runner, "run", lambda self, *args: ran.append(args))
    for prime, reason in (("4", "4 is not prime"), ("1", "1 is not prime"), ("3", "need p >= 5"),
                          ("-7", "-7 is not prime"), ("25", "25 is not prime")):
        code, report, _ = run_quiet(["section", "--coeffs", "1,2,3,5,7,11", f"--scan-prime={prime}"])
        assert code == 2 and report.checks == [] and ran == [], prime
        assert f"argument --scan-prime: bad prime: {reason}" in capsys.readouterr().err
    monkeypatch.undo()
    # 5, the least prime taken, is scanned; on this section it is a bad
    # prime, so the scan check runs and fails
    code, report, _ = run_quiet(["section", "--coeffs", "1,2,3,5,7,11", "--scan-prime", "5"])
    assert [c["id"] for c in report.checks][-1] == "section-scan-f5[1,2,3,5,7,11]"
    assert len(report.checks) == 4
    assert code == 1 and [c["status"] for c in report.checks] == ["pass"] * 3 + ["fail"]


def test_a_scan_prime_of_2_to_the_10_or_more_is_refused_before_the_primality_test(capsys, monkeypatch):
    # a scan's cost grows like p³ and trial division like √p: these primes
    # are refused at parse time without a primality test, and none is scanned
    from quartic15 import cli
    from quartic15 import varieties as va

    assert va.check_scan_prime(1021) == 1021

    def no_trial_division(n):
        raise AssertionError(f"trial division of {n}")

    ran = []
    monkeypatch.setattr(va, "_is_prime", no_trial_division)
    monkeypatch.setattr(cli.Runner, "run", lambda self, *args: ran.append(args))
    for prime in ("1024", "65521", "18446744073709551557"):  # the last is 2^64 - 59, a prime
        code, report, _ = run_quiet(["section", "--coeffs", "1,2,3,5,7,11", f"--scan-prime={prime}"])
        assert code == 2 and report.checks == [] and ran == [], prime
        assert "argument --scan-prime: bad prime: need p < 1024" in capsys.readouterr().err


@pytest.mark.parametrize("prime, found, distinct, others", [(5, 15, 10, 5), (7, 16, 12, 4)])
def test_a_scan_that_is_not_the_nodes_reductions_turns_section_scan_red(prime, found, distinct, others):
    # at 5 the scan finds 15 points, but the 15 nodes reduce to only 10 and
    # the other 5 are no node's reduction: the count alone would pass it
    code, report, _ = run_quiet(["section", "--coeffs", "1,2,3,5,7,11", "--scan-prime", str(prime)])
    check = report.checks[-1]
    assert code == 1 and check["id"] == f"section-scan-f{prime}[1,2,3,5,7,11]" and check["status"] == "fail"
    assert check["details"].startswith(f"F{prime} scan found {found} singular points (expected 15); ")
    assert check["details"].endswith(
        f"; the nodes reduce to {distinct} distinct F{prime} points, "
        f"and {others} scanned points are no node's reduction"
    )


def test_a_scan_with_one_node_moved_turns_section_scan_red(monkeypatch):
    # at the good prime 23 the scan finds the 15 reductions; one of them
    # moved to another F23 point keeps the count at 15, and the set turns
    # the check red
    from quartic15 import varieties as va

    real = va.singular_scan_fp

    def moved(target, p):
        pts = real(target, p)
        x = pts[0]
        return [x[:-1] + ((x[-1] + 1) % p,)] + pts[1:]

    monkeypatch.setattr(va, "singular_scan_fp", moved)
    code, report, _ = run_quiet(["section", "--coeffs", "1,2,3,5,7,11", "--scan-prime", "23"])
    check = report.checks[-1]
    assert code == 1 and check["status"] == "fail"
    assert check["details"] == (
        "F23 scan found 15 singular points (expected 15); the nodes reduce to 15 distinct "
        "F23 points, and 1 scanned points are no node's reduction"
    )


@pytest.mark.parametrize("n", [1, 8])
def test_table1_outside_the_order_two_family_is_a_usage_error(capsys, n):
    # the order-2 family has 2 <= n <= 7: any other n is refused at parse time
    code, report, _ = run_quiet(["table1", "--n", str(n)])
    assert code == 2 and report.checks == []
    assert f"argument --n: invalid choice: {n}" in capsys.readouterr().err


def test_an_unwritable_json_path_is_a_usage_error(capsys, tmp_path, monkeypatch):
    from quartic15 import cli

    ran = []
    monkeypatch.setattr(cli.Runner, "run", lambda self, *args: ran.append(args))
    path = tmp_path / "no-such-dir" / "r.json"
    for argv in (["--json", str(path), "code"], ["code", "--json", str(tmp_path)]):
        code, report, _ = run_quiet(argv)
        assert code == 2 and report.checks == [] and ran == [], argv
        err = capsys.readouterr().err
        assert f"argument --json: cannot write {argv[argv.index('--json') + 1]}: " in err
        assert "Traceback" not in err
    assert not path.parent.exists()


def test_json_report_determinism(tmp_path):
    path = tmp_path / "report.json"
    argv = ["--seed", "3", "--no-timing", "--json", str(path), "duality", "--samples", "5"]
    code, _, _ = run_quiet(argv)
    assert code == 0
    first = path.read_bytes()
    code, _, _ = run_quiet(argv)
    assert code == 0
    assert path.read_bytes() == first
    data = json.loads(path.read_text())
    assert data["seed"] == 3
    assert all(c["elapsed_ms"] == 0 for c in data["checks"])
    assert all(c["status"] == "pass" for c in data["checks"])


def test_successive_runs_do_not_share_flags(tmp_path, monkeypatch):
    # the parser is built once per process; a flag given to one run must not
    # carry into the next.  A stepping clock makes every check take 1 s, so a
    # report written with timing has nonzero elapsed_ms.
    import itertools
    import types

    from quartic15 import cli

    ticks = itertools.count()
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_quiet(["--seed", "5", "--no-timing", "--json", str(a), "code"])[0] == 0
    assert run_quiet(["--json", str(b), "code"])[0] == 0
    first, second = json.loads(a.read_text()), json.loads(b.read_text())
    assert first["seed"] == 5 and all(c["elapsed_ms"] == 0 for c in first["checks"])
    assert second["seed"] == 0 and all(c["elapsed_ms"] > 0 for c in second["checks"])
    assert build_parser() is build_parser()


def test_report_schema_fields():
    code, report, _ = run_quiet(["table1", "--n", "3"])
    assert code == 0
    entry = report.checks[0]
    assert set(entry) == {"id", "claim", "status", "details", "elapsed_ms"}
    assert report.tool_version


def test_console_script_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(quartic15.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.argv = ['quartic15', 'table1', '--n', '3']; from quartic15.cli import main; main()"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "table1[3]" in proc.stdout


def test_readme_command_lines_parse():
    lines = [l for l in README.read_text().splitlines() if l.startswith("quartic15 ")]
    assert len(lines) == 6
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        args = parser.parse_args(argv)
        expected = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
        assert args.seed == expected, line
    # a global flag on either side of the subcommand; the side not given keeps it
    assert parser.parse_args(["--seed", "7", "verify", "--all"]).seed == 7
    args = parser.parse_args(["verify", "--all", "--seed", "7", "--json", "r.json", "--no-timing"])
    assert (args.seed, args.json, args.no_timing) == (7, "r.json", True)


def _long_flags(parser):
    return {o for action in parser._actions for o in action.option_strings if o.startswith("--") and o != "--help"}


def test_readme_flags_agree_with_the_parser():
    section = README.read_text().split("\n## Command line\n")[1].split("\n## ")[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = _long_flags(parser).union(*map(_long_flags, sub.choices.values()))
    assert named - accepted == set()
    assert _long_flags(parser) - named == set()


def test_python_dash_m_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(quartic15.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "quartic15", "code"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] even-set-code" in proc.stdout


def test_raising_check_records_type_and_location(monkeypatch, tmp_path):
    def boom(*args):
        return 1 // 0

    monkeypatch.setattr(congruence, "table1_report", boom)
    path = tmp_path / "r.json"
    code, report, text = run_quiet(["--json", str(path), "table1", "--n", "3"])
    assert code == 1
    entry = json.loads(path.read_text())["checks"][0]
    assert entry == report.checks[0]
    assert entry["status"] == "fail"
    assert entry["details"] == "unexpected error: integer division or modulo by zero"
    error = entry["error"]
    assert error["type"] == "ZeroDivisionError"
    assert error["where"] == f"test_cli.py:{boom.__code__.co_firstlineno + 1}"
    assert error["traceback"][-1] == f"{error['where']} in boom"
    assert error["traceback"][0].startswith("cli.py:") and len(error["traceback"]) <= 5
    assert "unexpected error" in text


def test_picard_lattice_check_certifies_the_class_identities(monkeypatch):
    from quartic15 import nodal_surface as ns

    code, report, _ = run_quiet(["lattice"])
    passing = next(c for c in report.checks if c["id"] == "picard-lattice")
    assert passing["status"] == "pass"
    identities = ns.verify_class_identities()
    monkeypatch.setattr(ns, "verify_class_identities", lambda: {**identities, "sigma_eta": False})
    code, report, _ = run_quiet(["lattice"])
    failing = next(c for c in report.checks if c["id"] == "picard-lattice")
    assert code == 1 and failing["status"] == "fail"
    assert failing["details"] == passing["details"]


def test_picard_discriminant_check_certifies_the_weight4_classification(monkeypatch):
    from quartic15 import nodal_surface as ns

    code, report, _ = run_quiet(["lattice"])
    passing = next(c for c in report.checks if c["id"] == "picard-discriminant")
    assert passing["status"] == "pass"
    assert "the valid weight-4 dual classes are exactly the 45 four-cycles" in passing["details"]
    monkeypatch.setattr(ns, "_weight4_duals_are_cycles", lambda: False)
    code, report, _ = run_quiet(["lattice"])
    failing = next(c for c in report.checks if c["id"] == "picard-discriminant")
    assert code == 1 and failing["status"] == "fail"
    assert failing["details"] == passing["details"]


def test_a1_in_place_of_a1_2_turns_the_reference_lattice_checks_red(monkeypatch):
    # T = U(2)+U(2)+A1+A1 has det 64 and Smith form 2^6: the checks that
    # read T go red, the two that do not stay green
    from quartic15 import nodal_surface as ns
    from quartic15.lattice import IntegerLattice, diagonal_lattice, direct_sum

    u2 = IntegerLattice([[0, 2], [2, 0]])
    monkeypatch.setattr(ns, "transcendental_reference_lattice", lambda: direct_sum(u2, u2, diagonal_lattice(-2, -2)))
    code, report, _ = run_quiet(["lattice"])
    failed = {c["id"]: c for c in report.checks if c["status"] == "fail"}
    assert code == 1 and list(failed) == ["lattice-named", "lattice-snf", "picard-discriminant"]
    assert "error" not in failed["lattice-snf"]
    assert failed["lattice-named"]["details"] == "T = U(2)+U(2)+A1(2)+A1 has rank 6, det +64 and signature (2,4)"
    assert failed["lattice-snf"]["details"].endswith("Pic 1^10·2^5·4, T 2^6")


def test_swapped_kummer_tropes_turn_the_kummer_embedding_red(monkeypatch):
    from quartic15 import nodal_surface as ns

    ns.kummer_model()  # built from the true tropes before the patch
    tropes = dict(ns.kummer_tropes())
    tropes[(1, 2)], tropes[(1, 6)] = tropes[(1, 6)], tropes[(1, 2)]
    monkeypatch.setattr(ns, "kummer_tropes", lambda: tropes)
    assert not ns.kummer_embedding_check().pairings_preserved
    code, report, _ = run_quiet(["lattice"])
    check = next(c for c in report.checks if c["id"] == "kummer-embedding")
    assert code == 1 and check["status"] == "fail"


def test_pentad_reflections_check_sees_one_broken_matrix(monkeypatch):
    # the loop multiplies the sparse rows of `reflection_rows`: one entry
    # bumped there is seen by its two full products
    from dense_oracle import dense, is_involution, preserves_gram, sparse
    from quartic15 import involutions
    from quartic15.nodal_surface import picard_lattice

    target = dict(involutions.pentad_root_coordinates())[((1, 2), (1, 3), (1, 4), (1, 5), (1, 6))]
    real = involutions.reflection_rows
    mutants = []

    def bumped(lat, r, name):
        iso = real(lat, r, name)
        if list(r) != target:
            return iso
        m = dense(iso)
        m[0][0] += 1
        mutants.append(m)
        return iso._replace(rows=sparse(m))

    monkeypatch.setattr(involutions, "reflection_rows", bumped)
    code, report, _ = run_quiet(["involutions"])
    check = next(c for c in report.checks if c["id"] == "pentad-reflections")
    assert code == 1 and check["status"] == "fail"
    (bad,) = mutants
    gram = picard_lattice().lattice.gram
    isometric = 3003 - (not preserves_gram(bad, gram))
    involutive = 3003 - (not is_involution(bad))
    assert 3002 in (isometric, involutive)
    assert check["details"] == (
        f"3003 pentad reflections: 3003 integral, {isometric} Gram-preserving, "
        f"{involutive} involutive"
    )


def test_a_perturbed_node_class_turns_the_weight4_census_red(monkeypatch):
    # E_15 (in none of the classically quoted generators) read as E_15 + E_23
    # by the pairing table: the dual half-sums are no longer the 45 four-cycles
    from quartic15 import nodal_surface as ns

    ns.picard_lattice()  # built from the true classes before the patch
    code, report, _ = run_quiet(["lattice"])
    passing = next(c for c in report.checks if c["id"] == "picard-discriminant")
    assert passing["status"] == "pass"
    monkeypatch.setitem(ns.E, (1, 5), ns.E[(1, 5)] + ns.E[(2, 3)])
    assert not ns._weight4_duals_are_cycles()
    code, report, _ = run_quiet(["lattice"])
    failing = next(c for c in report.checks if c["id"] == "picard-discriminant")
    assert code == 1 and failing["status"] == "fail"
    assert failing["details"] == passing["details"]


INVOLUTION_CHECKS = ["sigma-star", "tau-rey-images", "involution-relations", "pentad-reflections", "pentad-naturality"]


def test_involution_checks_read_the_picard_lattice_they_are_given(monkeypatch):
    # one Gram entry changed: the pentad reflections are no longer isometries
    from quartic15 import involutions
    from quartic15.lattice import IntegerLattice

    real = involutions.picard_lattice()
    gram = [list(row) for row in real.lattice.gram]
    gram[1][1] += 2
    bent = real._replace(lattice=IntegerLattice(gram))
    monkeypatch.setattr(involutions, "picard_lattice", lambda: bent)
    code, report, _ = run_quiet(["involutions"])
    check = next(c for c in report.checks if c["id"] == "pentad-reflections")
    assert code == 1 and check["status"] == "fail"
    assert not check["details"].startswith("3003 pentad reflections: 3003 integral")


def test_a_raising_picard_lattice_turns_each_involution_check_red(monkeypatch, tmp_path):
    # the lattice is built inside the checks, so the report is still written
    from quartic15 import involutions
    from quartic15 import nodal_surface as ns

    def refuse():
        raise RuntimeError("no lattice")

    monkeypatch.setattr(ns, "picard_lattice", refuse)
    monkeypatch.setattr(involutions, "picard_lattice", refuse)
    path = tmp_path / "r.json"
    code, report, _ = run_quiet(["--json", str(path), "involutions"])
    assert code == 1
    checks = json.loads(path.read_text())["checks"]
    assert [c["id"] for c in checks] == INVOLUTION_CHECKS
    for c in checks:
        assert c["status"] == "fail" and c["error"]["type"] == "RuntimeError", c["id"]


def test_a_doubled_goepel_node_turns_involution_relations_red(monkeypatch, tmp_path):
    # pencil_classes refuses the Goepel pencils once E_16 is doubled where
    # pentads reads it, so pencil_norms reads False and only the relations
    # check fails, with the report still written
    from quartic15 import involutions
    from quartic15 import pentads as pt

    monkeypatch.setattr(pt, "E", {**pt.E, (1, 6): 2 * pt.E[(1, 6)]})
    rep = involutions.verify_relations()
    assert not rep.pencil_norms
    assert rep.goepel_conjugation and rep.reflection_routes_agree and rep.reye_fixes_pencils
    path = tmp_path / "r.json"
    code, _, _ = run_quiet(["--json", str(path), "involutions"])
    checks = json.loads(path.read_text())["checks"]
    assert code == 1 and [c["id"] for c in checks] == INVOLUTION_CHECKS
    assert [c["id"] for c in checks if c["status"] == "fail"] == ["involution-relations"]
    assert all("error" not in c for c in checks)


def test_identity_relabelings_turn_pentad_naturality_red(monkeypatch, tmp_path):
    # with every M_g the identity, tau_P·M_g = M_g·tau_{g(P)} asks for
    # tau_P = tau_{g(P)}, which a sampled pair that moves its pentad refutes
    from dense_oracle import identity
    from quartic15 import involutions
    from quartic15.lattice import Isometry

    one = Isometry.from_matrix("identity", identity(16))
    monkeypatch.setattr(involutions, "s6_isometry", lambda g: one)
    path = tmp_path / "r.json"
    code, _, _ = run_quiet(["--json", str(path), "involutions"])
    checks = json.loads(path.read_text())["checks"]
    assert code == 1 and [c["id"] for c in checks] == INVOLUTION_CHECKS
    assert [c["id"] for c in checks if c["status"] == "fail"] == ["pentad-naturality"]
    assert all("error" not in c for c in checks)


def test_a_raising_variety_build_turns_each_threefold_check_red(monkeypatch, tmp_path):
    from quartic15 import varieties as va

    def refuse(kind):
        raise RuntimeError(f"no {kind} variety")

    monkeypatch.setattr(va, "build_variety", refuse)
    for command, count in (("segre", 3), ("cr", 6)):
        path = tmp_path / f"{command}.json"
        code, _, _ = run_quiet(["--json", str(path), command])
        checks = json.loads(path.read_text())["checks"]
        assert code == 1 and len(checks) == count, command
        built = [c for c in checks if "error" in c]
        assert {c["error"]["type"] for c in built} == {"RuntimeError"}, command
        assert all(c["status"] == "fail" for c in built), command


def _failed(argv):
    code, report, _ = run_quiet(argv)
    return code, {c["id"] for c in report.checks if c["status"] == "fail"}


def test_a_moved_node_turns_the_node_checks_red(monkeypatch):
    from quartic15 import varieties as va

    real = va.node_point
    # a smooth point of the cubic in place of the node for {1,2,3}
    monkeypatch.setattr(
        va, "node_point", lambda s: va.ProjectivePoint([1, -1, 0, 0, 0, 0]) if tuple(s) == (1, 2, 3) else real(s)
    )
    # the F11 scan still finds the true node, which is no longer the claimed one's reduction
    assert _failed(["segre"]) == (1, {"segre-nodes", "segre-scan-f11"})
    assert _failed(["duality", "--samples", "1"]) == (1, {"duality-nodes-to-cardinals"})


@pytest.mark.parametrize(
    "command, check_id, details",
    [
        ("segre", "segre-scan-f11", "F11 exhaustive scan found 10 singular points (expected 10); "
         "1 scanned points are no node's reduction"),
        ("cr", "cr-scan-f7", "F7 scan found 90 singular points; lines give 15*(7+1) - 2*15 = 90; "
         "1 scanned points lie on no line"),
    ],
    ids=["segre", "cr"],
)
def test_a_scan_with_one_point_moved_turns_the_threefold_scan_red(monkeypatch, command, check_id, details):
    # one scanned point moved to another F_p point, in the canonical form,
    # keeps the count: only the set turns the check red
    from quartic15 import varieties as va

    real = va.singular_scan_fp

    def moved(target, p):
        pts = real(target, p)
        x = pts[0]
        y = next(y for y in (x[:-1] + ((x[-1] + k) % p,) for k in range(1, p)) if y not in pts)
        return [y] + pts[1:]

    monkeypatch.setattr(va, "singular_scan_fp", moved)
    code, report, _ = run_quiet([command])
    assert code == 1 and [c["id"] for c in report.checks if c["status"] == "fail"] == [check_id]
    (check,) = [c for c in report.checks if c["id"] == check_id]
    assert check["details"] == details


def _tangent_check(monkeypatch, mutate):
    """The tangent-section check, run with `va.hyperplane_section` given
    the coefficients and tangency point that `mutate` makes of its own."""
    from quartic15 import varieties as va

    real = va.hyperplane_section
    monkeypatch.setattr(va, "hyperplane_section", lambda coeffs, tangent_at=None: real(*mutate(coeffs, tangent_at)))
    code, report, _ = run_quiet(["tangent-section"])
    (check,) = report.checks
    assert code == 1 and check["id"] == "tangent-section-16-nodes" and check["status"] == "fail"
    return check


def test_a_dropped_tangency_point_turns_the_tangent_section_red(monkeypatch):
    # without its tangency point the section has only the 15 syntheme nodes
    check = _tangent_check(monkeypatch, lambda coeffs, tangent_at: (coeffs, None))
    assert "error" not in check
    assert check["details"] == (
        "tangent hyperplane at a seeded smooth point: 15 certified ordinary nodes of 15, "
        "0 at the tangency point (expected 16, one there)"
    )


def test_a_moved_tangent_hyperplane_turns_the_tangent_section_red(monkeypatch):
    # one unit off the tangent hyperplane the tangency point is off the
    # section, so every draw is refused and the search gives up
    def moved(coeffs, tangent_at):
        if tangent_at is not None:
            coeffs = list(coeffs)
            coeffs[0] += 1
        return coeffs, tangent_at

    check = _tangent_check(monkeypatch, moved)
    assert check["error"]["type"] == "RuntimeError"
    assert check["error"]["where"].startswith("varieties.py:")


def test_a_moved_double_line_turns_the_line_check_red(monkeypatch):
    from quartic15 import varieties as va
    from quartic15.configs import synthemes

    real = va.syntheme_line
    moved = synthemes()[0]
    # the line through (1,-1,0,0,0,0) and (0,0,1,-1,0,0), which meets the
    # quartic only where 4(a² − b²)² vanishes
    chord = va.LinearSubspace(
        [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], 6
    )
    monkeypatch.setattr(va, "syntheme_line", lambda s: chord if s == moved else real(s))
    code, report, _ = run_quiet(["cr"])
    check = next(c for c in report.checks if c["id"] == "cr-double-lines")
    assert code == 1 and check["status"] == "fail"
    assert check["details"].endswith(f"failures: {[moved]}")


def test_a_draw_that_reduces_to_a_cardinal_row_is_skipped():
    # seed 7464's third draw, (3,3,3,-9,-9,-9), is the cardinal row of
    # {1,2,3} modulo the all-ones vector, so its restriction is a square
    rng = random.Random(7464)
    assert [[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)][2] == [3, 3, 3, -9, -9, -9]
    code, report, _ = run_quiet(["--seed", "7464", "cr"])
    check = next(c for c in report.checks if c["id"] == "cr-noncardinal-not-square")
    assert code == 0 and check["status"] == "pass", check["details"]


def test_swapped_syntheme_columns_turn_only_cr_duad_points_red(monkeypatch):
    # the first two synthemes share the duad (1,2): swapping their columns
    # moves the incidences of the other four duads on them
    from quartic15 import configs

    model = configs.cremona_richmond_model()
    swapped = tuple(row[1::-1] + row[2:] for row in model.matrix)
    monkeypatch.setattr(configs, "cremona_richmond_model", lambda: model._replace(matrix=swapped))
    code, report, _ = run_quiet(["cr"])
    failed = [c for c in report.checks if c["status"] == "fail"]
    assert code == 1 and [c["id"] for c in failed] == ["cr-duad-points"]
    assert failed[0]["details"] == "8 of the 225 point-line incidences differ from the Cremona-Richmond model"


def test_a_node_moved_between_trope_sets_turns_even_set_code_red(monkeypatch):
    # the node (3,4) moved from the trope set of (1,2) to that of (1,3): the
    # two sets have 5 and 7 nodes, so neither is a weight-6 code word.  The
    # code itself is built from `nodal_surface`'s own reference to the sets,
    # which the patch leaves alone.
    from quartic15 import configs

    sets = configs.trope_node_sets()
    sets[(1, 2)] = sets[(1, 2)] - {(3, 4)}
    sets[(1, 3)] = sets[(1, 3)] | {(3, 4)}
    monkeypatch.setattr(configs, "trope_node_sets", lambda: sets)
    code, report, _ = run_quiet(["code"])
    (check,) = report.checks
    assert code == 1 and check["id"] == "even-set-code" and check["status"] == "fail"
    assert "; 8 of the 10 weight-6 words are trope words" in check["details"]
    assert check["details"].endswith("5 of the 5 generators of S6 map the 32 words onto themselves")


def test_a_dropped_petersen_edge_turns_only_congruence_2_3_red(monkeypatch):
    from quartic15 import configs

    graph = configs.conjugacy_graph()
    edges = {e: m for e, m in graph.edges.items() if e != frozenset(((1, 2), (3, 4)))}
    monkeypatch.setattr(configs, "conjugacy_graph", lambda: graph._replace(edges=edges))
    code, report, _ = run_quiet(["verify", "--all"])
    failed = [c for c in report.checks if c["status"] == "fail"]
    assert code == 1 and [c["id"] for c in failed] == ["section-scan-f11[1,2,3,5,7,11]", "congruence-2-3"]
    assert "44 edges; the mark-1 part has degrees [2, 3]" in failed[1]["details"]


def test_coplanarity_check_reuses_the_given_section(monkeypatch):
    from quartic15 import cli
    from quartic15 import varieties as va

    reference = va.hyperplane_section(cli.REFERENCE_COEFFS)

    def refuse(*args, **kwargs):
        raise AssertionError("the section was built again")

    monkeypatch.setattr(va, "hyperplane_section", refuse)
    runner = cli.Runner(0, [], io.StringIO())
    cli.checks_pentads(runner, section=reference)
    check = next(c for c in runner.checks if c["id"] == "pentads-coplanarity")
    assert check["status"] == "pass", check["details"]


PENTAD_CHECKS = [
    "pentads-classified",
    "pentads-type-ii",
    "pentads-pencils",
    "pentads-graph-criterion",
    "pentads-coplanarity",
]


def _failed_pentad_checks(path):
    """Run `pentads` with its report at `path`; the failed checks by id."""
    code, _, _ = run_quiet(["--json", str(path), "pentads"])
    checks = json.loads(path.read_text())["checks"]
    assert code == 1 and [c["id"] for c in checks] == PENTAD_CHECKS
    return {c["id"]: c for c in checks if c["status"] == "fail"}


def test_a_moved_image_column_entry_turns_pentads_classified_red(monkeypatch, tmp_path):
    # the image of node (1,2) under the reversal (6,5,4,3,2,1), the last
    # permutation, moved onto that of node (1,3): the first pentad then has
    # an image of four nodes, which s6_orbits refuses.  The graph criterion
    # reads the same orbit partition, so it fails with it; the checks that
    # do not read the partition stay green.
    from quartic15 import pentads as pt

    columns = [list(column) for column in pt.image_columns()]
    columns[0][-1] = columns[1][-1]
    monkeypatch.setattr(pt, "image_columns", lambda: tuple(map(tuple, columns)))
    pt.orbit_partition.cache_clear()
    try:
        failed = _failed_pentad_checks(tmp_path / "r.json")
    finally:
        pt.orbit_partition.cache_clear()
    assert list(failed) == ["pentads-classified", "pentads-graph-criterion"]
    for check in failed.values():
        assert check["error"]["type"] == "ValueError"
        assert check["details"] == "unexpected error: element set is not closed under the action"


def test_a_dropped_rule_triple_turns_pentads_graph_criterion_red(monkeypatch, tmp_path):
    from quartic15 import pentads as pt

    rule = pt.triple_rule()
    monkeypatch.setattr(pt, "triple_rule", lambda: rule - {min(rule)})
    failed = _failed_pentad_checks(tmp_path / "r.json")
    assert list(failed) == ["pentads-graph-criterion"]
    assert "error" not in failed["pentads-graph-criterion"]


def test_a_moved_node_chart_point_turns_pentads_coplanarity_red(monkeypatch, tmp_path):
    # one chart coordinate of the first node of the reference section moved
    # by one: the trope quadruples through it are no longer coplanar
    from quartic15 import varieties as va

    real = va.hyperplane_section

    def moved(coeffs):
        model = real(coeffs)
        node = model.nodes[0]
        coords = list(node.chart_point.coords)
        coords[0] += 1
        return model._replace(nodes=(node._replace(chart_point=va.ProjectivePoint(coords)),) + model.nodes[1:])

    monkeypatch.setattr(va, "hyperplane_section", moved)
    failed = _failed_pentad_checks(tmp_path / "r.json")
    assert list(failed) == ["pentads-coplanarity"]
    check = failed["pentads-coplanarity"]
    assert check["error"]["type"] == "AssertionError"
    assert check["details"] == "unexpected error: a quadruple on a trope-conic must be coplanar"


def test_max_height_is_a_usage_error(capsys):
    # sampled points depend only on the seed and the count: there is no
    # height cap to set, before or after the subcommand
    for argv in (["--max-height=50", "duality"], ["tangent-section", "--max-height=50"]):
        code, report, _ = run_quiet(argv)
        assert code == 2 and report.checks == [], argv
        assert "unrecognized arguments: --max-height=50" in capsys.readouterr().err


def test_congruence_is_no_subcommand(capsys):
    # a single bidegree's invariants certify no claim: `congruence-2-3` in
    # `verify --all` reads the one profile the paper uses
    code, report, _ = run_quiet(["congruence", "--bidegree", "2,3", "--rank", "1"])
    assert code == 2 and report.checks == []
    assert "invalid choice: 'congruence'" in capsys.readouterr().err


def test_a_quartic_value_off_zero_turns_the_samples_check_red(monkeypatch):
    from quartic15 import varieties as va
    from quartic15.exact import MultiPoly

    perturbed = va.cr_quartic_form() + MultiPoly.variable(6, 0) ** 4
    monkeypatch.setattr(va, "cr_quartic_form", lambda: perturbed)
    code, report, _ = run_quiet(["duality", "--samples", "1"])
    check = next(c for c in report.checks if c["id"] == "duality-samples")
    assert code == 1 and check["status"] == "fail"
    assert check["error"]["type"] == "AssertionError"
    assert check["error"]["where"].startswith("varieties.py:")


def test_a_moved_syntheme_plane_turns_the_node_derivation_red(monkeypatch):
    from quartic15 import varieties as va
    from quartic15.configs import synthemes

    real = va.syntheme_plane
    moved, other = synthemes()[:2]
    # the plane of another syntheme misses the nodes on moved's blocks that
    # are not on other's, so six planes there no longer meet in a point
    monkeypatch.setattr(va, "syntheme_plane", lambda s: real(other) if s == moved else real(s))
    code, report, _ = run_quiet(["duality", "--samples", "1"])
    check = next(c for c in report.checks if c["id"] == "duality-nodes-to-cardinals")
    assert code == 1 and check["status"] == "fail"
    assert check["details"] == "unexpected error: six planes through a node must meet in one point"
    assert check["error"]["type"] == "AssertionError"


REFERENCE, OTHER = "1,2,3,5,7,11", "0,1,3,14,15,17"


def _section_checks(tag, prime=None):
    kinds = ["section-nodes", "section-tropes", "section-incidence"] + ([f"section-scan-f{prime}"] if prime else [])
    return [f"{kind}[{tag}]" for kind in kinds]


# the check ids each subcommand runs, in order
SUBCOMMAND_CHECKS = {
    "segre": ["segre-s6-invariance", "segre-nodes", "segre-scan-f11"],
    "cr": [
        "cr-s6-invariance",
        "cr-double-lines",
        "cr-duad-points",
        "cr-scan-f7",
        "cr-cardinal-tangency",
        "cr-noncardinal-not-square",
    ],
    "duality": ["duality-samples", "duality-planes-to-lines", "duality-nodes-to-cardinals"],
    f"section --coeffs {REFERENCE}": _section_checks(REFERENCE),
    f"section --coeffs {REFERENCE} --scan-prime 11": _section_checks(REFERENCE, 11),
    f"section --coeffs {OTHER} --scan-prime 13": _section_checks(OTHER, 13),
    "tangent-section": ["tangent-section-16-nodes"],
    "lattice": ["lattice-named", "lattice-snf", "picard-lattice", "picard-discriminant", "kummer-embedding"],
    "code": ["even-set-code"],
    "involutions": INVOLUTION_CHECKS,
    "pentads": [
        "pentads-classified",
        "pentads-type-ii",
        "pentads-pencils",
        "pentads-graph-criterion",
        "pentads-coplanarity",
    ],
    **{f"table1 --n {n}": [f"table1[{n}]"] for n in range(2, 8)},
}


@pytest.mark.parametrize("line", SUBCOMMAND_CHECKS)
def test_each_subcommand_runs_its_checks(line):
    _, report, _ = run_quiet(line.split())
    assert [c["id"] for c in report.checks] == SUBCOMMAND_CHECKS[line]


def _verify_all_ids():
    """The 44 ids of `verify --all`: the subcommands' lists in the order of
    `cli.verify_all`, with the bidegree (2,3) profile before Table 1."""
    groups = [
        "segre",
        "cr",
        "duality",
        f"section --coeffs {REFERENCE} --scan-prime 11",
        f"section --coeffs {OTHER} --scan-prime 13",
        "tangent-section",
        "lattice",
        "code",
        "involutions",
        "pentads",
    ]
    ids = [i for line in groups for i in SUBCOMMAND_CHECKS[line]] + ["congruence-2-3"]
    return ids + [i for n in range(2, 8) for i in SUBCOMMAND_CHECKS[f"table1 --n {n}"]]


def test_verify_all_runs_the_subcommands_checks_in_order():
    _, report, _ = run_quiet(["verify", "--all"])
    assert len(_verify_all_ids()) == 44
    assert [c["id"] for c in report.checks] == _verify_all_ids()


def test_runner_run_is_the_hook_of_the_benchmark(monkeypatch):
    # bench/worker.py times each check by wrapping `Runner.run` on the class,
    # and reads the checks off the object `cli.run` returns
    from quartic15 import cli

    assert list(inspect.signature(cli.Runner.run).parameters) == ["self", "check_id", "claim", "fn"]
    real, seen = cli.Runner.run, []

    def wrapped(runner, check_id, claim, fn):
        seen.append(check_id)
        return real(runner, check_id, claim, fn)

    monkeypatch.setattr(cli.Runner, "run", wrapped)
    _, runner = cli.run(["verify", "--all"], out=io.StringIO())
    assert seen == _verify_all_ids()
    assert [c["id"] for c in runner.checks] == seen


def test_scan_targets_are_what_the_benchmark_reads(monkeypatch):
    # bench/worker.py wraps `va.singular_scan_fp` by name, calls a
    # `SectionModel` target a section and any other a threefold, and reads a
    # section's points as chart points holding the reduction of every node
    from quartic15 import varieties as va

    real, scans = va.singular_scan_fp, []

    def wrapped(target, p):
        pts = real(target, p)
        scans.append((target, p, pts))
        return pts

    def reduced(coords, p):
        lead = pow(next(x for x in coords if x % p), -1, p)
        return tuple(x * lead % p for x in coords)

    monkeypatch.setattr(va, "singular_scan_fp", wrapped)
    run_quiet(["section", "--coeffs", "1,2,3,5,7,11", "--scan-prime", "23"])
    run_quiet(["--seed", "7", "verify", "--all"])
    sections = [(t, p, pts) for t, p, pts in scans if isinstance(t, va.SectionModel)]
    threefolds = [t for t, _, _ in scans if not isinstance(t, va.SectionModel)]
    assert sections and all(len(x) == 4 for _, _, pts in sections for x in pts)
    for target, p, pts in sections:
        assert all(reduced(node.chart_point.coords, p) in pts for node in target.nodes)
    assert len(threefolds) == 2 and all(isinstance(t, va.Hypersurface) for t in threefolds)
    assert [len(pts) for _, p, pts in sections if p == 11] == [13]


# sha256 of the --no-timing reports; a change that alters report bytes on
# purpose must update these pins and say why
PINNED_REPORTS = [
    ("--seed 1 --no-timing --json r.json verify --all", 1,
     "7c547e2da41909b921d823621bcf5853049c2728ba171de3173f6b5fe999000e"),
    ("--seed 1 --no-timing --json r.json duality --samples 200", 0,
     "aafdf5aa562735f699e5728178b6333479c1f26a16d0550b55f122f98aabe829"),
    ("--no-timing --json r.json section --coeffs=0,1,3,14,15,17 --scan-prime 23", 1,
     "29cc0e59d3cf8acdc3c67d16acb3a4777ba206e1f29a108b842c82e0a4b5f887"),
    ("--no-timing --json r.json section --coeffs=1,2,3,5,7,11 --scan-prime 11", 1,
     "43caf323397fc83bb6bbee0998e49fddc0db84eecea9798ec51ea773a73855a2"),
]


def test_reports_are_pinned(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for line, exit_code, digest in PINNED_REPORTS:
        code, _, _ = run_quiet(line.split())
        assert code == exit_code, line
        assert hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest() == digest, line


VERIFY_ALL, VERIFY_ALL_EXIT, VERIFY_ALL_DIGEST = PINNED_REPORTS[0]


def test_pins_script_runs_every_pin_under_one_interpreter():
    # tests/pins_across_pythons.py reads PINNED_REPORTS out of this file and
    # checks them under each interpreter it is given; here, this one
    script = Path(__file__).with_name("pins_across_pythons.py")
    proc = subprocess.run([sys.executable, str(script), sys.executable], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["ok"] * len(PINNED_REPORTS)
    assert lines[-1] == "0 mismatch(es)"


def test_pinned_report_under_python_dash_O(tmp_path):
    # `python -O` strips assert statements: every self-check must still run
    env = {**os.environ, "PYTHONPATH": str(Path(quartic15.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "quartic15", *VERIFY_ALL.split()],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == VERIFY_ALL_EXIT, proc.stderr
    assert hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest() == VERIFY_ALL_DIGEST


def test_pinned_report_twice_in_one_process(monkeypatch, tmp_path):
    # the second run reads every cache the first one filled: none may be stale
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        code, _, _ = run_quiet(VERIFY_ALL.split())
        assert code == VERIFY_ALL_EXIT
        assert hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest() == VERIFY_ALL_DIGEST


def _interpreter(version):
    """An installed Python `version` ("3.12"), or None: a pyenv build first,
    then `pythonX.Y` on PATH.  A pyenv shim may name a version that is not
    enabled, so each candidate must run and report its version."""
    candidates = sorted(Path.home().glob(f".pyenv/versions/{version}.*/bin/python"))
    candidates += [Path(p) for p in [shutil.which(f"python{version}")] if p]
    for exe in candidates:
        proc = subprocess.run(
            [str(exe), "-c", "import sys; print('%d.%d' % sys.version_info[:2])"], capture_output=True, text=True
        )
        if proc.returncode == 0 and proc.stdout.strip() == version:
            return exe
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_pinned_report_under_each_installed_interpreter(version, tmp_path):
    # one subprocess at a time; the report may not depend on the interpreter
    exe = _interpreter(version)
    if exe is None:
        pytest.skip(f"no Python {version} installed")
    env = {**os.environ, "PYTHONPATH": str(Path(quartic15.__file__).parents[1])}
    proc = subprocess.run(
        [str(exe), "-m", "quartic15", *VERIFY_ALL.split()], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == VERIFY_ALL_EXIT, proc.stderr
    assert hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest() == VERIFY_ALL_DIGEST
