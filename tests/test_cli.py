import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

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
    # conic is not a conic fails it, while its incidence stays right
    from quartic15.exact import MultiPoly

    def zero_conic(tropes):
        return (tropes[0]._replace(conic=MultiPoly.zero(3)),) + tropes[1:]

    checks = _section_with_tropes(monkeypatch, zero_conic)
    assert [key for key, c in checks.items() if c["status"] != "pass"] == ["section-tropes"]
    assert checks["section-tropes"]["details"] == "10 trope-conics, each through exactly 6 nodes"


def test_section_scan_good_prime():
    code, report, _ = run_quiet(["section", "--coeffs", "0,1,3,14,15,17", "--scan-prime", "11"])
    assert code == 0


def test_usage_error_exit_code():
    code, _, _ = run_quiet(["no-such-command"])
    assert code == 2
    code, _, _ = run_quiet(["section", "--coeffs", "1,2,3"])
    assert code == 2


def test_vacuous_sampling_is_a_usage_error(capsys):
    # zero or negative samples would certify nothing, and a height cap below
    # 1 leaves no plane parameter to draw: both are refused at parse time
    for argv in (
        ["duality", "--samples", "0"],
        ["duality", "--samples", "-3"],
        ["--max-height", "0", "duality"],
        ["duality", "--max-height", "-1"],
        ["tangent-section", "--max-height", "0"],
    ):
        code, report, _ = run_quiet(argv)
        assert code == 2 and report.checks == [], argv
        assert "must be at least 1" in capsys.readouterr().err
    code, report, _ = run_quiet(["duality", "--samples", "1", "--max-height", "1"])
    assert code == 0 and report.checks[0]["details"].startswith("1 seeded")


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
    code, report, _ = run_quiet(["congruence", "--bidegree", "2,3", "--rank", "1"])
    assert code == 0
    entry = report.checks[0]
    assert set(entry) == {"id", "claim", "status", "details", "elapsed_ms"}
    assert report.tool_version


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.argv = ['quartic15', 'table1', '--n', '3']; from quartic15.cli import main; main()"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "table1[3]" in proc.stdout


def test_readme_command_lines_parse():
    lines = [l for l in README.read_text().splitlines() if l.startswith("quartic15 ")]
    assert len(lines) == 7
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        args = parser.parse_args(argv)
        expected = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
        assert args.seed == expected, line
    # a global flag on either side of the subcommand; the side not given keeps it
    assert parser.parse_args(["--seed", "7", "verify", "--all"]).seed == 7
    args = parser.parse_args(["verify", "--all", "--seed", "7", "--json", "r.json", "--no-timing"])
    assert (args.seed, args.json, args.no_timing, args.max_height) == (7, "r.json", True, 50)


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

    monkeypatch.setattr(congruence, "invariants", boom)
    path = tmp_path / "r.json"
    code, report, text = run_quiet(["--json", str(path), "congruence", "--bidegree", "2,3", "--rank", "1"])
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
    assert _failed(["segre"]) == (1, {"segre-nodes"})
    assert _failed(["duality", "--samples", "1"]) == (1, {"duality-nodes-to-cardinals"})


def test_a_moved_double_line_turns_the_line_check_red(monkeypatch):
    from quartic15 import varieties as va
    from quartic15.configs import synthemes

    real = va.syntheme_line
    moved = synthemes()[0]
    # the line through (1,-1,0,0,0,0) and (0,0,1,-1,0,0), which meets the
    # quartic only where 4(a² − b²)² vanishes
    chord = va.LinearSubspace.from_equations(
        [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], 6
    )
    monkeypatch.setattr(va, "syntheme_line", lambda s: chord if s == moved else real(s))
    code, report, _ = run_quiet(["cr"])
    check = next(c for c in report.checks if c["id"] == "cr-double-lines")
    assert code == 1 and check["status"] == "fail"
    assert check["details"].endswith(f"failures: {[moved]}")


def test_coplanarity_check_reuses_the_given_section(monkeypatch):
    from quartic15 import cli
    from quartic15 import varieties as va

    reference = va.hyperplane_section(cli.REFERENCE_COEFFS)

    def refuse(*args, **kwargs):
        raise AssertionError("the section was built again")

    monkeypatch.setattr(va, "hyperplane_section", refuse)
    report = cli.Report(quartic15.__version__, 0, [])
    cli.checks_pentads(cli.Runner(report, io.StringIO()), True, section=reference)
    check = next(c for c in report.checks if c["id"] == "pentads-coplanarity")
    assert check["status"] == "pass", check["details"]


def test_tangent_section_at_height_one_fails_with_its_reason():
    code, report, _ = run_quiet(["--max-height", "1", "tangent-section"])
    (check,) = report.checks
    assert code == 1 and check["status"] == "fail"
    assert "at least 2 to avoid the syntheme planes" in check["details"]
    assert check["error"]["type"] == "ValueError"
    assert check["error"]["where"].startswith("varieties.py:")


# sha256 of the --no-timing reports; a change that alters report bytes on
# purpose must update these pins and say why
PINNED_REPORTS = [
    ("--seed 1 --no-timing --json r.json verify --all", 1,
     "9958c86fe85b73c5f5419e4b922d524600b510563059e1e697214157c7f26ef9"),
    ("--seed 1 --no-timing --json r.json duality --samples 200", 0,
     "aafdf5aa562735f699e5728178b6333479c1f26a16d0550b55f122f98aabe829"),
    ("--no-timing --json r.json section --coeffs=0,1,3,14,15,17 --scan-prime 23", 1,
     "a32a27e351e1035891a13c146b7076990fd69af2dfd0fa4421966c414d6e22f8"),
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
