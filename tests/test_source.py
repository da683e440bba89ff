import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import quartic15


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so every check in the library
    # must be an explicit raise
    offenders = []
    for path in sorted(Path(quartic15.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not offenders, offenders


def test_no_f_string_without_a_placeholder_in_library():
    # an f-string with nothing to format is a constant that was meant to
    # carry a value; implicitly joined pieces parse as one f-string, and a
    # format spec (the `.3f` of `{x:.3f}`) is a nested f-string of its own
    offenders = []
    for path in sorted(Path(quartic15.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        specs = {id(n.format_spec) for n in ast.walk(tree) if isinstance(n, ast.FormattedValue) and n.format_spec}
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr)
            and id(node) not in specs
            and not any(isinstance(v, ast.FormattedValue) for v in node.values)
        ]
    assert not offenders, offenders


# Where the integer layers may build a Fraction: the rational edges only.
FRACTION_SITES = {
    "exact.py": {
        "MultiPoly.leading_coefficient",  # output: one coefficient over the common denominator
        "LinearMap.__init__",  # input: the benchmark's section chart
        "rref",  # output: the integer RREF divided by its final pivot
        "nullspace",  # output: the unit entries of the kernel basis
    },
    "varieties.py": set(),
    "lattice.py": {
        "IntegerLattice.pair",  # output: the value of the pairing
        "discriminant_q_multiset",  # output: one key per q-value
    },
    "nodal_surface.py": {
        "DivisorClass.degree",  # output: the degree against eta
        "CLASSICAL_DISCRIMINANT_GENERATORS",  # literal data, as transcribed
    },
    "involutions.py": set(),
    "pentads.py": set(),
    "configs.py": set(),
    "congruence.py": set(),
    "cli.py": set(),
}


def _call_sites(tree: ast.Module, callee: str) -> set[str]:
    """Qualified names of the functions (or module-level assignments) that
    call `callee`, by its plain name or as an attribute."""
    sites: set[str] = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        elif not scope and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            scope = [", ".join(ast.unparse(t) for t in targets)]
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == callee) or (
                isinstance(f, ast.Attribute) and f.attr == callee
            ):
                sites.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return sites


def test_lattice_layer_builds_fractions_only_at_its_edges():
    root = Path(quartic15.__file__).parent
    for name, allowed in FRACTION_SITES.items():
        tree = ast.parse((root / name).read_text(), filename=name)
        sites = _call_sites(tree, "Fraction")
        assert not sites - allowed, f"{name} calls Fraction in {sorted(sites - allowed)}"
        assert not allowed - sites, f"stale allowlist entries for {name}: {sorted(allowed - sites)}"


def test_mat_mul_serves_only_the_normal_form_self_checks():
    # `mat_mul` sparsifies both factors on every call; a product by a Gram
    # matrix is `IntegerLattice.times_gram`, over the cached sparse rows
    for path in sorted(Path(quartic15.__file__).parent.glob("*.py")):
        sites = _call_sites(ast.parse(path.read_text(), filename=path.name), "mat_mul")
        expected = {"hermite_normal_form", "smith_normal_form"} if path.name == "lattice.py" else set()
        assert sites == expected, path.name


def test_only_lattice_reads_laplace_det():
    # cofactors are `lattice.cofactors`; the Laplace expansion stays the
    # private minor of `lattice.minor_rank`
    for path in sorted(Path(quartic15.__file__).parent.glob("*.py")):
        if path.name == "lattice.py":
            continue
        tree = ast.parse(path.read_text(), filename=path.name)
        names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "_laplace_det" not in names, path.name


# Library functions that no README command reaches, each kept for the claim
# its tests certify.  `tests/call_census.py` (a `sys.setprofile` census of the
# commands) prints them together with the defs of `CENSUS_EXEMPT`, and
# `test_call_census_finds_exactly_the_listed_defs` holds the two tables to
# it.  An entry must still resolve, and no library code outside this table
# may reference it by name; a function the commands call again leaves the
# table.
REACHED_ONLY_BY_TESTS = {
    "configs.totals": "S6 permutes the 6 totals in one orbit with stabilizer 120",
    "exact.LinearMap.__init__": "held by the benchmark: bench/worker.py builds its section chart with it",
    "exact.nullspace": "held by the benchmark: bench/worker.py builds its section chart with it",
    "exact.rref": "held by the benchmark (through nullspace); traced as exact.linsolve_calls",
    "exact.monomial_table": "the table of any family of forms, the reference for exact.partials_table",
    "exact.MultiPoly.__hash__": "operator completeness: equal polynomials hash equal",
    "nodal_surface.DivisorClass.__hash__": "operator completeness: equal divisor classes hash equal",
    "nodal_surface.DivisorClass.__neg__": "operator completeness: divisor classes form a group",
}


# The other defs no README command calls, each with the reason it is not
# listed above: operator methods, immutability guards, error and failure
# paths, the F_p scan's candidate filter for 32-bit slots (primes of 256 and
# more), its slot reduction off the byte path (32-bit slots, or primes of 128
# and more) and the `cli.main` entry point.
CENSUS_EXEMPT = {
    "cli._error_record": "error path: records a check that raised",
    "cli.checks_section.<locals>.incidence.<locals>.nodes_on": "failure path: names a mislabelled trope",
    "cli.main": "the console entry point; the commands run through cli.run",
    "configs.totals.<locals>.extend": "the search inside configs.totals, listed above",
    "exact.LinearMap.__setattr__": "immutability guard",
    "exact.MultiPoly.__repr__": "operator method: the text of a polynomial",
    "exact.MultiPoly.__setattr__": "immutability guard",
    "lattice.IntegerLattice.__eq__": "operator method: lattices compare by Gram matrix",
    "lattice.IntegerLattice.__setattr__": "immutability guard",
    "lattice._as_int": "error path: refuses a non-integral matrix entry",
    "nodal_surface.DivisorClass.__repr__": "operator method: the text of a class",
    "nodal_surface.DivisorClass.__setattr__": "immutability guard",
    "varieties.GenericityError.__init__": "error path: a named genericity failure",
    "varieties.Hypersurface.__eq__": "operator method: surfaces compare by form and ambient",
    "varieties.Hypersurface.__setattr__": "immutability guard",
    "varieties.LinearSubspace.__eq__": "operator method: subspaces compare by rows, den and nvars",
    "varieties.LinearSubspace.__hash__": "operator method: equal subspaces hash equal",
    "varieties.LinearSubspace.__setattr__": "immutability guard",
    "varieties.ProjectivePoint.__hash__": "operator method: equal points hash equal",
    "varieties.ProjectivePoint.__repr__": "operator method: the text of a point",
    "varieties.ProjectivePoint.__setattr__": "immutability guard",
    "varieties._singular_points_fp.<locals>.slot_candidates": "the candidate filter for 32-bit slots",
    "varieties._slot_reducer.<locals>.slot_residues": "the slot reduction for 32-bit slots or p >= 128",
}


def test_call_census_finds_exactly_the_listed_defs():
    # the census runs in a fresh interpreter: a cached build that this test
    # session already filled would not be called again
    census = Path(__file__).with_name("call_census.py")
    env = {**os.environ, "PYTHONPATH": str(Path(quartic15.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(census), "--json"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    statuses = {shlex.join(argv): (code, failed) for argv, code, failed in result["commands"]}
    assert [line for line in statuses if line.startswith("verify --all")] == ["verify --all --seed 7 --json report.json"]
    for line, status in statuses.items():
        expected = (1, ["section-scan-f11[1,2,3,5,7,11]"]) if line.startswith("verify") else (0, [])
        assert status == expected, line
    assert not REACHED_ONLY_BY_TESTS.keys() & CENSUS_EXEMPT.keys()
    never = {name for name, _, _ in result["never"]}
    listed = REACHED_ONLY_BY_TESTS.keys() | CENSUS_EXEMPT.keys()
    assert never == listed, f"unlisted: {sorted(never - listed)}, called or gone: {sorted(listed - never)}"


def _resolve(key: str):
    """The object that "module.qualname" names in the package, or None."""
    module, *path = key.split(".")
    obj = importlib.import_module(f"quartic15.{module}")
    for name in path:
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


def _referenced_names(skip: set[str]) -> set[str]:
    """Every name the library loads (plain names and attribute names),
    outside the bodies of the functions named in `skip`."""
    names: set[str] = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
            if ".".join(scope) in skip:
                return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(Path(quartic15.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=path.name), [path.stem])
    return names


def test_functions_reached_only_by_tests_are_listed_with_their_claim():
    stale = [key for key in REACHED_ONLY_BY_TESTS if _resolve(key) is None]
    assert not stale, f"entries that no longer resolve: {stale}"
    referenced = _referenced_names(set(REACHED_ONLY_BY_TESTS))
    # an operator method is reached through syntax, not by its name
    named = [key for key in REACHED_ONLY_BY_TESTS if not key.rsplit(".", 1)[1].startswith("__")]
    used = [key for key in named if key.rsplit(".", 1)[1] in referenced]
    assert not used, f"the library references these by name: {used}"


def _class_names() -> dict[str, set[str]]:
    """Each name a library class body declares (a field, a method or a
    class attribute) -> the "module.Class" keys that declare it."""
    names: dict[str, set[str]] = {}
    for path in sorted(Path(quartic15.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    declared = [stmt.name]
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    declared = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    declared = []
                for name in declared:
                    names.setdefault(name, set()).add(f"{path.stem}.{cls.name}")
    return names


def _loads_in(key: str) -> set[str]:
    """The attribute names the library function "module.qualname" loads."""
    module, *path = key.split(".")
    node = ast.parse(Path(importlib.import_module(f"quartic15.{module}").__file__).read_text())
    for name in path:
        node = next(
            n
            for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and n.name == name
        )
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _record_fields() -> dict[str, str]:
    """Every field the library declares, "module.Class.field" -> field: the
    annotated names in a class body, which are the fields of a `NamedTuple`
    record and the attributes a plain value class sets in `__init__`.  The
    classes that read all their fields through `_fields` are left out."""
    fields, by_fields = {}, set()
    for path in sorted(Path(quartic15.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    fields[f"{path.stem}.{cls.name}.{stmt.target.id}"] = stmt.target.id
            if any(isinstance(n, ast.Attribute) and n.attr == "_fields" for n in ast.walk(cls)):
                by_fields.add(f"{path.stem}.{cls.name}")
    return {key: name for key, name in fields.items() if key.rsplit(".", 1)[0] not in by_fields}


def _loaded_attributes() -> set[str]:
    """Every attribute name the library loads (x.name)."""
    names = set()
    for path in sorted(Path(quartic15.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return names


# Record fields that no library code reads, each kept for the claim its
# tests certify or for the reader named.  Every other field is loaded as an
# attribute somewhere in the library (or, for a report read whole, through
# `_fields`); a field nothing reads is deleted, not listed.
FIELDS_READ_ONLY_BY_TESTS = {
    "varieties.DualityImage.source": "read by the bench digest, which recomputes each duality image from its source",
    "varieties.DualityImage.quartic_value": "read by the bench digest; always 0, since `duality_image` raises off the quartic",
}

# Record fields whose name another library class also declares, so that a
# by-name check cannot tell which of them the library reads: each read field
# maps to a library function that reads it.  A field of this kind that is in
# neither table fails the census below.
FIELD_HOMONYMS = {
    "lattice.Isometry.den": "lattice.Isometry.trace",
    "lattice.Isometry.rows": "lattice.Isometry.apply",
    "nodal_surface.DivisorClass.den": "nodal_surface.DivisorClass.degree",
    "varieties.Hypersurface.ambient": "varieties.Hypersurface.node_reading",
    "varieties.Hypersurface.form": "varieties.Hypersurface.is_s6_invariant",
    "varieties.LinearSubspace.den": "varieties.cardinal_restriction",
    "varieties.LinearSubspace.rows": "varieties.LinearSubspace.contains",
    "varieties.SectionModel.chart": "varieties.singular_scan_fp",
    "varieties.SectionNode.ambient": "varieties.hyperplane_section",
}


def test_every_record_field_is_read_or_listed_with_its_claim():
    fields = _record_fields()
    stale = [key for key in FIELDS_READ_ONLY_BY_TESTS if key not in fields]
    assert not stale, f"listed fields that are no record field: {stale}"
    loaded = _loaded_attributes()
    unread = sorted(key for key, name in fields.items() if name not in loaded and key not in FIELDS_READ_ONLY_BY_TESTS)
    assert not unread, f"fields that nothing in the library reads: {unread}"
    # a field whose name another class declares is read, by name, whenever
    # the other one is: it must be listed as unread or name its reader
    declared = _class_names()
    homonyms = {key for key, name in fields.items() if declared[name] - {key.rsplit(".", 1)[0]}}
    unlisted = sorted(homonyms - FIELDS_READ_ONLY_BY_TESTS.keys() - FIELD_HOMONYMS.keys())
    assert not unlisted, f"fields with a homonym that neither table lists: {unlisted}"
    assert not FIELD_HOMONYMS.keys() & FIELDS_READ_ONLY_BY_TESTS.keys()
    stale = sorted(FIELD_HOMONYMS.keys() - homonyms)
    assert not stale, f"FIELD_HOMONYMS entries that are no field with a homonym: {stale}"
    for key, reader in FIELD_HOMONYMS.items():
        assert fields[key] in _loads_in(reader), f"{reader} does not read {key}"
    read = sorted(key for key in FIELDS_READ_ONLY_BY_TESTS.keys() - homonyms if fields[key] in loaded)
    assert not read, f"the library reads these listed fields by name: {read}"


# The rational front end of `exact` and the test functions that may still
# load it: its own tests, the ragged-row refusal of every integer kernel and
# the pin of the benchmark's section chart.  Every other test reaches linear
# algebra through `LinearSubspace` or the Fraction oracle of `dense_oracle`,
# so deleting the front end empties this table.
RATIONAL_FRONT_END = {"rref", "nullspace", "LinearMap"}
FRONT_END_HOLDERS = {
    "test_exact.py::test_linear_map_entries_immutable_and_rectangular",
    "test_exact.py::test_substitute_linear_reads_a_linear_map",
    "test_exact.py::test_rref_nullspace_solve",
    "test_exact.py::test_rref_matches_reference",
    "test_exact.py::test_nullspace_annihilates",
    "test_lattice.py::test_ragged_matrices_are_refused_naming_the_row",
    "test_varieties.py::test_bench_chart_gives_the_section_quartic",
}


def test_only_the_listed_tests_load_the_rational_front_end():
    holders = set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=path.name).body:
            scope = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for n in ast.walk(node):
                name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
                if name in RATIONAL_FRONT_END and isinstance(n.ctx, ast.Load):
                    holders.add(f"{path.name}::{scope}")
    assert holders == FRONT_END_HOLDERS, (
        f"unlisted: {sorted(holders - FRONT_END_HOLDERS)}, stale: {sorted(FRONT_END_HOLDERS - holders)}"
    )


# Tracer keys of bench/worker.py that name no library function.  The
# benchmark reads 0 for them; repointing them is a change to the benchmark.
# `exact.ModPoly.evaluate` (exact.fp_evals, exact.fp_eval_s) went with
# `ModPoly`: the F_p scan reads the reduced `MultiPoly` of `mod_p`.
STALE_BENCH_KEYS = {"involutions._reflection_norm4", "involutions._Basis.to_pic", "exact.ModPoly.evaluate"}


def test_bench_tracer_keys_name_library_functions():
    worker = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
    keys = set(re.findall(r'stat\("([\w.]+)"\)', worker.read_text()))
    assert len(keys) >= 15
    assert {key for key in keys if _resolve(key) is None} == STALE_BENCH_KEYS


def test_importing_every_module_fills_no_cache():
    # the tables built on first use (the pentad table, the S6 image columns
    # and the triple and quadruple rules of `pentads` among them) stay
    # unbuilt when a fresh interpreter imports every module, so the import
    # time does not grow with them
    code = (
        "import importlib, pkgutil, quartic15\n"
        "for m in pkgutil.iter_modules(quartic15.__path__):\n"
        "    module = importlib.import_module('quartic15.' + m.name)\n"
        "    for name, obj in vars(module).items():\n"
        "        if hasattr(obj, 'cache_info') and obj.__module__ == module.__name__:\n"
        "            print(m.name + '.' + name, obj.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(quartic15.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    sizes = dict(line.split() for line in proc.stdout.splitlines())
    assert {
        "pentads.pentad_table",
        "pentads.image_columns",
        "pentads.triple_rule",
        "pentads.quadruple_rule",
        "pentads.orbit_partition",
    } <= sizes.keys()
    assert {name for name, size in sizes.items() if size != "0"} == set()


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # records are NamedTuples and value types plain classes: importing the
    # CLI pulls in neither `dataclasses` nor, through it, `inspect`, and no
    # other module of the package brings `dataclasses` back
    code = (
        "import importlib, pkgutil, sys\n"
        "import quartic15.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n"
        "for m in pkgutil.iter_modules(quartic15.__path__):\n"
        "    importlib.import_module('quartic15.' + m.name)\n"
        "print('dataclasses' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(quartic15.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "False"]
