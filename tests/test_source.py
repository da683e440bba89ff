import ast
import importlib
import os
import re
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
        "discriminant_group",  # output: the q-values of the generators
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


def _fraction_call_sites(tree: ast.Module) -> set[str]:
    """Qualified names of the functions (or module-level assignments) that call Fraction."""
    sites: set[str] = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        elif not scope and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            scope = [", ".join(ast.unparse(t) for t in targets)]
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "Fraction") or (
                isinstance(f, ast.Attribute) and f.attr == "Fraction"
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
        sites = _fraction_call_sites(tree)
        assert not sites - allowed, f"{name} calls Fraction in {sorted(sites - allowed)}"
        assert not allowed - sites, f"stale allowlist entries for {name}: {sorted(allowed - sites)}"


# Library functions that no README command reaches, each kept for the claim
# its tests certify.  `tests/call_census.py` (a `sys.setprofile` census of the
# commands) prints them, with the defs it leaves out of this table: dunders,
# immutability guards, error and failure paths, the wide-slot branch of the
# F_p scan and the `cli.main` entry point.  An entry must still resolve, and
# no library code outside this table may reference it by name; a function the
# commands call again leaves the table.
REACHED_ONLY_BY_TESTS = {
    "configs.MarkedGraph.degree": "the vertex degrees of the marked conjugacy graphs (K(5) plus cross edges, the forced (2,7) edges)",
    "configs.MarkedGraph.girth": "the mark-1 part of the (2,3) conjugacy graph is the Petersen graph",
    "configs.MarkedGraph.neighbors": "the Petersen adjacency of the mark-1 vertices (and girth's search)",
    "configs.apply_perm_syntheme": "S6 permutes the 15 synthemes and the double lines in one orbit",
    "configs.conjugacy_graph": "the marked conjugacy graphs: degrees and the multiplicity rule",
    "configs.cremona_richmond_model": "the Cremona-Richmond configuration is not the trope incidence",
    "configs.totals": "S6 permutes the 6 totals in one orbit with stabilizer 120",
    "congruence.AlphaVector.cubic_sum": "Table 1's defining sum holds on every published column",
    "exact.LinearMap.__init__": "held by the benchmark: bench/worker.py builds its section chart with it",
    "exact.nullspace": "held by the benchmark: bench/worker.py builds its section chart with it",
    "exact.rref": "held by the benchmark (through nullspace); traced as exact.linsolve_calls",
    "exact.ModPoly.__eq__": "operator completeness: reductions mod p compare by value",
    "exact.MultiPoly.__hash__": "operator completeness: equal polynomials hash equal",
    "lattice.IntegerLattice.is_even": "the Picard lattice and the glued overlattices are even",
    "nodal_surface.DivisorClass.__neg__": "operator completeness: divisor classes form a group",
    "nodal_surface.class_invariants": "norm, degree and Pic-membership of the named classes",
    "nodal_surface.nodes_of_word": "code words and node sets correspond (S6-equivariance of the code)",
    "nodal_surface.word_of_nodes": "the trope and L-set words lie in the even-set code",
    "pentads.goepel_pentads": "the Goepel orbit is the six five-stars",
}


# Listed entries whose name a live method of another class also carries, so
# that a by-name check cannot tell them apart: each maps to that method.
LISTED_HOMONYMS = {
    "configs.MarkedGraph.degree": "nodal_surface.DivisorClass.degree",
}


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
    used = [key for key in named if key.rsplit(".", 1)[1] in referenced and key not in LISTED_HOMONYMS]
    assert not used, f"the library references these by name: {used}"
    for key, live in LISTED_HOMONYMS.items():
        name = key.rsplit(".", 1)[1]
        assert key in REACHED_ONLY_BY_TESTS and live.rsplit(".", 1)[1] == name, key
        assert _resolve(live) is not None and name in referenced, f"{key}: {live} is no live homonym"


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
    "configs.MarkedGraph.marks": "the vertex marks h(x) of the conjugacy graphs and the multiplicity rule max(h+h'-n, 0)",
    "configs.Orbit.stabilizer_order": "the stabilizers 48, 120 and 72 of the nodes, totals and tropes, and of the code words",
    "lattice.FiniteAbelianInvariants.q_values": "the discriminant quadratic form on the SNF generators (A1 gives 3/2, <4> gives 1/4)",
    "varieties.DualityImage.source": "read by the bench digest, which recomputes each duality image from its source",
    "varieties.NodeCertificate.chart": "the chart of a node is the greedy completion of the point to a basis",
}


def test_every_record_field_is_read_or_listed_with_its_claim():
    fields = _record_fields()
    stale = [key for key in FIELDS_READ_ONLY_BY_TESTS if key not in fields]
    assert not stale, f"listed fields that are no record field: {stale}"
    loaded = _loaded_attributes()
    unread = sorted(key for key, name in fields.items() if name not in loaded and key not in FIELDS_READ_ONLY_BY_TESTS)
    assert not unread, f"fields that nothing in the library reads: {unread}"
    read = sorted(key for key in FIELDS_READ_ONLY_BY_TESTS if fields[key] in loaded)
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
STALE_BENCH_KEYS = {"involutions._reflection_norm4", "involutions._Basis.to_pic"}


def test_bench_tracer_keys_name_library_functions():
    worker = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
    keys = set(re.findall(r'stat\("([\w.]+)"\)', worker.read_text()))
    assert len(keys) >= 15
    assert {key for key in keys if _resolve(key) is None} == STALE_BENCH_KEYS


def test_importing_every_module_fills_no_cache():
    # the tables built on first use (the S6 node tables and the triple and
    # quadruple rules of `pentads` among them) stay unbuilt when a fresh interpreter imports
    # every module, so the import time does not grow with them
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
        "pentads.node_tables",
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
