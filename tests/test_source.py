import ast
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
        "MultiPoly.evaluate",  # output: the value over the common denominator
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
