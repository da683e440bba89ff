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
