"""Call census: the library functions that no README command calls.

Runs every `quartic15 ...` line of the README once, in this one interpreter,
under `sys.setprofile`, and prints each function or method defined in the
package that none of them called, one per line as "module.qualname" (the
form of the keys of `REACHED_ONLY_BY_TESTS` in `test_source.py`; a nested
function reads "outer.<locals>.inner") with its file and line.  The
commands run in a temporary directory, so a `--json` path of the README is
written there and removed.  Stdlib only; pytest does not collect this file.
Run it from the repository root:

    PYTHONPATH=src python tests/call_census.py
"""

import ast
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_commands() -> list[list[str]]:
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("quartic15 ")]


def library_defs(package: Path) -> dict[tuple[str, int], str]:
    """(file, first line) -> "module.qualname" for every def in the package;
    the first line is a decorated def's first decorator, as in its code object."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[str(path), first] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.resolve(), f"{path.stem}.")
    return defs


def main() -> None:
    commands = readme_commands()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        sys.setprofile(profile)
        try:
            from quartic15 import cli

            for argv in commands:
                cli.run(argv, out=io.StringIO())
        finally:
            sys.setprofile(None)
            os.chdir(cwd)
    package = Path(cli.__file__).resolve().parent
    defs = library_defs(package)
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in called}
    never = sorted((name, Path(path).name, line) for (path, line), name in defs.items() if (path, line) not in reached)
    print(f"# {len(commands)} README commands; {len(defs)} library defs, {len(defs) - len(never)} called, {len(never)} never called")
    for name, file, line in never:
        print(f"{name}  ({file}:{line})")


if __name__ == "__main__":
    main()
