"""Check the pinned `--no-timing` report digests under several Pythons.

Reads `PINNED_REPORTS` out of `tests/test_cli.py` with `ast`, so the table
has one source, and runs each pinned command under each interpreter named on
the command line, with PYTHONPATH=src, in a fresh temporary directory, one
process at a time.  Each run's exit code and the sha256 of its report are
compared with the pin; the script exits 1 on any mismatch.  Run from
anywhere, for example:

    python3 tests/pins_across_pythons.py python3.10 python3.12 python3.13
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def pinned_reports() -> list[tuple[str, int, str]]:
    """The (command line, exit code, sha256) pins of `tests/test_cli.py`."""
    for node in ast.parse((TESTS / "test_cli.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PINNED_REPORTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_cli.py assigns no PINNED_REPORTS")


def run_pin(exe: str, line: str) -> tuple[int, str | None, str]:
    """(exit code, sha256 of the report or None, last line of stderr) of one
    pinned command."""
    args = line.split()
    report = args[args.index("--json") + 1]
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [exe, "-m", "quartic15", *args],
            cwd=tmp, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        )
        path = Path(tmp) / report
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return proc.returncode, digest, (proc.stderr.strip().splitlines() or [""])[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("interpreters", nargs="+", help="Python executables to run the pins under")
    interpreters = parser.parse_args(argv).interpreters
    pins = pinned_reports()
    mismatches = 0
    for exe in interpreters:
        for line, exit_code, digest in pins:
            code, got, err = run_pin(exe, line)
            ok = (code, got) == (exit_code, digest)
            mismatches += not ok
            print(f"{'ok' if ok else 'MISMATCH':8} {exe}  exit {code} (pin {exit_code})  "
                  f"sha256 {got and got[:16]} (pin {digest[:16]})  {line}", flush=True)
            if not ok and err:
                print(f"         stderr: {err}", flush=True)
    print(f"{mismatches} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
