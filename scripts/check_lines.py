"""Tier-1 runs every line of the library, or ALLOWED says why it stays.

Runs the Tier-1 suite in this process with `pytest.main` and a fixed
Hypothesis seed, under a `sys.monitoring` LINE callback (PEP 669, so Python
3.12 or later).  The callback records each line of src/chowforge/ it sees
and returns DISABLE, so every line location costs one event.  The
executable lines of each function come from the `co_lines()` of its code
objects.  The script fails on a library line that no test runs and no
entry of ALLOWED names, and on a stale entry: one whose line runs, or one
that names no executable line.

    PYTHONPATH=src python scripts/check_lines.py [pytest arguments]

Further arguments go to pytest (say `-p hypothesis.extra.pytestplugin`
when plugin autoloading is off).  Acceptance c05 is red, so pytest's exit
code 1 is accepted; a higher one (a usage or collection fault) fails.
"""

import inspect
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chowforge"
SEED = 0

# {(file name, function qualname, stripped source line): reason} for library
# lines no test can reach, each with the reason it stays.  An entry covers
# every unrun line of that function with that text, so line numbers may move.
ALLOWED = {}


def _function_lines() -> dict:
    """{(path, line number): (file name, qualname, stripped source)} for
    every executable line inside a function of the package.  A function's
    first line is its def (or decorator) statement, which the enclosing
    scope runs, so the line counts there."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        todo = [compile(source, str(path), "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            if not code.co_flags & inspect.CO_NEWLOCALS:  # module and class bodies run on import
                continue
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    found.setdefault((path, line), (path.name, code.co_qualname, text[line - 1].strip()))
    return found


def _run_lines(args) -> set:
    """{(path, line number)} of every library line Tier-1 runs."""
    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    prefix = str(PACKAGE)
    seen = set()

    def line(code, number):
        if code.co_filename.startswith(prefix):
            seen.add((code.co_filename, number))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "check_lines")
    monitoring.register_callback(tool, monitoring.events.LINE, line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", f"--hypothesis-seed={SEED}",
                            str(ROOT / "tests"), *args])
    finally:
        monitoring.set_events(tool, 0)
        monitoring.register_callback(tool, monitoring.events.LINE, None)
        monitoring.free_tool_id(tool)
    if code > 1:
        sys.exit(f"pytest exited {code}")
    return {(Path(name), number) for name, number in seen}


def main(args) -> int:
    if sys.version_info < (3, 12):
        sys.exit("check_lines.py needs Python 3.12 or later (sys.monitoring)")
    lines = _function_lines()
    run = _run_lines(args)
    unrun = {key: where for key, where in lines.items() if key not in run}
    unexplained = sorted((path.name, number, *where[1:]) for (path, number), where in unrun.items()
                         if where not in ALLOWED)
    stale = {entry: "runs" if entry in set(lines.values()) else "no such line"
             for entry in ALLOWED if entry not in set(unrun.values())}
    print(f"{len(lines)} library lines in functions, {len(unrun)} unrun, {len(ALLOWED)} allowed")
    for name, number, qualname, text in unexplained:
        print(f"unrun: {name}:{number} {qualname}: {text}")
    for entry, why in stale.items():
        print(f"stale ALLOWED entry ({why}): {entry}")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
