"""The library is what the command line runs.

Every function of the chowforge package (methods, nested functions, lambdas
and generators included) is entered by some in-process run of `cli.main`
below, or is on ALLOWED with the reason it stays.  The runs are every golden
configuration of scripts/regenerate_goldens.py, compared against goldens/,
and cheap stand-ins for the paths the CI's command-line inputs take.  A
function that no run enters and no entry names is code nothing runs; an
entry that a run enters, or that names no function, is stale.
"""

import contextlib
import importlib.util
import inspect
import io
import json
import sys
import types
from pathlib import Path

import chowforge
from chowforge import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(chowforge.__file__).parent

# Code objects that are parts of a function rather than functions; Python
# 3.12 inlines the comprehensions, so they are left out on every version.
_EXPRESSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

_IMMUTABLE = "refuses assignment, as the value is immutable"
_HASH = "hashes as __eq__ compares, so equal values key one dict entry"
_REPR = "the interpreter's representation, for debugging"

# Functions no run enters, each with the reason it stays.  The functions
# that perfbench/tracing.py's BOUNDARIES names are allowed too: the
# benchmark times them, and its smoke check requires each to exist.
ALLOWED = {
    "points.PointCondition.__init__": "perfbench's point_witness builds a PointConfig of the sample",
    "points.PointConfig.__init__": "perfbench's point_witness ranks the sample by elimination",
    "points._slope": "evaluation_matrix, a benchmark boundary, takes the chart with it",
    "points._monomials": "evaluation_matrix, a benchmark boundary, builds its rows with it",
    "points._rank_mod": "rank_exact, a benchmark boundary, eliminates with it",
    "rationals._bareiss": "bareiss_determinant and rank_numeric, benchmark boundaries, eliminate with it",
    "ring.PolyRing.element": "perfbench's nf_queries and the ring tests build elements from terms",
    "ring.RingElement.specialize": "perfbench's cli_report_sweep specializes the derived relations",
    "ring.RingPresentation.groebner_basis": ("perfbench's NfQueries.expect reads its leads, "
                                             "tracing._count_basis counts it, and tests compare it"),
    "rationals.RatFunc.__call__": "RingElement.specialize evaluates each coefficient with it",
    "rationals.UniPoly.coeffs": "perfbench reads coefficients as Fractions (nf_queries, testcurve_certify)",
    **dict.fromkeys([f"{cls}.__setattr__" for cls in (
        "rationals.UniPoly", "rationals.RatFunc", "ring.Generator", "ring.PolyRing",
        "ring.RingElement", "ring.RingPresentation")], _IMMUTABLE),
    **dict.fromkeys([f"{cls}.__hash__" for cls in (
        "rationals.RatFunc", "ring.Generator", "ring.PolyRing", "ring.RingElement")], _HASH),
    **dict.fromkeys([f"{cls}.__repr__" for cls in (
        "rationals.UniPoly", "rationals.RatFunc", "ring.RingElement")], _REPR),
    "rationals.RatFunc.__sub__": "completes the arithmetic protocol (a - b)",
}


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stand_ins():
    """(argv, exit code) for the paths CI's command-line inputs reach, at
    sizes that keep the traced runs short."""
    return [
        (["--scenario", "r2", "--n", "4"], 0),
        (["--scenario", "r2", "--n", "4", "--genus", "2"], 0),
        (["--scenario", "w_n", "--n", "4"], 0),
        (["--scenario", "w_n", "--n", "4", "--genus", "2"], 0),
        (["--scenario", "test_matrix", "--n", "4", "--genus", "2"], 0),
        (["--scenario", "general_position", "--genus", "2", "--n", "12"], 0),
        (["--scenario", "general_position", "--genus", "2", "--n", "13"], 2),
        (["--scenario", "curve_conditions", "--genus", "2", "--prime", "101"], 0),
        (["--scenario", "r2", "--genus", "1"], 2),
    ]


def _golden_runs():
    """(argv, exit code) for each golden configuration: exit 0 or 1 as the
    golden's own verdict says.  A run compares against its golden through
    --golden-dir where the golden is <scenario>.json, the file compare_golden
    reads; test_cli.py's test_committed_goldens_match pins all_g2.json and
    all_g3.json."""
    regenerate = _load("regenerate_goldens", ROOT / "scripts" / "regenerate_goldens.py")
    golden_dir = ROOT / "goldens"
    for name, cfg in regenerate.golden_configs():
        passes = json.loads((golden_dir / name).read_text())["all_checks_pass"]
        argv = ["--scenario", cfg.scenario, "--genus", str(cfg.genus), "--format", "json"]
        if name == f"{cfg.scenario}.json":
            argv += ["--golden-dir", str(golden_dir)]
        yield argv, 0 if passes else 1


def _functions() -> dict:
    """{(file, first line, name): qualified name} for every function of the
    package, read from its compiled source."""
    found = {}

    def walk(code, prefix, in_function):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            qual = f"{prefix}.<locals>.{const.co_name}" if in_function else f"{prefix}.{const.co_name}"
            is_function = bool(const.co_flags & inspect.CO_NEWLOCALS)
            if is_function and const.co_name not in _EXPRESSIONS:
                found[const.co_filename, const.co_firstlineno, const.co_name] = qual
            walk(const, qual, in_function or is_function)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem, False)
    return found


def _entered(runs) -> set:
    """The (file, first line, name) of every code object called while the
    runs execute in this process, from a global trace function that asks
    for no line events.  Each run must exit with its code, and each golden
    comparison must find no differences."""
    # A cached function's body runs only on a miss.
    for name, module in list(sys.modules.items()):
        if name.startswith("chowforge."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    codes = {}

    def trace(frame, event, arg):
        codes[id(frame.f_code)] = frame.f_code

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        exits, outs = [], []
        for argv, _ in runs:
            outs.append(io.StringIO())
            with contextlib.redirect_stdout(outs[-1]), contextlib.redirect_stderr(io.StringIO()):
                exits.append(cli.main(argv))
    finally:
        sys.settrace(previous)
    assert exits == [code for _, code in runs], [argv for argv, _ in runs]
    differing = [argv for (argv, _), out in zip(runs, outs) if "--golden-dir" in argv
                 and not out.getvalue().endswith("golden comparison: no differences\n")]
    assert not differing, differing
    return {(c.co_filename, c.co_firstlineno, c.co_name) for c in codes.values()}


def _boundaries() -> set:
    """The functions perfbench/tracing.py times, by qualified name."""
    tracing = _load("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    return {f"{module}.{path}" for _, module, path, _ in tracing.BOUNDARIES}


def test_every_library_function_is_run_or_allowed():
    functions = _functions()
    entered = _entered(list(_golden_runs()) + _stand_ins())
    unentered = {name for key, name in functions.items() if key not in entered}
    unexplained = unentered - ALLOWED.keys() - _boundaries()
    assert not unexplained, f"no run enters these and no entry of ALLOWED names them: {sorted(unexplained)}"
    stale = {name: "entered by a run" if name in functions.values() else "no such function"
             for name in ALLOWED if name not in unentered}
    assert not stale, f"stale ALLOWED entries: {stale}"
