"""Command-line contract: exit codes, determinism, golden comparison."""

import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from chowforge import cli, points, ring
from chowforge.cli import (
    MissingGolden,
    RunConfig,
    build_report,
    canonical_json,
    compare_golden,
    main,
    render_text,
)
from chowforge.scenarios import scenario_I_g0

from test_points import form_is_smooth, gf_gcd

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO / "goldens"


def test_exit_zero_when_all_checks_pass(capsys):
    assert main(["--scenario", "i_g0", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert "(8*g^3+12*g^2+4*g)*c1^2+(-8*g^3+8*g)*c2" in out
    assert json.loads(out)["all_checks_pass"] is True


def test_exit_one_on_failed_check(capsys):
    assert main(["--scenario", "i_g1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_import_loads_no_dataclasses_or_inspect():
    """Each report is one process, so import time is paid per report: the
    library's records are plain classes, and importing it must not load
    dataclasses or its inspect import.  Both interpreters get the same
    environment, so a site hook that loads one of these modules does not
    count."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    listing = "import sys; print(' '.join(sys.modules))"

    def modules(code):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        return set(out.split())

    base = modules(listing)
    added = modules("import chowforge.cli; " + listing) - base
    assert "chowforge.cli" in added
    assert not {"dataclasses", "inspect"} & added
    # The points layer works over F_p alone, so the point_witness set-up
    # loads neither the rationals layer nor fractions.
    added = modules("import chowforge.points; " + listing) - base
    assert "chowforge.points" in added
    assert not {"dataclasses", "inspect", "fractions", "chowforge.rationals"} & added


def test_general_position_beyond_the_paper_bound_exits_two(capsys):
    """n-1 > 3g+5 points are refused, not checked: the report stops at the
    bound of the paper's rationality theorem."""
    assert main(["--scenario", "general_position", "--genus", "8", "--n", "31"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: n-1 = 30 exceeds 3g+5 = 29\n"


def test_run_config_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario 'nope'"):
        RunConfig(scenario="nope")


def test_run_config_rejects_unknown_format():
    with pytest.raises(ValueError, match="format must be text or json"):
        RunConfig(scenario="i_g0", format="xml")


def test_general_position_fail_verdict_exits_one(capsys, monkeypatch):
    """A FAIL verdict is a failed check: with every trial's rank one short
    of the target, the report says so and the run exits 1."""
    monkeypatch.setattr(points, "interpolation_rank", lambda pts, g, prime: len(pts) - 1)
    assert main(["--scenario", "general_position", "--genus", "2", "--n", "5", "--trials", "3"]) == 1
    out = capsys.readouterr().out
    assert out.endswith("SOME CHECKS FAILED\n")
    assert main(["--scenario", "general_position", "--genus", "2", "--n", "5", "--trials", "3",
                 "--format", "json"]) == 1
    verdict = json.loads(capsys.readouterr().out)["scenarios"][0]["verdict"]
    assert (verdict["status"], verdict["trials"], verdict["witness"]) == ("FAIL", 3, None)


def test_completion_cap_exits_two_with_one_line(capsys, monkeypatch):
    """A completion stopped by the basis cap is not a failed check.  The
    shared classes are derived first, so the cap must fire in a completion
    of i_g0's own."""
    scenario_I_g0()
    monkeypatch.setattr(ring, "MAX_BASIS", 0)
    assert main(["--scenario", "i_g0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "by over 0 live elements" in captured.err


def test_exit_two_on_config_errors(capsys, monkeypatch):
    assert main(["--genus", "1"]) == 2
    assert main(["--genus", "nonsense"]) == 2
    assert main(["--prime", "10"]) == 2
    assert main(["--scenario", "general_position"]) == 2  # needs numeric genus
    # w_n and r2 need n >= 2; they are not run at a different n than reported.
    assert main(["--scenario", "w_n", "--n", "1"]) == 2
    assert main(["--scenario", "r2", "--n", "1"]) == 2
    assert main(["--n", "1"]) == 2
    # general_position needs n >= 1 and trials >= 1; less is not a FAIL verdict.
    for flags in (["--n", "0"], ["--n", "-3"], ["--trials", "0"], ["--trials", "-1"]):
        assert main(["--scenario", "general_position", "--genus", "2"] + flags) == 2
    # curve_conditions always samples 2g+5 points, so an explicit --n is refused.
    assert main(["--scenario", "curve_conditions", "--genus", "2", "--n", "3"]) == 2
    # Fewer residues than the distinct first coordinates asked for: these
    # used to sample forever (general_position) or for seconds (curve_conditions).
    for flags in (["general_position", "--n", "12"], ["curve_conditions"]):
        assert main(["--scenario"] + flags + ["--genus", "2", "--prime", "7"]) == 2
    # Running out of sampling attempts is not a failed check either.
    monkeypatch.setattr(points, "SAMPLING_ATTEMPTS", 3)
    assert main(["--scenario", "curve_conditions", "--genus", "3", "--prime", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("configuration error") == 15
    assert captured.err.count("distinct first coordinates do not exist mod 7") == 2
    assert captured.err.count("no valid curve/points after 3 attempts") == 1
    assert captured.err.count("--n does not apply to curve_conditions") == 1
    assert captured.err.count("need n >= 2, got 1") == 3
    assert captured.err.count("need trials >= 1") == 2
    assert captured.out == ""


@pytest.mark.skipif(gf_gcd is None, reason="sympy is not installed")
def test_curve_conditions_witness_lies_on_a_smooth_curve(monkeypatch, capsys):
    """At genus 2, prime 13 and seed 11 the first form whose discriminant is
    not a square is a singular curve; the witness must come from a smooth one."""
    sampled = []

    def recording(*args, **kwargs):
        sampled.append(points.sample_curve_points(*args, **kwargs))
        return sampled[-1]

    monkeypatch.setattr(cli, "sample_curve_points", recording)
    flags = ["--genus", "2", "--prime", "13", "--seed", "11", "--format", "json"]
    assert main(["--scenario", "curve_conditions"] + flags) == 0
    [(form, pts)] = sampled
    witness = json.loads(capsys.readouterr().out)["scenarios"][0]["witness"]
    assert witness["points"] == [[list(x), list(y)] for x, y in pts]
    assert form_is_smooth(form, 2, 13)


@pytest.mark.parametrize("prime", [9, 15, 1_000_001])
def test_composite_prime_exits_two_within_seconds(prime):
    """Composite moduli used to print false witnesses (general_position) or
    hang in the square-root search (curve_conditions)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for scenario in ("general_position", "curve_conditions"):
        proc = subprocess.run(
            [sys.executable, "-m", "chowforge.cli", "--scenario", scenario,
             "--genus", "2", "--prime", str(prime)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 2
        assert f"modulus {prime} is not an odd prime" in proc.stderr


def test_wn_symbolic_exits_zero(capsys):
    assert main(["--scenario", "w_n", "--n", "2", "--genus", "symbolic"]) == 0
    capsys.readouterr()


def test_test_matrix_text_table(capsys):
    assert main(["--scenario", "test_matrix", "--n", "3", "--genus", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    header_idx = next(i for i, l in enumerate(lines) if l.startswith("# rows"))
    assert lines[header_idx + 1] == "4 1 1 1 1 0"
    assert sum(1 for l in lines if l and l[0].isdigit()) >= 12  # two 6x6 tables


@pytest.mark.parametrize("genus", ["symbolic", 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_test_matrix_text_tables_match_the_json_payload(genus, n):
    """The two tables of the text report are the printed matrix and block
    form: a header naming the payload's rows and cols, then one line per
    row of its entries, and a blank line between the tables."""
    report = build_report(RunConfig(scenario="test_matrix", genus=genus, n=n))
    payload = json.loads(canonical_json(report))["scenarios"][0]

    def table(d):
        header = f"# rows: {' '.join(d['rows'])} | cols: {' '.join(d['cols'])}"
        return [header] + [" ".join(row) for row in d["entries"]]

    lines = render_text(report).splitlines()
    start = lines.index("== test_matrix ==") + 1
    stop = next(i for i in range(start, len(lines)) if lines[i].startswith("  ["))
    assert lines[start:stop] == table(payload["matrix"]) + [""] + table(payload["block_form"])
    assert len(payload["matrix"]["entries"]) == n + n * (n - 1) // 2


def test_report_checks_are_the_json_objects_they_print():
    """Each check is kept as its printed object, keys in printed order, and
    the JSON form holds copies, so editing it leaves the report alone."""
    report = build_report(RunConfig(scenario="all", genus=2))
    for out in report["scenarios"]:
        printed = out.to_dict()["checks"]
        assert printed == out.checks
        assert all(list(c) == ["claim_id", "expected", "actual", "pass", "source"]
                   for c in out.checks)
        for c in printed:
            c["pass"] = not c["pass"]
        assert printed != out.checks


def test_json_reports_are_deterministic():
    cfg = RunConfig(scenario="all", genus=2, format="json")
    assert canonical_json(build_report(cfg)) == canonical_json(build_report(cfg))
    sym = RunConfig(scenario="all", genus="symbolic", format="json")
    assert canonical_json(build_report(sym)) == canonical_json(build_report(sym))


def test_schema_version_and_config_echo():
    report = build_report(RunConfig(scenario="i_g0"))
    assert report["schema_version"] == 1
    assert report["config"]["scenario"] == "i_g0"
    assert report["config"]["genus"] == "symbolic"


def test_golden_comparison_roundtrip(tmp_path):
    cfg = RunConfig(scenario="i_g0", format="json")
    report = build_report(cfg)
    current = canonical_json(report)
    (tmp_path / "i_g0.json").write_text(current)
    code, summary = compare_golden("i_g0", current, str(tmp_path))
    assert code == 0 and "no differences" in summary
    # A tampered golden produces a named diff, not a silent pass.
    tampered = current.replace("(8*g^3", "(9*g^3", 1)
    (tmp_path / "i_g0.json").write_text(tampered)
    code, summary = compare_golden("i_g0", current, str(tmp_path))
    assert code == 1 and "differences" in summary
    # A golden that differs on every line is reported by its first ten.
    (tmp_path / "i_g0.json").write_text(current.replace("\n", " \n"))
    code, summary = compare_golden("i_g0", current, str(tmp_path))
    first, *entries = summary.splitlines()
    assert code == 1 and first == "golden comparison differences:"
    assert [re.match(r"line (\d+) \(.*\): golden ", e)[1] for e in entries] == [str(i) for i in range(1, 11)]


def test_golden_run_renders_canonical_json_once(monkeypatch, capsys):
    """With --format json and --golden-dir the printed JSON is the text that
    is compared against the golden."""
    rendered = []

    def recording(report):
        rendered.append(canonical_json(report))
        return rendered[-1]

    monkeypatch.setattr(cli, "canonical_json", recording)
    assert main(["--scenario", "i_g0", "--format", "json", "--golden-dir", str(GOLDEN_DIR)]) == 0
    assert len(rendered) == 1
    assert capsys.readouterr().out == rendered[0] + "golden comparison: no differences\n"


def test_missing_golden_raises_and_exits_two(tmp_path, capsys):
    with pytest.raises(MissingGolden):
        compare_golden("i_g0", "", str(tmp_path))
    assert main(["--scenario", "i_g0", "--golden-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def _readme_examples(golden_dir):
    """The argument lists of README's Command line examples, with
    `golden_dir` in place of the golden directory they name."""
    section = (REPO / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        args = shlex.split(line)[1:]
        if "--golden-dir" in args:
            args[args.index("--golden-dir") + 1] = str(golden_dir)
        examples.append(args)
    return examples


@pytest.mark.skipif(not GOLDEN_DIR.exists(), reason="goldens not generated")
def test_readme_command_line_examples(tmp_path, capsys):
    codes = [main(args) for args in _readme_examples(GOLDEN_DIR)]
    # The last example exits 1 only because of the c05 checks of i_g1.
    assert codes == [0, 0, 0, 1]
    assert capsys.readouterr().out.endswith("golden comparison: no differences\n")
    # A tampered golden is named on stdout and alone makes the exit status 1.
    for name in ("all.json", "i_g0.json"):
        golden = (GOLDEN_DIR / name).read_text()
        (tmp_path / name).write_text(golden.replace("(8*g^3", "(9*g^3", 1))
    first, *_, last = _readme_examples(tmp_path)
    for args in (last, first + ["--golden-dir", str(tmp_path)]):
        assert main(args) == 1
        assert "golden comparison differences:" in capsys.readouterr().out


def _regenerate_goldens_script():
    path = REPO / "scripts" / "regenerate_goldens.py"
    spec = importlib.util.spec_from_file_location("regenerate_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not GOLDEN_DIR.exists(), reason="goldens not generated")
def test_committed_goldens_match():
    """Every configuration of scripts/regenerate_goldens.py reproduces its
    committed golden byte for byte, and every committed golden has one."""
    names = []
    for name, cfg in _regenerate_goldens_script().golden_configs():
        assert canonical_json(build_report(cfg)) == (GOLDEN_DIR / name).read_text(), name
        names.append(name)
    assert sorted(names) == sorted(p.name for p in GOLDEN_DIR.glob("*.json"))


def test_all_symbolic_skips_numeric_only_scenarios():
    report = build_report(RunConfig(scenario="all", genus="symbolic"))
    names = [s.scenario_id for s in report["scenarios"]]
    assert "general_position" not in names and "curve_conditions" not in names
    skipped = {s["scenario"] for s in report["skipped"]}
    assert skipped == {"general_position", "curve_conditions"}
    text = render_text(report)
    for name in skipped:
        assert f"skipped {name}: requires numeric genus (prime-field run)" in text
    numeric = build_report(RunConfig(scenario="all", genus=2))
    assert {s.scenario_id for s in numeric["scenarios"]} >= {
        "general_position",
        "curve_conditions",
    }
