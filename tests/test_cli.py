"""Command-line contract: exit codes, determinism, golden comparison."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chowforge.cli import (
    MissingGolden,
    RunConfig,
    build_report,
    canonical_json,
    compare_golden,
    default_prime,
    main,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"


def test_exit_zero_when_all_checks_pass(capsys):
    assert main(["--scenario", "i_g0", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert "(8*g^3+12*g^2+4*g)*c1^2+(-8*g^3+8*g)*c2" in out
    assert json.loads(out)["all_checks_pass"] is True


def test_exit_one_on_failed_check(capsys):
    assert main(["--scenario", "i_g1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_exit_two_on_config_errors(capsys):
    assert main(["--genus", "1"]) == 2
    assert main(["--genus", "nonsense"]) == 2
    assert main(["--prime", "10"]) == 2
    assert main(["--scenario", "general_position"]) == 2  # needs numeric genus
    # w_n and r2 need n >= 2; they are not run at a different n than reported.
    assert main(["--scenario", "w_n", "--n", "1"]) == 2
    assert main(["--scenario", "r2", "--n", "1"]) == 2
    assert main(["--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("configuration error") == 7
    assert captured.err.count("need n >= 2, got 1") == 3
    assert captured.out == ""


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
    (tmp_path / "i_g0.json").write_text(canonical_json(report))
    code, summary = compare_golden(report, str(tmp_path))
    assert code == 0 and "no differences" in summary
    # A tampered golden produces a named diff, not a silent pass.
    tampered = canonical_json(report).replace("(8*g^3", "(9*g^3", 1)
    (tmp_path / "i_g0.json").write_text(tampered)
    code, summary = compare_golden(report, str(tmp_path))
    assert code == 1 and "differences" in summary


def test_missing_golden_raises_and_exits_two(tmp_path, capsys):
    with pytest.raises(MissingGolden):
        compare_golden(build_report(RunConfig(scenario="i_g0")), str(tmp_path))
    assert main(["--scenario", "i_g0", "--golden-dir", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.skipif(not GOLDEN_DIR.exists(), reason="goldens not generated")
def test_committed_goldens_match(capsys):
    for scenario in ("i_g0", "w_n", "a1_vanishing", "r2", "test_matrix"):
        cfg = RunConfig(scenario=scenario, format="json")
        code, summary = compare_golden(build_report(cfg), str(GOLDEN_DIR))
        assert code == 0, f"{scenario}: {summary}"
    capsys.readouterr()


def test_default_prime_env_override(monkeypatch):
    monkeypatch.setenv("CHOWFORGE_PRIME_DEFAULT", "999983")
    assert default_prime() == 999983
    monkeypatch.setenv("CHOWFORGE_PRIME_DEFAULT", "1000001")
    with pytest.raises(ValueError):
        default_prime()
    assert main(["--scenario", "i_g0"]) == 2
    monkeypatch.delenv("CHOWFORGE_PRIME_DEFAULT")
    assert default_prime() == 1_000_003


def test_all_symbolic_skips_numeric_only_scenarios():
    report = build_report(RunConfig(scenario="all", genus="symbolic"))
    names = [s["scenario"] for s in report["scenarios"]]
    assert "general_position" not in names and "curve_conditions" not in names
    skipped = {s["scenario"] for s in report["skipped"]}
    assert skipped == {"general_position", "curve_conditions"}
    numeric = build_report(RunConfig(scenario="all", genus=2))
    assert {s["scenario"] for s in numeric["scenarios"]} >= {
        "general_position",
        "curve_conditions",
    }
