"""Command-line front end: scenario selection, symbolic or specialized genus,
text/JSON report emission, and golden-file comparison.

Exit status: 0 when every check passes, 1 when any check fails or a golden
comparison differs, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .points import (
    DEFAULT_PRIME,
    SamplingExhausted,
    Verdict,
    check_general_position,
    interpolation_rank,
    require_odd_prime,
    riemann_roch_counts,
    sample_curve_points,
)
from .rationals import poly_str
from .ring import NonterminatingHint
from .scenarios import (
    Report,
    scenario_A1_vanishing,
    scenario_I_g0,
    scenario_I_g1,
    scenario_R2,
    scenario_Wn,
)
from .testcurves import certify_full_rank, intersection_matrix

SCHEMA_VERSION = 1

NUMERIC_ONLY = {"general_position", "curve_conditions"}


class MissingGolden(FileNotFoundError):
    """Raised when a golden file for a scenario does not exist."""


class RunConfig:
    """One run's settings; genus is "symbolic" or an int >= 2.  The report
    echoes all but format and golden_dir."""

    __slots__ = ("scenario", "genus", "n", "seed", "trials", "prime", "format", "golden_dir")

    def __init__(self, scenario: str, genus="symbolic", n: int = 3, seed: int = 0,
                 trials: int = 20, prime: int = DEFAULT_PRIME, format: str = "text",
                 golden_dir: str | None = None):
        if scenario not in SCENARIOS + ("all",):
            raise ValueError(f"unknown scenario {scenario!r}")
        if genus != "symbolic":
            if not isinstance(genus, int) or genus < 2:
                raise ValueError("numeric genus must be an integer >= 2")
        if trials < 1:
            raise ValueError(f"need trials >= 1, got {trials}")
        require_odd_prime(prime)
        if format not in ("text", "json"):
            raise ValueError("format must be text or json")
        self.scenario, self.genus, self.n, self.seed = scenario, genus, n, seed
        self.trials, self.prime, self.format, self.golden_dir = trials, prime, format, golden_dir


def _matrix_text(d: dict) -> str:
    """Space-separated table of a matrix's to_dict() form: one header line
    naming rows and columns, then one line of entries per test curve."""
    header = f"# rows: {' '.join(d['rows'])} | cols: {' '.join(d['cols'])}"
    return "\n".join([header] + [" ".join(row) for row in d["entries"]]) + "\n"


def _matrix_scenario(cfg: RunConfig) -> Report:
    m = intersection_matrix(cfg.genus, cfg.n)
    cert = certify_full_rank(m)
    matrix, block_form = m.to_dict(), cert.block_form.to_dict()
    report = Report("test_matrix", cfg.genus, payload={
        "n": cfg.n,
        "matrix": matrix,
        "block_form": block_form,
        "determinant": poly_str(cert.determinant),
    }, text=_matrix_text(matrix) + "\n" + _matrix_text(block_form))
    det = cert.determinant
    det_abs = det if det.is_zero or det.leading > 0 else -det
    report.add_check("determinant_matches_block_product", cert.expected_determinant, det_abs,
                     source="derived")
    report.add_check("cross_check_agrees", True, cert.cross_check_agrees, source="derived")
    report.add_check("no_real_roots_geq_2", 0, cert.roots_geq_2, source="derived")
    report.add_check("certified_full_rank", True, cert.certified, source="derived")
    return report


def _general_position_scenario(cfg: RunConfig) -> Report:
    verdict = check_general_position(
        cfg.genus, cfg.n, seed=cfg.seed, trials=cfg.trials, prime=cfg.prime
    )
    fields = {"status": verdict.status, "target_rank": verdict.target_rank,
              "trials": verdict.trials, "witness": verdict.witness, "note": verdict.note}
    report = Report("general_position", cfg.genus,
                    payload={"n": cfg.n, "verdict": fields}, notes=[verdict.note])
    report.add_check("general_position_full_rank", "PASS", verdict.status, source="derived")
    return report


def _curve_conditions_scenario(cfg: RunConfig) -> Report:
    g = cfg.genus
    count = 2 * g + 5
    form, pts = sample_curve_points(g, count, prime=cfg.prime, seed=cfg.seed)
    rank = interpolation_rank([(x, y) for (x, _), (y, _) in pts], g, cfg.prime)
    report = Report("curve_conditions", g, payload={
        "n": cfg.n,
        "count": count,
        "witness": {"seed": cfg.seed, "prime": cfg.prime, "points": pts, "rank": rank},
        "dimension_counts": riemann_roch_counts(g),
    }, notes=[Verdict.note])
    report.add_check("curve_points_impose_independent_conditions", count, rank,
                     source="derived")
    return report


# Every scenario by name.  The lambdas look the scenario function up when
# called, so a wrapper later installed on the module attribute is seen.
SCENARIO_RUNNERS = {
    "i_g0": lambda cfg: scenario_I_g0(cfg.genus),
    "i_g1": lambda cfg: scenario_I_g1(cfg.genus),
    "w_n": lambda cfg: scenario_Wn(cfg.n, cfg.genus),
    "a1_vanishing": lambda cfg: scenario_A1_vanishing(cfg.n, cfg.genus),
    "r2": lambda cfg: scenario_R2(cfg.n, cfg.genus),
    "test_matrix": _matrix_scenario,
    "general_position": _general_position_scenario,
    "curve_conditions": _curve_conditions_scenario,
}

SCENARIOS = tuple(SCENARIO_RUNNERS)


def build_report(cfg: RunConfig) -> dict:
    """Run the configured scenarios.  The "scenarios" entry holds their Report
    objects, which canonical_json and render_text serialise."""
    names = SCENARIOS if cfg.scenario == "all" else (cfg.scenario,)
    outputs = []
    skipped = []
    for name in names:
        if cfg.genus == "symbolic" and name in NUMERIC_ONLY:
            if cfg.scenario == "all":
                skipped.append(
                    {"scenario": name, "reason": "requires numeric genus (prime-field run)"}
                )
                continue
            raise ValueError(f"scenario {name} requires --genus <integer>")
        outputs.append(SCENARIO_RUNNERS[name](cfg))
    all_pass = all(out.all_pass() for out in outputs)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {"scenario": cfg.scenario, "genus": cfg.genus, "n": cfg.n,
                   "seed": cfg.seed, "trials": cfg.trials, "prime": cfg.prime},
        "scenarios": outputs,
        "skipped": skipped,
        "all_checks_pass": all_pass,
    }


def canonical_json(report: dict) -> str:
    report = dict(report, scenarios=[out.to_dict() for out in report["scenarios"]])
    return json.dumps(report, indent=2) + "\n"


def render_text(report: dict) -> str:
    lines = []
    cfg = report["config"]
    lines.append(
        f"chowforge report (schema {report['schema_version']}): "
        f"scenario={cfg['scenario']} genus={cfg['genus']} n={cfg['n']}"
    )
    for out in report["scenarios"]:
        lines.append("")
        lines.append(f"== {out.scenario_id} ==")
        if out.text:
            lines.append(out.text.rstrip())
        for c in out.checks:
            mark = "ok  " if c["pass"] else "FAIL"
            lines.append(f"  [{mark}] {c['claim_id']}: expected {c['expected']}")
            if not c["pass"]:
                lines.append(f"         actual   {c['actual']}")
        for note in out.notes:
            lines.append(f"  note: {note}")
    for sk in report.get("skipped", []):
        lines.append(f"skipped {sk['scenario']}: {sk['reason']}")
    lines.append("")
    lines.append("ALL CHECKS PASS" if report["all_checks_pass"] else "SOME CHECKS FAILED")
    return "\n".join(lines) + "\n"


def compare_golden(scenario: str, current: str, golden_dir: str) -> tuple[int, str]:
    """Byte-exact comparison of a report's canonical JSON, `current`, against
    the golden file named after the requested scenario.  Returns
    (exit_code, summary)."""
    path = Path(golden_dir) / f"{scenario}.json"
    if not path.exists():
        raise MissingGolden(str(path))
    golden = path.read_text()
    if golden == current:
        return 0, "golden comparison: no differences\n"
    g_lines = golden.splitlines()
    c_lines = current.splitlines()
    diffs = []
    claim = None
    for i in range(max(len(g_lines), len(c_lines))):
        gl = g_lines[i] if i < len(g_lines) else "<missing>"
        cl = c_lines[i] if i < len(c_lines) else "<missing>"
        if '"claim_id"' in cl:
            claim = cl.strip()
        if gl != cl:
            diffs.append(f"line {i + 1} ({claim or 'header'}): golden {gl.strip()!r} != {cl.strip()!r}")
            if len(diffs) >= 10:
                break
    return 1, "golden comparison differences:\n" + "\n".join(diffs) + "\n"


def _parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="chowforge",
        description="Exact symbolic intersection-theory scenario runner.",
    )
    parser.add_argument("--scenario", choices=SCENARIOS + ("all",), default="all")
    parser.add_argument("--genus", default="symbolic",
                        help='"symbolic" (default) or an integer >= 2')
    parser.add_argument("--n", type=int, default=None,
                        help="number of marked points (default 3; not for curve_conditions)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--golden-dir", default=None)
    args = parser.parse_args(argv)
    if args.scenario == "curve_conditions" and args.n is not None:
        raise ValueError("--n does not apply to curve_conditions, which samples 2g+5 points")
    if args.genus != "symbolic":
        args.genus = int(args.genus)
    # An absent --n or --golden-dir takes RunConfig's default.
    return RunConfig(**{k: v for k, v in vars(args).items() if v is not None})


def main(argv=None) -> int:
    try:
        cfg = _parse_args(argv)
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        report = build_report(cfg)
    except (ValueError, SamplingExhausted, NonterminatingHint) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    rendered = canonical_json(report) if cfg.format == "json" else render_text(report)
    sys.stdout.write(rendered)
    if cfg.golden_dir is not None:
        current = rendered if cfg.format == "json" else canonical_json(report)
        try:
            code, summary = compare_golden(cfg.scenario, current, cfg.golden_dir)
        except MissingGolden as exc:
            print(f"configuration error: missing golden file {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(summary)
        if code != 0:
            return 1
    return 0 if report["all_checks_pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
