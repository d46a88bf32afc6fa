"""Command-line front end: scenario selection, symbolic or specialized genus,
text/JSON report emission, and golden-file comparison.

Exit status: 0 when every check passes, 1 when any check fails or a golden
comparison differs, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .points import (
    BoundViolated,
    DEFAULT_PRIME,
    PointCondition,
    PointConfig,
    check_general_position,
    evaluation_matrix,
    rank_exact,
    require_odd_prime,
    riemann_roch_counts,
    sample_curve_points,
)
from .rationals import PoleAtPoint, poly_str
from .scenarios import (
    scenario_A1_vanishing,
    scenario_I_g0,
    scenario_I_g1,
    scenario_R2,
    scenario_Wn,
)
from .testcurves import block_change_of_basis, certify_full_rank, intersection_matrix

SCHEMA_VERSION = 1

SCENARIOS = (
    "i_g0",
    "i_g1",
    "w_n",
    "a1_vanishing",
    "r2",
    "test_matrix",
    "general_position",
    "curve_conditions",
)

NUMERIC_ONLY = {"general_position", "curve_conditions"}


class MissingGolden(FileNotFoundError):
    """Raised when a golden file for a scenario does not exist."""


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    genus: object = "symbolic"  # "symbolic" or int >= 2
    n: int = 3
    seed: int = 0
    trials: int = 20
    prime: int = DEFAULT_PRIME
    format: str = "text"
    golden_dir: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS + ("all",):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.genus != "symbolic":
            if not isinstance(self.genus, int) or self.genus < 2:
                raise ValueError("numeric genus must be an integer >= 2")
        require_odd_prime(self.prime)
        if self.format not in ("text", "json"):
            raise ValueError("format must be text or json")


def default_prime() -> int:
    env = os.environ.get("CHOWFORGE_PRIME_DEFAULT")
    if not env:
        return DEFAULT_PRIME
    prime = int(env)
    require_odd_prime(prime)
    return prime


def _matrix_text(m) -> str:
    """Space-separated table: one header line naming rows and columns, then
    one line of entries per test curve."""
    header = f"# rows: {' '.join(m.row_labels)} | cols: {' '.join(m.col_labels)}"
    body = [" ".join(poly_str(e) for e in row) for row in m.entries]
    return "\n".join([header] + body) + "\n"


def _matrix_scenario(cfg: RunConfig) -> dict:
    m = intersection_matrix(cfg.genus, cfg.n)
    b = block_change_of_basis(m)
    cert = certify_full_rank(m)
    checks = []

    def add(claim, expected, actual):
        checks.append(
            {
                "claim_id": claim,
                "expected": str(expected),
                "actual": str(actual),
                "pass": str(expected) == str(actual),
                "source": "derived",
            }
        )

    det_abs = (
        cert.determinant
        if cert.determinant.is_zero or cert.determinant.leading > 0
        else -cert.determinant
    )
    if cfg.genus == "symbolic":
        add("determinant_matches_block_product",
            poly_str(cert.expected_determinant), poly_str(det_abs))
    else:
        add("determinant_matches_block_product",
            cert.expected_determinant(Fraction(cfg.genus)), det_abs(Fraction(0)))
    add("cross_check_agrees", True, cert.cross_check_agrees)
    add("no_real_roots_geq_2", 0, cert.roots_geq_2)
    add("certified_full_rank", True, cert.certified)
    return {
        "scenario": "test_matrix",
        "genus": cfg.genus,
        "n": cfg.n,
        "matrix": json.loads(m.to_json()),
        "block_form": json.loads(b.to_json()),
        "determinant": poly_str(cert.determinant),
        "checks": checks,
        "notes": [],
        "extras": {},
        "_text": _matrix_text(m) + "\n" + _matrix_text(b),
    }


def _general_position_scenario(cfg: RunConfig) -> dict:
    verdict = check_general_position(
        cfg.genus, cfg.n, seed=cfg.seed, trials=cfg.trials, prime=cfg.prime
    )
    return {
        "scenario": "general_position",
        "genus": cfg.genus,
        "n": cfg.n,
        "verdict": verdict.to_dict(),
        "checks": [
            {
                "claim_id": "general_position_full_rank",
                "expected": "PASS",
                "actual": verdict.status,
                "pass": verdict.status == "PASS",
                "source": "derived",
            }
        ],
        "notes": [verdict.note],
        "extras": {},
    }


def _curve_conditions_scenario(cfg: RunConfig) -> dict:
    g = cfg.genus
    count = 2 * g + 5
    form, pts = sample_curve_points(g, count, prime=cfg.prime, seed=cfg.seed)
    pc = PointConfig(tuple(PointCondition(pt) for pt in pts), prime=cfg.prime)
    rank = rank_exact(evaluation_matrix(pc, g), cfg.prime)
    rr = riemann_roch_counts(g)
    return {
        "scenario": "curve_conditions",
        "genus": g,
        "n": cfg.n,
        "count": count,
        "witness": {"seed": cfg.seed, "prime": cfg.prime, "points": pts, "rank": rank},
        "dimension_counts": rr,
        "checks": [
            {
                "claim_id": "curve_points_impose_independent_conditions",
                "expected": str(count),
                "actual": str(rank),
                "pass": rank == count,
                "source": "derived",
            }
        ],
        "notes": ["probabilistic one-sided check"],
        "extras": {},
    }


def run_scenario(name: str, cfg: RunConfig) -> dict:
    if name == "i_g0":
        return scenario_I_g0(cfg.genus).to_dict()
    if name == "i_g1":
        return scenario_I_g1(cfg.genus).to_dict()
    if name == "w_n":
        return scenario_Wn(cfg.n, cfg.genus).to_dict()
    if name == "a1_vanishing":
        return scenario_A1_vanishing(cfg.n, cfg.genus).to_dict()
    if name == "r2":
        return scenario_R2(cfg.n, cfg.genus).to_dict()
    if name == "test_matrix":
        return _matrix_scenario(cfg)
    if name == "general_position":
        return _general_position_scenario(cfg)
    if name == "curve_conditions":
        return _curve_conditions_scenario(cfg)
    raise ValueError(f"unknown scenario {name!r}")


def build_report(cfg: RunConfig) -> dict:
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
        outputs.append(run_scenario(name, cfg))
    all_pass = all(c["pass"] for out in outputs for c in out.get("checks", []))
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "scenario": cfg.scenario,
            "genus": cfg.genus,
            "n": cfg.n,
            "seed": cfg.seed,
            "trials": cfg.trials,
            "prime": cfg.prime,
        },
        "scenarios": outputs,
        "skipped": skipped,
        "all_checks_pass": all_pass,
    }


def canonical_json(report: dict) -> str:
    report = {k: v for k, v in report.items()}
    report["scenarios"] = [
        {k: v for k, v in out.items() if not k.startswith("_")} for out in report["scenarios"]
    ]
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def render_text(report: dict) -> str:
    lines = []
    cfg = report["config"]
    lines.append(
        f"chowforge report (schema {report['schema_version']}): "
        f"scenario={cfg['scenario']} genus={cfg['genus']} n={cfg['n']}"
    )
    for out in report["scenarios"]:
        lines.append("")
        lines.append(f"== {out['scenario']} ==")
        if "_text" in out:
            lines.append(out["_text"].rstrip())
        for c in out.get("checks", []):
            mark = "ok  " if c["pass"] else "FAIL"
            lines.append(f"  [{mark}] {c['claim_id']}: expected {c['expected']}")
            if not c["pass"]:
                lines.append(f"         actual   {c['actual']}")
        for note in out.get("notes", []):
            lines.append(f"  note: {note}")
    for sk in report.get("skipped", []):
        lines.append(f"skipped {sk['scenario']}: {sk['reason']}")
    lines.append("")
    lines.append("ALL CHECKS PASS" if report["all_checks_pass"] else "SOME CHECKS FAILED")
    return "\n".join(lines) + "\n"


def compare_golden(report: dict, golden_dir: str) -> tuple[int, str]:
    """Byte-exact comparison of the canonical JSON against the golden file
    named after the requested scenario.  Returns (exit_code, summary)."""
    scenario = report["config"]["scenario"]
    path = Path(golden_dir) / f"{scenario}.json"
    if not path.exists():
        raise MissingGolden(str(path))
    golden = path.read_text()
    current = canonical_json(report)
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
    parser.add_argument("--n", type=int, default=3, help="number of marked points")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--prime", type=int, default=default_prime())
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--golden-dir", default=None)
    args = parser.parse_args(argv)
    genus = args.genus if args.genus == "symbolic" else int(args.genus)
    return RunConfig(
        scenario=args.scenario,
        genus=genus,
        n=args.n,
        seed=args.seed,
        trials=args.trials,
        prime=args.prime,
        format=args.format,
        golden_dir=args.golden_dir,
    )


def main(argv=None) -> int:
    try:
        cfg = _parse_args(argv)
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        report = build_report(cfg)
    except (ValueError, BoundViolated, PoleAtPoint) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if cfg.format == "json":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write(render_text(report))
    if cfg.golden_dir is not None:
        try:
            code, summary = compare_golden(report, cfg.golden_dir)
        except MissingGolden as exc:
            print(f"configuration error: missing golden file {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(summary)
        if code != 0:
            return 1
    return 0 if report["all_checks_pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
