#!/usr/bin/env python3
"""Regenerate the committed golden reports in goldens/.

Each per-scenario golden file is the canonical JSON for one scenario at the
default configuration (symbolic genus where possible, genus 2 for the
numeric-only scenarios).  all_g2.json and all_g3.json pin the full report at
numeric genus.  Run from the repository root:

    python3 scripts/regenerate_goldens.py [goldens/]
"""

import sys
from pathlib import Path

from chowforge.cli import NUMERIC_ONLY, SCENARIOS, RunConfig, build_report, canonical_json

def golden_configs():
    """Yield (file name, RunConfig) for every committed golden report."""
    for scenario in SCENARIOS + ("all",):
        genus = 2 if scenario in NUMERIC_ONLY else "symbolic"
        yield f"{scenario}.json", RunConfig(scenario=scenario, genus=genus, format="json")
    for genus in (2, 3):
        yield f"all_g{genus}.json", RunConfig(scenario="all", genus=genus, format="json")


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("goldens")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, cfg in golden_configs():
        path = out_dir / name
        path.write_text(canonical_json(build_report(cfg)))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
