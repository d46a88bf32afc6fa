"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py verdict PARENT.log CHANGE.log
    python3 perfbench/compare.py collect PARENT_DIR CHANGE_DIR OUT_DIR

A log is the standard output of one or more ``run.py`` runs, appended; the
i-th run of a workload in one log is paired with the i-th run of the same
workload in the other.  ``collect`` makes such logs: for every workload in
BENCHMARK.json it runs ``PAIRS`` pairs of ``run_seconds`` each, both
checkouts with the same seed, alternating which runs first.

For every (end-to-end metric, workload) pair ``verdict`` prints one of:

- ``better``: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither), its median beats the parent's by more than
  the parent's interquartile spread, and it fails no more operations;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- ``unresolved``: neither, and the parent's own spread is wider than the
  bound, unless every run of the change beats every run of the parent;
- ``same``: neither, and the spread is within the bound.

A workload with no runs in either log gets ``unresolved`` on every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PAIRS = 10  # the paired-run rule's 9-of-10 wins needs ten pairs


def read_log(path) -> dict:
    """{workload: [result, ...]} in the order the runs appear."""
    runs: dict = {}
    workload = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "provenance" in obj:
            workload = obj["provenance"]["workload"]
        elif workload is not None:
            runs.setdefault(workload, []).append(obj)
            workload = None
    return runs


def verdict(parent, change, better, bound) -> str:
    """One metric on one workload; ``parent`` and ``change`` are paired runs."""
    n = min(len(parent), len(change))
    if n < 2:
        return "unresolved"
    p, c = parent[:n], change[:n]

    def beats(x, y):
        return x < y if better == "lower" else x > y

    med_p, med_c = statistics.median(p), statistics.median(c)
    q = statistics.quantiles(p, n=4)
    iqr = q[2] - q[0]
    worse_by = (med_c - med_p if better == "lower" else med_p - med_c) / abs(med_p)
    if worse_by > bound:
        return "worse"
    wins = sum(beats(y, x) for x, y in zip(p, c))
    if n >= PAIRS and wins >= 0.9 * n and beats(med_c, med_p) and abs(med_c - med_p) > iqr:
        return "better"
    every = all(beats(y, x) for x in p for y in c)
    if iqr / abs(med_p) > bound and not every:
        return "unresolved"
    return "same"


def print_verdicts(parent_log, change_log) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parent, change = read_log(parent_log), read_log(change_log)
    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            print(f"{workload}: no runs in {'the parent' if not p_runs else 'the change'} log")
            for metric in spec["end_to_end"]:
                print(f"  {metric['name']:12s} unresolved")
            continue
        p_failed = sum(r["failed"] for r in p_runs[:n])
        c_failed = sum(r["failed"] for r in c_runs[:n])
        print(f"{workload}: {n} pairs; failed operations parent {p_failed}, change {c_failed}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs[:n]]
            c = [r["metrics"][name]["value"] for r in c_runs[:n]]
            v = verdict(p, c, metric["better"], metric["bound"])
            if v == "better" and c_failed > p_failed:
                v = "unresolved"
            worst = max(worst, v == "worse")
            print(f"  {name:12s} {v:10s} parent median {statistics.median(p):.6g}"
                  f"  change median {statistics.median(c):.6g} {metric['unit']}")
        if c_failed > p_failed:
            worst = 1
    return worst


def collect(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = json.loads(BENCHMARK.read_text())
    sides = {"parent": Path(args.parent_dir), "change": Path(args.change_dir)}
    for side in sides:
        (out / f"{side}.log").write_text("")
    for workload in [w["name"] for w in spec["workloads"]]:
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = spec["command"] + ["--workload", workload, "--seed", str(i + 1),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
                with open(out / f"{side}.log", "a") as fh:
                    fh.write(proc.stdout)
                if proc.returncode not in (0, 1):
                    sys.stderr.write(proc.stderr)
                    return 2
    return print_verdicts(out / "parent.log", out / "change.log")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    v = sub.add_parser("verdict")
    v.add_argument("parent_log")
    v.add_argument("change_log")
    c = sub.add_parser("collect")
    c.add_argument("parent_dir")
    c.add_argument("change_dir")
    c.add_argument("out_dir")
    args = parser.parse_args(argv)
    if args.cmd == "verdict":
        return print_verdicts(args.parent_log, args.change_log)
    return collect(args)


if __name__ == "__main__":
    raise SystemExit(main())
