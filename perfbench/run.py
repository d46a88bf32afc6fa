"""perfbench: the chowforge benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

A run repeats the workload's fixed batch of operations in a closed loop and
checks every output, untimed.  The number of batches is fixed by the
workload and ``--seconds`` (see ``batch_count``), so every run times the
same kinds of operations.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics ``wall_s`` (median batch time),
  ``op_p50_s``, ``op_tail_s`` (latency with ten operations beyond it),
  ``peak_rss_mb`` and ``setup_s`` (median of 21 fresh processes that start
  the interpreter, import chowforge and run the workload's set-up);
- ``--trace 1``: per-layer metrics, per batch, from wrappers around each
  module's public functions (see ``tracing.py``), and the tracing overhead:
  half of the run is untraced, half traced.

Times are scaled to the speed of a reference host.  A shared 2-core Xeon VM
runs the same code up to 60% slower for seconds at a time, and there the
unscaled medians of ten runs spread by 20-30%.  A short fixed loop
(``calibrate``) is timed before and after every operation that ends at
least ``CALIBRATION_EVERY_S`` after the previous calibration, and each
latency is multiplied by ``CALIBRATION_REF_S`` over the mean of the two.  The
unscaled median batch time and the host's speed are printed with the result.

The line before the result holds the provenance, with the percentile and
sample count behind ``op_tail_s``; lines starting with ``#`` are for people.
``--workload all`` runs every workload, each in its own process.  The run
refuses to start unless chowforge is imported from this checkout's ``src/``.
``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

One alarm at ``HARD_LIMIT_S`` after process start covers the whole run.  If
it rings during an operation or the checks of its batch, the unfinished and
unchecked operations count as failed and the result is printed; if it rings
during set-up, the run prints no result and exits with code 3.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

PROCESS_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HARD_LIMIT_S = 150  # every run ends well inside 180 s, even when an operation hangs
SETUP_REPEATS = 21
# Host speed: the calibration loop's time on the reference host (2-core Xeon
# VM, Python 3.11) when undisturbed, and how often a run re-measures it.
CALIBRATION_REF_S = 0.0015
CALIBRATION_EVERY_S = 0.1
END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class Refused(RuntimeError):
    """The run cannot measure this checkout."""


class Deadline(BaseException):
    """Raised wherever the run is when its hard limit is reached."""


def _on_alarm(signum, frame):
    raise Deadline()


def import_chowforge():
    try:
        import chowforge
    except ImportError as exc:
        raise Refused(f"cannot import chowforge from {SRC}: {exc}") from None
    found = Path(chowforge.__file__).resolve().parent
    if found != (SRC / "chowforge").resolve():
        raise Refused(f"chowforge imported from {found}, not from {SRC}")
    return found


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "chowforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, chowforge_dir) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(os.getloadavg()),
        "chowforge_path": str(chowforge_dir),
    }


def setup_seconds(name: str, hard_deadline: float) -> float:
    """Median time, scaled to the reference host's speed, of fresh processes
    doing only the program's set-up."""
    times = []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(hard_deadline - start, 1e-3),
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise Refused(f"set-up of {name} failed:\n{proc.stderr}")
        after = calibrate()
        times.append(elapsed * 2 * CALIBRATION_REF_S / (before + after))
        before = after
    return statistics.median(times)


def _calibration_loop():
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        key = (i % 5, i % 3, i % 7)
        table[key] = table.get(key, 0) + acc.denominator % 97
    return acc, table


def calibrate() -> float:
    """Seconds the host takes now for a fixed pure-Python loop (mean of 3).

    The loop does the kind of work chowforge does (Fraction arithmetic, tuple
    keys, dicts), so a slowdown of the host shows in it as in the program.
    The mean, not the best, because an operation runs at the host's average
    speed, short stalls included."""
    start = time.perf_counter()
    for _ in range(3):
        _calibration_loop()
    return (time.perf_counter() - start) / 3


def batch_count(workload, seconds: float) -> int:
    """The number of batches that fills ``seconds`` at the reference host's speed.

    Fixed per workload and run length, so every run times the same operations
    and its percentiles fall on the same kind of operation."""
    return max(1, round(seconds / workload.batch_s))


@contextlib.contextmanager
def _paused(tracer):
    """Benchmark-side work (making inputs, checking outputs) is not traced."""
    if tracer is None:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


def measure(workload, batches, seconds, hard_deadline, tracer=None) -> dict:
    """Run ``batches`` batches in a closed loop, or fewer if the host is so
    slow that they would take more than twice ``seconds``.

    Every latency is scaled to the reference host's speed: it is multiplied
    by ``CALIBRATION_REF_S`` over the mean of the calibrations taken just
    before and just after the operation (at least every
    ``CALIBRATION_EVERY_S``, outside the timed region).  Outputs are checked
    after each batch, untimed and with tracing paused.  When the run's alarm
    raises ``Deadline``, the operations of the batch not yet run or checked
    count as failed, the running one with its time so far, and no further
    batch starts."""
    calibrations = [calibrate()]
    last_calibration = time.perf_counter()
    timed = []  # per batch: [(raw latency, index of the calibration before it)]
    attempted = failed = 0
    stop_after = time.perf_counter() + 2 * seconds
    for _ in range(batches):
        now = time.perf_counter()
        if now > stop_after or now >= hard_deadline:
            break
        latencies, pending, t0 = [], 0, None
        try:
            with _paused(tracer):
                ops = workload.ops()
            pending = len(ops)
            outputs = []
            for i, (label, fn) in enumerate(ops):
                op_id = f"{len(timed)}:{i}"
                if tracer is not None:
                    tracer.op_id = op_id
                t0 = time.perf_counter()
                try:
                    out = fn(op_id)
                except Exception as exc:  # a failed operation, counted below
                    out = exc
                end = time.perf_counter()
                latencies.append((end - t0, len(calibrations) - 1))
                outputs.append((label, out))
                t0 = None
                if end - last_calibration >= CALIBRATION_EVERY_S:
                    calibrations.append(calibrate())
                    last_calibration = time.perf_counter()
            with _paused(tracer):
                for label, out in outputs:
                    try:
                        ok = not isinstance(out, Exception) and workload.check(label, out)
                    except Exception:  # a malformed output is a wrong output
                        ok = False
                    attempted += 1
                    failed += not ok
                    pending -= 1
        except Deadline:
            if t0 is not None:
                latencies.append((time.perf_counter() - t0, len(calibrations) - 1))
            attempted += pending
            failed += pending
            stop_after = 0
        if latencies:
            timed.append(latencies)
            if latencies[-1][1] == len(calibrations) - 1:
                calibrations.append(calibrate())
                last_calibration = time.perf_counter()
    if not timed:
        raise Deadline()
    scaled = [
        [lat * 2 * CALIBRATION_REF_S / (calibrations[c] + calibrations[c + 1]) for lat, c in batch]
        for batch in timed
    ]
    return {
        "wall_s": statistics.median(sum(batch) for batch in scaled),
        "latencies": [lat for batch in scaled for lat in batch],
        "raw_wall_s": statistics.median(sum(lat for lat, _ in batch) for batch in timed),
        "host_speed": CALIBRATION_REF_S / statistics.median(calibrations),
        "batches": len(timed),
        "attempted": attempted,
        "failed": failed,
    }


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten operations beyond
    it; returns (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def run_workload(args) -> int:
    hard_deadline = PROCESS_START + HARD_LIMIT_S
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(hard_deadline - time.perf_counter(), 1e-3))
    try:
        prov, metrics, notes, attempted, failed = _measure_workload(args, hard_deadline)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    prov["loadavg_after"] = list(os.getloadavg())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for note in notes:
        print(f"# {note}")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"# {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _measure_workload(args, hard_deadline):
    chowforge_dir = import_chowforge()
    prov = provenance(args, chowforge_dir)
    try:
        workload = WORKLOADS[args.workload](args.seed)
    except ValueError as exc:  # an input that would give false results or hang
        raise Refused(str(exc)) from None
    workload.setup()
    workload.expect()
    setup_s = setup_seconds(args.workload, hard_deadline)
    gc.collect()

    if not args.trace:
        phase = measure(workload, batch_count(workload, args.seconds), args.seconds, hard_deadline)
        ru_who = resource.RUSAGE_CHILDREN if args.workload == "cli_report_sweep" else resource.RUSAGE_SELF
        tail, pct, count = tail_latency(phase["latencies"])
        values = {
            "wall_s": phase["wall_s"],
            "op_p50_s": statistics.median(phase["latencies"]),
            "op_tail_s": tail,
            "peak_rss_mb": resource.getrusage(ru_who).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        notes = [
            f"op_tail_s is the p{pct:.1f} latency of {count} operations",
            f"{phase['batches']} batches; unscaled median batch time {phase['raw_wall_s']:.6g} s;"
            f" host speed {phase['host_speed']:.3f} of the reference",
        ]
        attempted, failed = phase["attempted"], phase["failed"]
        prov["op_tail_percentile"] = pct
        prov["op_tail_samples"] = count
        prov["host_speed"] = phase["host_speed"]
        prov["unscaled_wall_s"] = phase["raw_wall_s"]
    else:
        half = batch_count(workload, args.seconds / 2)
        plain = measure(workload, half, args.seconds / 2, hard_deadline)
        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
        traced = measure(workload, half, args.seconds / 2, hard_deadline, tracer)
        untraced_wall, traced_wall = plain["wall_s"], traced["wall_s"]
        snap = tracer.snapshot()
        per_layer = layer_metrics(snap, traced["batches"])
        per_layer["trace.untraced_wall_s"] = (untraced_wall, "s")
        per_layer["trace.traced_wall_s"] = (traced_wall, "s")
        per_layer["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()}
        spans_path = write_spans(args, snap)
        notes = [f"spans written to {spans_path.relative_to(ROOT)}"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    return prov, metrics, notes, attempted, failed


def write_spans(args, snap) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    fields = ("id", "name", "start", "end", "parent", "op")
    spans = [dict(zip(fields, s)) for s in snap["spans"]]
    path.write_text(json.dumps({"missing": snap["missing"], "spans": spans}) + "\n")
    return path


def run_all(args) -> int:
    """Every workload, each in a fresh process so that set-up and peak
    memory are its own; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines:
            print(line)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        code = max(code, proc.returncode)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except (Deadline, subprocess.TimeoutExpired):
        print(f"perfbench: the {HARD_LIMIT_S} s limit was reached before any operation ran",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
