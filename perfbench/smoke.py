"""Self-checks of the benchmark harness (about ten seconds).

    python3 perfbench/smoke.py

Checks that a wrong expectation is counted as a failure, that the
nf_queries checks reject a normal form that returns its input or zero, that
the modulus guard rejects composites, that operations unfinished or
unchecked at the hard deadline are counted as failed, that wrappers see
calls made inside the package and report a missing boundary as 0 calls, and
that the metric names a run prints are the ones BENCHMARK.json declares.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    return ok


def main() -> int:
    run.import_chowforge()
    import signal

    signal.signal(signal.SIGALRM, run._on_alarm)
    results = []
    far = time.perf_counter() + 120

    results.append(check(
        workloads.is_prime(1_000_003)
        and not any(workloads.is_prime(n) for n in (1, 9, 15, 1_000_001, 561)),
        "primality guard accepts 1000003 and rejects 9, 15, 561 and 1000001 = 101*9901",
    ))

    workloads.PRIME = 1_000_001
    try:
        workloads.PointWitness(0)
        refused = False
    except ValueError:
        refused = True
    workloads.PRIME = 1_000_003
    results.append(check(refused, "point_witness refuses the composite modulus 1000001"))

    w = workloads.PointWitness(0)
    w.setup()
    w.expect()
    good = run.measure(w, 1, 60, far)
    results.append(check(good["failed"] == 0 and good["attempted"] == 10,
                         "correct expectations: 0 of 10 operations fail"))
    w.expected[0] = (w.expected[0][0] + 1, "PASS")
    bad = run.measure(w, 1, 60, far)
    results.append(check(bad["failed"] / bad["attempted"] > 0,
                         f"a wrong expected rank: fail_ratio {bad['failed']}/{bad['attempted']} > 0"))

    class Sleeper:
        def ops(self):
            return [(f"sleep{i}", lambda op_id: time.sleep(5)) for i in range(3)]

        def check(self, label, output):
            return True

    signal.setitimer(signal.ITIMER_REAL, 0.3)
    hung = run.measure(Sleeper(), 2, 60, time.perf_counter() + 0.3)
    results.append(check(hung["failed"] == 3 and hung["attempted"] == 3,
                         "hard deadline: the running operation and the rest of its batch fail"))

    class SlowCheck(Sleeper):
        def ops(self):
            return [(f"op{i}", lambda op_id: i) for i in range(3)]

        def check(self, label, output):
            time.sleep(5)
            return True

    signal.setitimer(signal.ITIMER_REAL, 0.3)
    unchecked = run.measure(SlowCheck(), 2, 60, time.perf_counter() + 0.3)
    results.append(check(unchecked["failed"] == 3 and unchecked["attempted"] == 3,
                         "hard deadline: outputs not yet checked fail"))

    nf = workloads.NfQueries(0)
    nf.setup()
    nf.expect()
    labels = list(nf.pinned_inputs)
    correct = all(
        nf.check(label, nf.presentation_of[label.split(" ")[0]].normal_form(e))
        for label, e in nf.pinned_inputs.items()
    )
    identity = sum(not nf.check(label, e) for label, e in nf.pinned_inputs.items())
    zero = sum(not nf.check(label, nf.pinned_inputs[label].ring.zero()) for label in labels)
    results.append(check(
        correct and identity == len(labels) and zero > 0.8 * len(labels),
        f"nf_queries: pinned forms pass; returning the input fails {identity}/{len(labels)},"
        f" returning 0 fails {zero}/{len(labels)}",
    ))

    extra = (("testcurves.no_such_boundary", "testcurves", "no_such_boundary", False),)
    tracer = tracing.Tracer(tracing.BOUNDARIES + extra)
    tracer.install()
    from chowforge.chern import standard_context

    standard_context()
    stats = tracer.stats
    results.append(check(
        stats["chern.standard_context"][0] == 1 and stats["ring.complete"][0] >= 1
        and stats["rationals.poly_gcd"][0] > 0,
        "wrappers see ring completion and gcds called from inside chern.standard_context",
    ))
    results.append(check(
        tracer.missing == ["testcurves.no_such_boundary"]
        and stats["testcurves.no_such_boundary"][0] == 0,
        "a boundary that does not exist reports 0 calls",
    ))

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = set(tracing.layer_metrics(tracing.Tracer().snapshot(), 1))
    per_layer |= {"trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s"}
    results.append(check(
        {m["name"] for m in spec["end_to_end"]} == {name for name, _ in run.END_TO_END}
        and {m["name"] for m in spec["per_layer"]} == per_layer
        and [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "metric and workload names match BENCHMARK.json",
    ))
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
