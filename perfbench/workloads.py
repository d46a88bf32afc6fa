"""The benchmark's five workloads.

Each workload is a fixed batch of operations that the runner repeats in a
closed loop (one caller; the next operation starts when the previous one
ends).  The seed fixes the inputs and their order.  A workload has:

- ``setup()``: program-side set-up (what ``setup_s`` measures);
- ``expect()``: the benchmark's own expected outputs, computed untimed;
- ``ops()``: the batch, a list of ``(label, callable)``;
- ``check(label, output)``: whether one output is correct, evaluated untimed.

Why these five: each planned optimisation hits a different module, so each
module has a workload where it does most of the work and one where it idles.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from traced_cli import TRACE_MARKER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NF_PINNED = Path(__file__).resolve().parent / "nf_pinned.json"
PRIME = 1_000_003

# Pinned i_g1 displays the derivation does not reproduce (acceptance c05).
KNOWN_RED = frozenset(
    ("i_g1", claim)
    for claim in ("pbtrel", "rel1", "final_relation_delta_psi1", "final_relation_psi1_squared")
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def expected_determinant(n: int) -> list[int]:
    """Ascending integer coefficients of (2g-2)^n (2g)^C(n,2), expanded here
    independently of the library's polynomial arithmetic."""
    coeffs = [1]
    for _ in range(n):
        coeffs = _int_poly_mul(coeffs, [-2, 2])
    for _ in range(n * (n - 1) // 2):
        coeffs = _int_poly_mul(coeffs, [0, 2])
    return coeffs


class CliReportSweep:
    """One operation is one real ``chowforge --scenario all --format json``
    process: first symbolic against the goldens, then one per numeric genus.

    The user's path: interpreter start, import, every scenario, ring
    completion in about half of it.  Per-process caches die with each process.
    """

    name = "cli_report_sweep"
    batch_s = 2.3  # batch time at the reference host's speed
    genera = tuple(range(2, 10))

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None  # set by a traced run: children then report their spans

    def setup(self):
        import chowforge.cli  # noqa: F401  (the whole package, as the CLI loads it)

    def expect(self):
        from chowforge.scenarios import (
            scenario_A1_vanishing,
            scenario_I_g0,
            scenario_I_g1,
            scenario_R2,
            scenario_Wn,
        )

        self.golden = (ROOT / "goldens" / "all.json").read_text()
        golden_report = json.loads(self.golden)
        self.golden_exit = 0 if golden_report["all_checks_pass"] else 1
        # The CLI runs every scenario at n = 3; a numeric genus picks one
        # a1_vanishing branch.
        symbolic = {
            "i_g0": scenario_I_g0(),
            "i_g1": scenario_I_g1(),
            "w_n": scenario_Wn(3),
            "r2": scenario_R2(3),
            "small_n": scenario_A1_vanishing(3, branch="small_n"),
            "large_n": scenario_A1_vanishing(3, branch="large_n"),
        }
        self.derived = {}
        for g in self.genera:
            per = {}
            for key, report in symbolic.items():
                rels = [str(r.specialize(g)) for r in report.derived_relations]
                if key in ("small_n", "large_n"):
                    if (key == "small_n") == (3 <= g):
                        per["a1_vanishing"] = rels
                else:
                    per[key] = rels
            self.derived[g] = per

    def _argv(self, genus, op_id):
        args = ["--scenario", "all", "--genus", str(genus), "--format", "json"]
        if genus == "symbolic":
            args += ["--golden-dir", "goldens"]
        else:
            args += ["--seed", str(self.seed)]
        if self.tracer is not None:
            return [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(op_id)] + args
        return [sys.executable, "-m", "chowforge.cli"] + args

    def _run(self, genus, op_id):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            self._argv(genus, op_id), cwd=ROOT, env=env, capture_output=True, text=True
        )
        stderr = proc.stderr
        if self.tracer is not None:
            stderr, _, snap = stderr.rpartition(TRACE_MARKER)
            self.tracer.merge(json.loads(snap))
        return proc.returncode, proc.stdout, stderr

    def ops(self):
        order = ["symbolic"] + list(self.genera)
        return [(f"genus={g}", lambda op_id, g=g: self._run(g, op_id)) for g in order]

    def check(self, label, output) -> bool:
        code, stdout, _ = output
        genus = label.split("=", 1)[1]
        if genus == "symbolic":
            expected = self.golden + "golden comparison: no differences\n"
            return stdout == expected and code == self.golden_exit
        g = int(genus)
        try:
            report = json.loads(stdout)
        except ValueError:
            return False
        failing = {
            (out["scenario"], c["claim_id"])
            for out in report["scenarios"]
            for c in out.get("checks", [])
            if not c["pass"]
        }
        derived = {
            out["scenario"]: out["derived_relations"]
            for out in report["scenarios"]
            if "derived_relations" in out
        }
        return (
            code == (1 if failing else 0)
            and failing <= KNOWN_RED
            and report["config"]["genus"] == g
            and len(report["scenarios"]) == 8
            and derived == self.derived[g]
        )


class R2Completion:
    """One operation is ``scenario_R2(n, genus)`` on one of three
    presentations.  Completion over Q(g) and over Q is nearly all of the
    time; testcurves and points stay idle."""

    name = "r2_completion"
    batch_s = 0.7  # batch time at the reference host's speed
    # Three sizes, each 1.3-1.8 times the cost of the one before: symbolic
    # n = 3, g = 2 with n = 5, symbolic n = 4.  A 12 s run times 17 batches,
    # 51 operations: the median falls in the middle of the 17 g = 2
    # completions and the tail (ten operations beyond it, p80) on the
    # seventh-fastest of the 17 symbolic n = 4 ones, never on the boundary
    # between two sizes, where it would move from run to run.  The larger
    # sizes of the paper's grid (symbolic n = 6, 8 and g = 2 with n = 8, 10,
    # 1-4 s each) leave too few operations in a run for a tail.
    grid = (("symbolic", 3), (2, 5), ("symbolic", 4))

    def __init__(self, seed: int):
        self.order = list(self.grid)
        random.Random(f"{self.name}:{seed}").shuffle(self.order)

    def setup(self):
        import chowforge.scenarios  # noqa: F401

    def expect(self):
        pass

    def ops(self):
        from chowforge.scenarios import scenario_R2

        return [
            (f"n={n} genus={g}", lambda op_id, n=n, g=g: scenario_R2(n, g))
            for g, n in self.order
        ]

    def check(self, label, output) -> bool:
        return output.all_pass() and len(output.checks) == 4


def _monomials(weights, top):
    """Exponent tuples of weighted degree at most ``top``."""
    if not weights:
        return [()]
    return [
        (e,) + rest
        for e in range(top // weights[0] + 1)
        for rest in _monomials(weights[1:], top - e * weights[0])
    ]


def _random_element(rng, ring, monomials):
    """Eight terms with small rational-function coefficients."""
    from chowforge.rationals import RatFunc, UniPoly

    return ring.element({
        exps: RatFunc(
            UniPoly([rng.randint(-5, 5), rng.randint(1, 2)]),
            UniPoly([rng.randint(1, 3), rng.randint(0, 1)]),
        )
        for exps in rng.sample(monomials, 8)
    })


def element_to_json(e):
    return [
        [list(exps), [str(c) for c in coeff.num.coeffs], [str(c) for c in coeff.den.coeffs]]
        for exps, coeff in sorted(e.terms.items())
    ]


def element_from_json(ring, terms):
    from chowforge.rationals import RatFunc, UniPoly

    return ring.element({
        tuple(exps): RatFunc(UniPoly([Fraction(c) for c in num]), UniPoly([Fraction(c) for c in den]))
        for exps, num, den in terms
    })


class NfQueries:
    """One operation is one ``RingPresentation.normal_form`` of a seeded random
    element with rational-function coefficients, on the four presentations
    of the c15 property suite.  The ring layer is read, not completed.
    Every element has eight terms of weighted degree at most 3, so the cost
    of one query is bounded.

    Each batch holds ``fresh`` new elements per presentation, drawn from the
    seed, and the ``pinned`` elements per presentation whose normal forms at
    the commit that defined the benchmark are stored in ``nf_pinned.json``
    (written by ``pin_nf.py``).  Every output is checked to be reduced (no
    term divisible by a leading monomial of the Groebner basis) and fixed by
    ``normal_form``; a pinned output must also equal its stored form."""

    name = "nf_queries"
    batch_s = 1.1  # batch time at the reference host's speed
    fresh = 115
    pinned = 10

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from chowforge.chern import standard_context
        from chowforge.scenarios import scenario_I_g1, scenario_R2, scenario_Wn

        self.presentations = [
            ("ctx", standard_context().presentation),
            ("i_g1", scenario_I_g1().final_presentation),
            ("w_n", scenario_Wn(2).final_presentation),
            ("r2", scenario_R2(2).final_presentation),
        ]

    def expect(self):
        self.rng = random.Random(f"{self.name}:{self.seed}")
        self.presentation_of = dict(self.presentations)
        self.leads = {
            key: [b.leading_exponent() for b in pres.groebner_basis]
            for key, pres in self.presentations
        }
        self.monomials = {
            key: _monomials([g.degree for g in pres.ring.generators], 3)
            for key, pres in self.presentations
        }
        stored = json.loads(NF_PINNED.read_text())
        self.pinned_inputs, self.pinned_forms = {}, {}
        for key, pres in self.presentations:
            inputs = self.pinned_elements(key, pres)
            for i, e in enumerate(inputs):
                label = f"{key} pinned={i}"
                self.pinned_inputs[label] = e
                self.pinned_forms[label] = element_from_json(pres.ring, stored[key][i])

    def pinned_elements(self, key, pres):
        """The pinned inputs of one presentation; the same for every seed."""
        rng = random.Random(f"{self.name}:pinned:{key}")
        monomials = _monomials([g.degree for g in pres.ring.generators], 3)
        return [_random_element(rng, pres.ring, monomials) for _ in range(self.pinned)]

    def ops(self):
        """A fresh batch of queries: the latency tail then rests on many
        elements rather than on the costliest few repeated in every batch."""
        queries = [
            (key, pres, _random_element(self.rng, pres.ring, self.monomials[key]))
            for key, pres in self.presentations
            for _ in range(self.fresh)
        ]
        queries += [
            (label, self.presentation_of[label.split(" ")[0]], e)
            for label, e in self.pinned_inputs.items()
        ]
        self.rng.shuffle(queries)
        return [(label, lambda op_id, p=pres, e=e: p.normal_form(e)) for label, pres, e in queries]

    def check(self, label, output) -> bool:
        key = label.split(" ")[0]
        reduced = not any(
            all(x >= y for x, y in zip(exps, lead))
            for exps in output.terms
            for lead in self.leads[key]
        )
        if label in self.pinned_forms and output != self.pinned_forms[label]:
            return False
        return reduced and self.presentation_of[key].normal_form(output) == output


class TestcurveCertify:
    """One operation is ``certify_full_rank(intersection_matrix("symbolic", n))``
    for one n in 1..5, or the numeric ranks of one integer genus in 2..10 for
    n = 1..6 (the c10 load).  Polynomial-matrix determinants do the work; the
    ring layer is never called.

    c10 also certifies n = 6, which alone takes three times the rest of the
    batch: with it a run holds only four batches, and the latency tail then
    falls on a different kind of operation from run to run."""

    name = "testcurve_certify"
    batch_s = 1.0  # batch time at the reference host's speed
    sizes = tuple(range(1, 6))
    rank_sizes = tuple(range(1, 7))
    genera = tuple(range(2, 11))

    def __init__(self, seed: int):
        self.order = [("certify", n) for n in self.sizes] + [("rank", g) for g in self.genera]
        random.Random(f"{self.name}:{seed}").shuffle(self.order)

    def setup(self):
        import chowforge.testcurves  # noqa: F401

    def expect(self):
        self.determinants = {n: expected_determinant(n) for n in self.sizes}

    @staticmethod
    def _ranks(g0):
        from chowforge.testcurves import intersection_matrix, rank_numeric

        out = []
        for n in TestcurveCertify.rank_sizes:
            m = intersection_matrix(g0, n)
            q = [[Fraction(str(e)) for e in row] for row in m.entries]
            out.append((rank_numeric(q), m.size))
        return out

    def ops(self):
        from chowforge.testcurves import certify_full_rank, intersection_matrix

        ops = []
        for kind, k in self.order:
            if kind == "certify":
                ops.append((f"certify n={k}",
                            lambda op_id, n=k: certify_full_rank(intersection_matrix("symbolic", n))))
            else:
                ops.append((f"rank genus={k}", lambda op_id, g=k: self._ranks(g)))
        return ops

    def check(self, label, output) -> bool:
        kind, arg = label.split(" ")
        value = int(arg.split("=")[1])
        if kind == "rank":
            return len(output) == len(self.rank_sizes) and all(r == s for r, s in output)
        expected = [Fraction(c) for c in self.determinants[value]]
        det = list(output.determinant.coeffs)
        return output.certified and (det == expected or det == [-c for c in expected])


class PointWitness:
    """One operation is, for each genus in 8, 16, 24, 32, one seeded curve
    sample with ``2g+5`` points, its evaluation matrix and F_p rank, then one
    extremal ``check_general_position(g, 3g+6)``.  Only F_p integer arithmetic
    runs.  Every operation covers all four genera, so operations cost alike
    and their latency percentiles do not depend on how many batches ran."""

    name = "point_witness"
    batch_s = 1.8  # batch time at the reference host's speed
    genera = (8, 16, 24, 32)
    curves = 10

    def __init__(self, seed: int):
        if not is_prime(PRIME):
            raise ValueError(f"modulus {PRIME} is not prime")
        self.seed = seed

    def setup(self):
        import chowforge.points  # noqa: F401

    def expect(self):
        self.expected = [(2 * g + 5, "PASS") for g in self.genera]

    def _witness(self, seed):
        from chowforge.points import (
            PointCondition,
            PointConfig,
            check_general_position,
            evaluation_matrix,
            rank_exact,
            sample_curve_points,
        )

        out = []
        for g in self.genera:
            _, pts = sample_curve_points(g, 2 * g + 5, prime=PRIME, seed=seed)
            cfg = PointConfig(tuple(PointCondition(p) for p in pts), prime=PRIME)
            rank = rank_exact(evaluation_matrix(cfg, g), PRIME)
            verdict = check_general_position(g, 3 * g + 6, seed=seed, prime=PRIME)
            out.append((rank, verdict.status))
        return out

    def ops(self):
        base = self.seed * self.curves
        return [
            (f"curve={s}", lambda op_id, s=s: self._witness(s))
            for s in range(base, base + self.curves)
        ]

    def check(self, label, output) -> bool:
        return output == self.expected


WORKLOADS = {
    w.name: w for w in (CliReportSweep, R2Completion, NfQueries, TestcurveCertify, PointWitness)
}
