"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Criterion 5 is expected to fail: the shipped reference displays for the
one-pointed relations are not what the mechanical derivation produces.  The
scenario reports the mismatch honestly and this gate keeps it red rather than
weakening the pinned values (see the repository notes ledger).
"""

import random
import time
from fractions import Fraction

from chowforge.chern import (
    JetSpec,
    jet_line_factors,
    jet_top_chern,
    pushforward_p1,
    standard_context,
)
from chowforge.points import (
    BoundViolated,
    DEFAULT_PRIME,
    PointCondition,
    PointConfig,
    check_general_position,
    evaluation_matrix,
    rank_exact,
    riemann_roch_counts,
    sample_curve_points,
)
from chowforge.rationals import RatFunc, UniPoly, sturm_roots_geq
from chowforge.scenarios import (
    scenario_A1_vanishing,
    scenario_I_g0,
    scenario_I_g1,
    scenario_R2,
    scenario_Wn,
)
from chowforge.testcurves import (
    block_change_of_basis,
    certify_full_rank,
    family_ledger,
    intersection_matrix,
    rank_numeric,
    _pairs,
)

G = UniPoly.g()


def verdict(num: int, desc: str, ok: bool) -> None:
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def _core():
    ctx = standard_context()
    c3 = jet_top_chern(JetSpec(2 * G + 2, 2), ctx)
    return ctx, c3


def test_c01_first_pushforward_relation():
    start = time.monotonic()
    ctx, c3 = _core()
    firstp = pushforward_p1(c3, ctx)
    elapsed = time.monotonic() - start
    c1, c2 = ctx.ring.gen("c1"), ctx.ring.gen("c2")
    expected = (c1 * c1).scale(8 * G**3 + 12 * G**2 + 4 * G) + c2.scale(-8 * G**3 + 8 * G)
    verdict(1, "pushforward of the top jet class, under 1 s",
            firstp == expected and elapsed < 1.0)


def test_c02_second_pushforward_relation():
    ctx, c3 = _core()
    z, c1, c2 = ctx.fiber(), ctx.ring.gen("c1"), ctx.ring.gen("c2")
    secondp = pushforward_p1(ctx.presentation.normal_form(c3 * z), ctx)
    expected = (c1**3).scale(-8 * G**3 - 12 * G**2 - 4 * G) + (c1 * c2).scale(
        16 * G**3 + 12 * G**2 - 8 * G - 4
    )
    verdict(2, "pushforward of the z-twisted top jet class", secondp == expected)


def test_c03_delta_class():
    ctx = standard_context()
    dclass = pushforward_p1(jet_top_chern(JetSpec(2 * G + 2, 1), ctx), ctx)
    verdict(3, "boundary class as a multiple of c1",
            dclass == ctx.ring.gen("c1").scale(-4 * G**2 - 6 * G - 2))


def test_c04_unpointed_presentation():
    report = scenario_I_g0()
    dims_ok = all(
        c["pass"] for c in report.checks
        if c["claim_id"] in ("intermediate_dims_0_to_3", "final_dims_0_to_3")
    )
    verdict(4, "unpointed quotient is Q[delta]/(delta^3) with dims 1,1,1,0",
            dims_ok and report.all_pass())


def test_c05_one_pointed_pinned_relations():
    report = scenario_I_g1()
    pinned = {"pbtrel", "rel1", "final_relation_delta_psi1", "final_relation_psi1_squared"}
    results = {c["claim_id"]: c["pass"] for c in report.checks if c["claim_id"] in pinned}
    verdict(5, "one-pointed relations match the shipped reference displays",
            len(results) == 4 and all(results.values()))


def test_c06_single_fiber_stratum_vanishing():
    ok = all(scenario_Wn(n).all_pass() for n in (2, 3, 5))
    verdict(6, "single-fiber stratum: positive-degree classes vanish, n in {2,3,5}", ok)


def test_c07_degree_one_vanishing_both_branches():
    report = scenario_A1_vanishing(3)
    both = set(report.extras["branches"]) == {"small_n", "large_n"}
    verdict(7, "complement-divisor classes and degree-1 vanishing, both branches",
            both and report.all_pass())


def test_c08_degree_two_component():
    report = scenario_R2(2)
    coeff = next(c for c in report.checks if c["claim_id"] == "psi_i_psi_j_coefficient")
    dims = all(
        c["pass"] for c in report.checks
        if c["claim_id"] in ("degree2_dim_at_most_1", "degree3_dim")
    )
    verdict(8, "psi_i psi_j coefficient (g+1)/(g-1)^2; dim_2 <= 1; dim_3 = 0",
            coeff["pass"] and dims and report.all_pass())


def test_c09_three_point_table_and_block_form():
    m = intersection_matrix("symbolic", 3)
    one, zero, two = UniPoly.const(1), UniPoly.const(0), UniPoly.const(2)
    pairs = _pairs(3)
    expected = []
    for i in (1, 2, 3):
        row = [(2 * G) if k == i else one for k in (1, 2, 3)]
        row += [one if i in kl else zero for kl in pairs]
        expected.append(tuple(row))
    for i, j in pairs:
        row = [(4 * G + 1) if k in (i, j) else two for k in (1, 2, 3)]
        for k, l in pairs:
            overlap = len({i, j} & {k, l})
            row.append((2 * G + 2) if overlap == 2 else UniPoly.const(overlap))
        expected.append(tuple(row))
    table_ok = m.entries == tuple(expected)

    b = block_change_of_basis(m)
    block_ok = all(
        b.entry(i, j) == ((2 * G - 2) if i == j else zero)
        and b.entry(3 + i, j) == zero
        and b.entry(3 + i, 3 + j) == ((2 * G) if i == j else zero)
        for i in range(3)
        for j in range(3)
    )
    verdict(9, "n=3 intersection table entry-for-entry and its block form",
            table_ok and block_ok)


def test_c10_full_rank_certificates():
    start = time.monotonic()
    ok = True
    for n in range(1, 7):
        cert = certify_full_rank(intersection_matrix("symbolic", n))
        expected = (2 * G - 2) ** n * (2 * G) ** len(_pairs(n))
        ok &= cert.determinant in (expected, -expected)
        ok &= sturm_roots_geq(cert.determinant, Fraction(2)) == 0
        ok &= cert.certified
    for g0 in range(2, 11):
        for n in range(1, 7):
            m = intersection_matrix(g0, n)
            # At a numeric genus every entry is a constant UniPoly.
            ok &= all(e.degree <= 0 for row in m.entries for e in row)
            q = [[e.leading if e.degree == 0 else 0 for e in row] for row in m.entries]
            ok &= rank_numeric(q) == m.size
    elapsed = time.monotonic() - start
    verdict(10, "determinants, root counts, and numeric ranks, under 10 s",
            ok and elapsed < 10.0)


def test_c11_blowup_ledgers():
    ok = True
    for n in range(1, 7):
        led1 = family_ledger(G, n, (1,))
        ok &= led1.derived("sigma_1") == -(2 * G + n - 3)
        ok &= all(
            led1.derived(f"sigma_{k}") == UniPoly.const(-1) for k in range(2, n + 1)
        )
        if n >= 2:
            led2 = family_ledger(G, n, (1, 2))
            ok &= led2.derived("sigma_1") == -(4 * G + n - 2)
            ok &= led2.derived("sigma_2") == -(4 * G + n - 2)
            ok &= all(
                led2.derived(f"sigma_{k}") == UniPoly.const(-2)
                for k in range(3, n + 1)
            )
        # Derived declaratively: base minus the declared exceptional counts.
        for led in (led1,) + ((led2,) if n >= 2 else ()):
            for s, base in led.base_self_intersections.items():
                total = UniPoly.const(0)
                for c in led.exceptional_multiplicities[s].values():
                    total = total + (c if isinstance(c, UniPoly) else UniPoly.const(c))
                ok &= led.derived(s) == base - total
    verdict(11, "blow-up ledgers reproduce both families' self-intersections", ok)


def test_c12_riemann_roch_counts():
    ok = all(
        riemann_roch_counts(g)
        == {
            "h0_ambient": 3 * g + 6,
            "h0_restricted": 3 * g + 5,
            "deg_N": 4 * g + 4,
            "kernel_dim": 1,
        }
        for g in range(2, 11)
    )
    verdict(12, "dimension counts {3g+6, 3g+5, 4g+4, 1} for g in 2..10", ok)


def test_c13_curve_point_witnesses():
    start = time.monotonic()
    ok = True
    for g in (2, 3, 4):
        count = 2 * g + 5
        for seed in range(20):
            _, pts = sample_curve_points(g, count, seed=seed)
            cfg = PointConfig(tuple(PointCondition(p) for p in pts), prime=DEFAULT_PRIME)
            ok &= rank_exact(evaluation_matrix(cfg, g), DEFAULT_PRIME) == count
    elapsed = time.monotonic() - start
    verdict(13, "sampled curve points impose independent conditions, under 30 s",
            ok and elapsed < 30.0)


def test_c14_general_position_extremal():
    ok = all(
        check_general_position(g, n, seed=0, trials=20).status == "PASS"
        for g, n in ((2, 11), (3, 14), (4, 17))
    )
    for g, n in ((2, 13), (3, 16), (4, 19)):
        try:
            check_general_position(g, n)
            ok = False
        except BoundViolated:
            pass
    verdict(14, "extremal general-position cases pass; beyond-bound cases rejected", ok)


def _fuzz_presentations():
    ctx = standard_context()
    i_g1 = scenario_I_g1().final_presentation
    wn = scenario_Wn(2).final_presentation
    r2 = scenario_R2(2).final_presentation
    return [ctx.presentation, i_g1, wn, r2]


def _random_element(rng, ring):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 3) for _ in range(ring.ngens))
        coeff = RatFunc(
            UniPoly([rng.randint(-5, 5), rng.randint(-2, 2)]),
            UniPoly([rng.randint(1, 3), rng.randint(0, 1)]),
        )
        if not coeff.is_zero:
            terms[exps] = coeff
    return ring.element(terms)


def test_c15_property_suites():
    rng = random.Random("acceptance-properties")
    ok = True

    # Normal-form idempotence and linearity: 500 cases.
    presentations = _fuzz_presentations()
    for i in range(500):
        pres = presentations[i % len(presentations)]
        e1, e2 = _random_element(rng, pres.ring), _random_element(rng, pres.ring)
        a = RatFunc(rng.randint(-3, 3))
        nf1 = pres.normal_form(e1)
        ok &= pres.normal_form(nf1) == nf1
        ok &= pres.normal_form(e1 + e2) == nf1 + pres.normal_form(e2)
        ok &= pres.normal_form(e1.scale(a)) == nf1.scale(a)

    # Projection formula: 200 cases.
    ctx = standard_context()
    zi = ctx.ring.index("z")
    for _ in range(200):
        e = _random_element(rng, ctx.ring)
        x_terms = {
            exps: c for exps, c in _random_element(rng, ctx.ring).terms.items()
            if exps[zi] == 0
        }
        x = ctx.ring.element(x_terms)
        lhs = ctx.presentation.normal_form(
            pushforward_p1(ctx.presentation.normal_form(x * e), ctx)
        )
        rhs = ctx.presentation.normal_form(x * pushforward_p1(e, ctx))
        ok &= lhs == rhs

    # Filtration-order invariance: 100 cases.
    for _ in range(100):
        spec = JetSpec(UniPoly([rng.randint(-3, 3), rng.randint(-2, 2)]),
                       rng.randint(0, 4))
        factors = jet_line_factors(spec, ctx)
        rng.shuffle(factors)
        prod = ctx.ring.one()
        for f in factors:
            prod = prod * f
        ok &= ctx.presentation.normal_form(prod) == jet_top_chern(spec, ctx)

    # Specialize-commutes: symbolic run specialized at g equals the numeric run.
    def relations(report):
        return [str(r) for r in report.derived_relations]

    sym = {
        "i_g0": scenario_I_g0(),
        "i_g1": scenario_I_g1(),
        "w_n": scenario_Wn(3),
        "a1_small": scenario_A1_vanishing(2, branch="small_n"),
        "a1_large": scenario_A1_vanishing(2, branch="large_n"),
        "r2": scenario_R2(2),
    }
    for g0 in (2, 3, 4, 5):
        num = {
            "i_g0": scenario_I_g0(g0),
            "i_g1": scenario_I_g1(g0),
            "w_n": scenario_Wn(3, g0),
            "a1_small": scenario_A1_vanishing(2, g0, branch="small_n"),
            "a1_large": scenario_A1_vanishing(2, g0, branch="large_n"),
            "r2": scenario_R2(2, g0),
        }
        for name, report in sym.items():
            specialized = [str(r.specialize(g0)) for r in report.derived_relations]
            ok &= specialized == relations(num[name])

    verdict(15, "normal-form, projection, filtration, and specialization properties", ok)
