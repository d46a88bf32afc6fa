"""Scenario pipelines: presentations, pinned checks, and cross-consistency."""

from fractions import Fraction

import pytest

from chowforge import scenarios
from chowforge.cli import RunConfig, build_report
from chowforge.rationals import PoleAtPoint, UniPoly, sturm_roots_geq
from chowforge.scenarios import (
    BadN,
    Report,
    edidin_hu_classes,
    genus_poly,
    one_point_constants,
    scenario_A1_vanishing,
    scenario_I_g0,
    scenario_I_g1,
    scenario_R2,
    scenario_Wn,
)
from chowforge.ring import Generator, PolyRing, RingPresentation

G = UniPoly.g()

# The one-pointed pinned displays that the mechanical derivation does not
# reproduce (documented defect; kept red on purpose).
KNOWN_FAILING_I_G1 = {
    "pbtrel",
    "rel1",
    "final_relation_delta_psi1",
    "final_relation_psi1_squared",
}


def failing_ids(report):
    return {c["claim_id"] for c in report.checks if not c["pass"]}


def test_genus_poly_validation():
    assert genus_poly("symbolic") == G
    assert genus_poly(3) == UniPoly.const(3)
    with pytest.raises(PoleAtPoint):
        genus_poly(1)
    with pytest.raises(ValueError):
        genus_poly("three")


def test_core_class_divisors_vanish_at_no_genus():
    """_core_classes divides by firstp's c2 coefficient, -8g(g-1)(g+1), and
    uses dclass's c1 coefficient, -2(2g+1)(g+1), as the delta multiplier.
    Neither has a root g >= 2, and genus_poly refuses every smaller genus,
    so neither vanishes at a genus a run can ask for."""
    ctx, firstp, _, _, dclass, _, _ = scenarios._core_classes(G)
    ring = ctx.ring
    b = firstp.coefficient(scenarios._exps(ring, c2=1))
    lam = dclass.coefficient(scenarios._exps(ring, c1=1))
    assert (b, lam) == (-8 * G * (G - 1) * (G + 1), -2 * (2 * G + 1) * (G + 1))
    for c in (b, lam):
        assert isinstance(c, UniPoly) and sturm_roots_geq(c, 2) == 0


def test_reports_do_not_share_containers():
    a, b = Report("a", 2), Report("b", 2)
    a.add_check("c", 1, 1)
    a.raw_relations.append(1)
    a.derived_relations.append(1)
    a.notes.append("note")
    a.extras["k"] = 1
    assert b.checks == b.raw_relations == b.derived_relations == b.notes == [] and b.extras == {}
    assert a.all_pass() and a.checks[0]["source"] == "pinned"


def test_i_g0_symbolic_all_pass():
    report = scenario_I_g0()
    assert report.all_pass(), failing_ids(report)
    assert report.extras["c2_over_c1_squared"] == "(g+1/2)/(g-1)"
    assert report.extras["delta_over_c1"] == "-4*g^2-6*g-2"


def test_i_g0_specialization_delta_multiplier():
    report = scenario_I_g0(genus=2)
    assert report.all_pass(), failing_ids(report)
    dclass = next(c for c in report.checks if c["claim_id"] == "dclass")
    assert dclass["actual"] == "-30*c1"


def test_i_g1_known_failures_are_exactly_the_pinned_displays():
    report = scenario_I_g1()
    assert failing_ids(report) == KNOWN_FAILING_I_G1
    for g0 in (2, 3, 4):
        assert failing_ids(scenario_I_g1(g0)) == KNOWN_FAILING_I_G1


def test_i_g1_final_presentation_structure():
    report = scenario_I_g1()
    final = report.final_presentation
    assert [final.graded_component_dim(d) for d in range(4)] == [1, 2, 1, 0]
    for rel in report.derived_relations:
        assert final.is_zero(rel)


def test_i_g0_and_i_g1_share_delta_cubed():
    r0, r1 = scenario_I_g0(), scenario_I_g1()
    assert "delta^3" in [str(r) for r in r0.derived_relations]
    assert "delta^3" in [str(r) for r in r1.derived_relations]


def test_one_point_constants():
    s, t = one_point_constants()
    assert str(s) == "(-1/2)/(g+1)"
    assert s(2) == Fraction(-1, 6)
    s2, t2 = one_point_constants(2)
    assert s2 == s(2) and t2 == t(2)


def test_all_report_derives_shared_classes_once():
    """i_g0, i_g1 and r2 build on the same classes: one `all` report derives
    the core classes and the one-pointed relations once each."""
    for cached in (scenarios._core_classes, scenarios._one_point_relations):
        cached.cache_clear()
    build_report(RunConfig("all"))
    for cached in (scenarios._core_classes, scenarios._one_point_relations):
        assert cached.cache_info().misses == 1


def test_cached_classes_do_not_leak_between_reports():
    """The second r2 report reads the cached one-pointed constants and must
    equal the first."""
    first, second = scenario_R2(3), scenario_R2(3)
    assert first.to_dict() == second.to_dict()


def test_wn_vanishing():
    for n in (2, 3):
        report = scenario_Wn(n)
        assert report.all_pass(), failing_ids(report)
    report = scenario_Wn(5, genus=3)
    assert report.all_pass(), failing_ids(report)
    assert "bound n <= 2g+2 recorded" in report.notes
    with pytest.raises(BadN):
        scenario_Wn(1)


@pytest.mark.parametrize("scenario, n", [("w_n", 8), ("a1_vanishing", 11), ("r2", 11)])
def test_past_bound_note_names_the_bound_a_geometric_input(scenario, n):
    """Past the paper's bound at g = 2 (n <= 2g+2 for w_n, 2g+6 for
    a1_vanishing and r2) every check still passes, and the note says that
    the bound is an input of the model rather than calling the run
    exploratory."""
    (report,) = build_report(RunConfig(scenario, genus=2, n=n))["scenarios"]
    assert report.all_pass(), failing_ids(report)
    k = 2 if scenario == "w_n" else 6
    assert report.notes == [f"bound n <= 2g+{k} exceeded: n={n}, g=2; the bound is a geometric "
                            "input of the model, not a limit of the algebra"]
    (inside,) = build_report(RunConfig(scenario, genus=2, n=2 * 2 + k))["scenarios"]
    assert not any("exceeded" in note for note in inside.notes)


def test_wn_rests_on_the_derived_pushforward_relations(monkeypatch):
    """w_n takes firstp and secondp from the derivation: with the pinned
    displays replaced by a wrong relation, its report does not change."""
    expected = scenario_Wn(3).to_dict()
    for name in ("_expected_firstp", "_expected_secondp"):
        monkeypatch.setattr(scenarios, name, lambda ring, gp: ring.gen("c2"))
    assert scenario_Wn(3).to_dict() == expected


def test_a1_vanishing_both_branches_symbolic():
    report = scenario_A1_vanishing(3)
    assert report.extras["branches"] == ["small_n", "large_n"]
    assert report.all_pass(), failing_ids(report)


def test_a1_vanishing_numeric_branch_selection():
    small = scenario_A1_vanishing(3, genus=4)
    assert small.extras["branches"] == ["small_n"]
    pf = next(c for c in small.checks if c["claim_id"] == "pf_prime[small_n]")
    # e = g-n+1 = 2 so 2e-g+1 = 1.
    assert pf["actual"] == "zeta+c1-2*d1"
    large = scenario_A1_vanishing(5, genus=4)
    assert large.extras["branches"] == ["large_n"]
    assert large.all_pass(), failing_ids(large)
    with pytest.raises(ValueError, match="branch must be small_n or large_n"):
        scenario_A1_vanishing(3, branch="medium_n")
    with pytest.raises(BadN):
        scenario_A1_vanishing(0)


def test_r2_coefficient_and_dims():
    report = scenario_R2(2)
    assert report.all_pass(), failing_ids(report)
    coeff = next(c for c in report.checks if c["claim_id"] == "psi_i_psi_j_coefficient")
    assert coeff["expected"] == "(g+1)/(g^2-2*g+1)"
    # At g=3 the coefficient is (3+1)/(3-1)^2 = 1.
    r3 = scenario_R2(2, genus=3)
    coeff3 = next(c for c in r3.checks if c["claim_id"] == "psi_i_psi_j_coefficient")
    assert coeff3["actual"] == "1"
    with pytest.raises(BadN):
        scenario_R2(1)


def test_edidin_hu_classes_shape():
    ring = PolyRing([Generator("psi1"), Generator("psi2"), Generator("delta")])
    d_ii, d_ij = edidin_hu_classes(ring, 1, 2, G)
    # Every generator has degree 1, so a term's degree is its exponent sum.
    assert {sum(e) for e in d_ii.terms} == {sum(e) for e in d_ij.terms} == {1}
    product = d_ii * d_ij
    exps = [0] * ring.ngens
    exps[ring.index("psi1")] = 1
    exps[ring.index("psi2")] = 1
    coeff = product.coefficient(tuple(exps))
    assert str(coeff) == "(g+1)/(g^2-2*g+1)"


def test_reports_serialize_to_plain_dicts():
    import json

    for report in (scenario_I_g0(), scenario_I_g1(), scenario_Wn(2), scenario_R2(2)):
        blob = json.dumps(report.to_dict())
        assert '"checks"' in blob


def test_specialize_matches_numeric_run_spot_check():
    g0 = 3
    sym = scenario_I_g0()
    num = scenario_I_g0(genus=g0)
    sym_raw = [r.specialize(g0) for r in sym.raw_relations]
    assert [str(r) for r in sym_raw] == [str(r) for r in num.raw_relations]


@pytest.mark.parametrize("genus", [2, 3, 4, 5, 7])
def test_r2_at_the_paper_bound(genus):
    """The Chow ring of H_{g,n} is claimed for n <= 2g+6: r2 at that bound."""
    report = scenario_R2(2 * genus + 6, genus)
    assert report.all_pass(), failing_ids(report)


def _sympy_expr(e, gens, g, sympy):
    out = 0
    for exps, c in e.terms.items():
        num, den = (
            sum(sympy.Rational(x.numerator, x.denominator) * g**i for i, x in enumerate(p.coeffs))
            for p in (c.num, c.den)
        )
        out += num / den * sympy.Mul(*[v**k for v, k in zip(gens, exps)])
    return out


@pytest.mark.parametrize(
    "build",
    [
        lambda: scenario_R2(3),
        lambda: scenario_R2(4),
        lambda: scenario_R2(5, 2),
        lambda: scenario_I_g1(),
    ],
    ids=["r2_n3_symbolic", "r2_n4_symbolic", "r2_n5_g2", "i_g1_symbolic"],
)
def test_groebner_basis_matches_sympy(build):
    """Outside oracle: sympy's reduced grevlex basis, over Q(g) for symbolic
    genus and over Q for numeric genus.  Every generator here has degree 1,
    so the weighted order is sympy's plain grevlex."""
    sympy = pytest.importorskip("sympy")
    report = build()
    pres = RingPresentation(report.derived_relations[0].ring, report.derived_relations)
    assert all(gen.degree == 1 for gen in pres.ring.generators)
    g = sympy.Symbol("g")
    domain = sympy.QQ.frac_field(g) if report.input_genus == "symbolic" else sympy.QQ
    gens = sympy.symbols([gen.name for gen in pres.ring.generators])
    theirs = sympy.groebner(
        [_sympy_expr(r, gens, g, sympy) for r in pres.relations],
        *gens, order="grevlex", domain=domain,
    )
    ours = [sympy.Poly(_sympy_expr(b, gens, g, sympy), *gens, domain=domain)
            for b in pres.groebner_basis]
    assert {p.monic() for p in ours} == {p.monic() for p in theirs.polys}


def _at_n_points(monkeypatch, build, n, genus):
    """The report with every claim decided by completion at n points."""
    with monkeypatch.context() as m:
        m.setattr(scenarios, "_presentations", lambda ring, n, groups, rels: [RingPresentation(ring, rels)])
        return build(n, genus)


@pytest.mark.parametrize("build", [scenario_R2, scenario_Wn], ids=["r2", "w_n"])
@pytest.mark.parametrize("genus", ["symbolic", 2, 3])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_three_point_relations_rename_into_n_points(build, genus, n):
    """Every order-preserving injection [3] -> [n] maps each relation at 3
    points onto a relation at n points: the ideal at 3 points lies in the
    one at n after renaming."""
    from itertools import combinations

    small, full = build(3, genus).derived_relations, build(n, genus).derived_relations
    ring = full[0].ring
    targets = {frozenset(r.terms.items()) for r in full}
    for image in combinations(range(n), 3):
        for r in small:
            terms = {}
            for exps, c in r.terms.items():
                new = [0] * ring.ngens
                new[n:] = exps[3:]
                for a, i in enumerate(image):
                    new[i] = exps[a]
                terms[tuple(new)] = c
            assert frozenset(terms.items()) in targets, (image, str(r))


@pytest.mark.parametrize("build", [scenario_R2, scenario_Wn], ids=["r2", "w_n"])
@pytest.mark.parametrize("genus", ["symbolic", 2, 3, 5])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_three_point_presentation_decides_every_claim(monkeypatch, build, genus, n):
    """The checks, details and extras read from the presentation at 3
    points equal those of the presentation completed at n points."""
    report = build(n, genus)
    assert report.final_presentation.ring.ngens < report.derived_relations[0].ring.ngens
    assert report.to_dict() == _at_n_points(monkeypatch, build, n, genus).to_dict()


def test_r2_falls_back_to_n_points_when_three_do_not_certify(monkeypatch):
    """Without the boundary-product relation psi1*psi2*psi3 survives at 3
    points, so the claims are decided, and fail, at n points."""
    one_point_constants("symbolic")  # cached before the patch
    original = scenarios.edidin_hu_classes
    monkeypatch.setattr(scenarios, "edidin_hu_classes",
                        lambda ring, i, j, gp: (original(ring, i, j, gp)[0], ring.zero()))
    assert scenario_R2(3).final_presentation.graded_component_dim(3) > 0
    report = scenario_R2(6)
    assert report.final_presentation.ring.ngens == 7
    assert failing_ids(report) >= {"degree2_dim_at_most_1", "degree3_dim"}
    assert report.to_dict() == _at_n_points(monkeypatch, scenario_R2, 6, "symbolic").to_dict()
