"""Point/jet conditions on bidegree-(g+1, 2) forms: matrices, ranks, sampling."""

from fractions import Fraction

import pytest

from chowforge.points import (
    DEFAULT_PRIME,
    BadGenus,
    Bidegree,
    BoundViolated,
    CompositeModulus,
    FieldMismatch,
    HorizontalJet,
    PointAtChartBoundary,
    PointCondition,
    PointConfig,
    Simple,
    VerticalJet,
    _sqrt_mod,
    check_general_position,
    evaluation_matrix,
    is_prime,
    monomial_basis,
    rank_exact,
    riemann_roch_counts,
    sample_curve_points,
    tangency_config,
)

P = DEFAULT_PRIME


def test_monomial_basis_counts_and_order():
    b2 = monomial_basis(2)
    assert len(b2) == 12
    assert b2[0] == (3, 2)
    assert len(monomial_basis(3)) == 15
    with pytest.raises(BadGenus):
        monomial_basis(1)


def test_bidegree_validation():
    assert Bidegree.for_genus(4) == Bidegree(5, 2)
    with pytest.raises(BadGenus):
        Bidegree.for_genus(1)
    with pytest.raises(ValueError):
        Bidegree(5, 3)


def test_condition_row_counts():
    assert Simple().rows == 1
    assert HorizontalJet(3).rows == 3
    assert VerticalJet().rows == 2
    cfg = PointConfig(
        (
            PointCondition(((1, 1), (2, 1)), HorizontalJet(2)),
            PointCondition(((3, 1), (2, 1)), VerticalJet()),
            PointCondition(((4, 1), (5, 1))),
        ),
        prime=P,
    )
    assert cfg.total_rows == 5
    assert len(evaluation_matrix(cfg, 2)) == 5


def test_single_point_rank_one():
    cfg = PointConfig((PointCondition(((2, 1), (3, 1))),), prime=P)
    assert rank_exact(evaluation_matrix(cfg, 2), P) == 1


def test_duplicated_point_drops_rank():
    pt = PointCondition(((2, 1), (3, 1)))
    cfg = PointConfig((pt, pt), prime=P)
    assert rank_exact(evaluation_matrix(cfg, 2), P) == 1


def test_x2_tangency_config_full_rank():
    # g=2, n=2: a HorizontalJet(g-n+2 = 2) plus one simple point -> 3 rows.
    cfg = tangency_config(2, 2, seed=0)
    m = evaluation_matrix(cfg, 2)
    assert len(m) == 3
    assert rank_exact(m, P) == 3
    # Total rows g+1 in general (the degree of the ruling-line restriction).
    cfg3 = tangency_config(3, 2, seed=1)
    assert cfg3.total_rows == 4
    assert rank_exact(evaluation_matrix(cfg3, 3), P) == 4


def test_chart_independence_of_rank():
    over_q = PointConfig(
        (
            PointCondition(((Fraction(2), Fraction(1)), (Fraction(3), Fraction(1)))),
            PointCondition(((Fraction(4), Fraction(2)), (Fraction(3), Fraction(1)))),
        )
    )
    scaled = PointConfig(
        (
            PointCondition(((Fraction(2), Fraction(1)), (Fraction(3), Fraction(1)))),
            PointCondition(((Fraction(2), Fraction(1)), (Fraction(3), Fraction(1)))),
        )
    )
    # (4:2) and (2:1) are the same projective point: ranks must agree.
    assert rank_exact(evaluation_matrix(over_q, 2)) == rank_exact(
        evaluation_matrix(scaled, 2)
    )
    # The chart boundary point (1:0) is handled by the opposite chart.
    boundary = PointConfig((PointCondition(((1, 0), (3, 1))),), prime=P)
    assert rank_exact(evaluation_matrix(boundary, 2), P) == 1


def test_point_validation_errors():
    with pytest.raises(PointAtChartBoundary):
        PointCondition(((0, 0), (1, 1)))
    with pytest.raises(FieldMismatch):
        PointConfig((PointCondition(((Fraction(1, 2), 1), (1, 1))),), prime=P)
    with pytest.raises(ValueError):
        PointConfig(
            (
                PointCondition(((2, 1), (3, 1))),
                PointCondition(((4, 2), (5, 1))),
            ),
            prime=P,
            require_distinct_first=True,
        )


def test_general_position_extremal_cases():
    for g, n in ((2, 11), (3, 14)):
        verdict = check_general_position(g, n, seed=0, trials=20)
        assert verdict.status == "PASS"
        assert verdict.witness is not None
    with pytest.raises(BoundViolated):
        check_general_position(2, 13)
    # With the override the check runs instead of raising (ambient rank can
    # still reach 3g+6, so no particular verdict is asserted).
    exploratory = check_general_position(2, 13, allow_bound_violation=True, trials=2)
    assert exploratory.status in ("PASS", "FAIL")
    assert exploratory.target_rank == 12


def test_sample_curve_points_full_rank():
    g = 2
    coeffs, pts = sample_curve_points(g, 2 * g + 5, seed=0)
    assert len(coeffs) == 3 * g + 6
    assert len(pts) == 2 * g + 5
    cfg = PointConfig(tuple(PointCondition(p) for p in pts), prime=P)
    assert rank_exact(evaluation_matrix(cfg, g), P) == 2 * g + 5


def test_sample_curve_points_beyond_bound_exploratory():
    g = 2
    _, pts = sample_curve_points(g, 2 * g + 6, seed=0)
    cfg = PointConfig(tuple(PointCondition(p) for p in pts), prime=P)
    rank = rank_exact(evaluation_matrix(cfg, g), P)
    assert 2 * g + 5 <= rank <= 2 * g + 6


def test_riemann_roch_counts():
    assert riemann_roch_counts(2) == {
        "h0_ambient": 12,
        "h0_restricted": 11,
        "deg_N": 12,
        "kernel_dim": 1,
    }
    assert riemann_roch_counts(3) == {
        "h0_ambient": 15,
        "h0_restricted": 14,
        "deg_N": 16,
        "kernel_dim": 1,
    }
    with pytest.raises(BadGenus):
        riemann_roch_counts(1)


def test_is_prime_matches_trial_division():
    sieve = [n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1)) for n in range(3000)]
    assert [is_prime(n) for n in range(3000)] == sieve
    # Strong pseudoprimes to the smallest bases, and the default modulus.
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383):
        assert not is_prime(n)
    assert is_prime(DEFAULT_PRIME) and is_prime(2**61 - 1)
    assert not is_prime(1_000_001)
    # Beyond the proven range of the bases the test refuses to answer.
    with pytest.raises(CompositeModulus):
        is_prime(10**25)


def test_composite_modulus_rejected_by_entry_points():
    for prime in (9, 15, 1_000_001):
        with pytest.raises(CompositeModulus):
            sample_curve_points(2, 9, prime=prime)
        with pytest.raises(CompositeModulus):
            check_general_position(2, 5, prime=prime)


def test_sqrt_mod_non_residue_search_is_bounded():
    for p in (13, 17, 97, DEFAULT_PRIME, 998244353):
        for a in (1, 2, 4, 9):
            if pow(a, (p - 1) // 2, p) == 1:
                assert _sqrt_mod(a, p) ** 2 % p == a
    with pytest.raises(CompositeModulus):
        _sqrt_mod(1, 9)
