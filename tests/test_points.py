"""Point conditions on bidegree-(g+1, 2) forms over F_p: matrices, ranks, sampling."""

import hashlib
import random
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chowforge import points
from chowforge.points import (
    DEFAULT_PRIME,
    BadGenus,
    BoundViolated,
    CompositeModulus,
    FieldMismatch,
    PointAtChartBoundary,
    PointCondition,
    PointConfig,
    SamplingExhausted,
    _discriminant_mod,
    _distinct_randranges,
    _sqrt_mod,
    _square_free_mod,
    check_general_position,
    evaluation_matrix,
    interpolation_rank,
    is_prime,
    monomial_basis,
    rank_exact,
    riemann_roch_counts,
    sample_curve_points,
)
from chowforge.testcurves import rank_numeric

from test_ring import _rank_over_q

try:
    from sympy import GF, QQ, ZZ
    from sympy.polys.galoistools import gf_degree, gf_diff, gf_gcd, gf_mul, gf_sub_mul
    from sympy.polys.matrices import DomainMatrix
except ImportError:  # sympy is an optional second oracle
    DomainMatrix = gf_gcd = None

P = DEFAULT_PRIME


def test_monomial_basis_counts_and_order():
    b2 = monomial_basis(2)
    assert len(b2) == 12
    assert b2[0] == (3, 2)
    assert len(monomial_basis(3)) == 15
    with pytest.raises(BadGenus):
        monomial_basis(1)


def test_condition_row_counts():
    """Each point is one condition: one row per point, one column per basis
    monomial, and the conditions are kept as a tuple."""
    cfg = PointConfig(
        [
            PointCondition(((1, 1), (2, 1))),
            PointCondition(((3, 1), (2, 1))),
            PointCondition(((4, 1), (5, 1))),
        ],
        prime=P,
    )
    assert isinstance(cfg.conditions, tuple)
    m = evaluation_matrix(cfg, 2)
    assert len(m) == 3 and all(len(row) == 12 for row in m)


def test_single_point_rank_one():
    cfg = PointConfig((PointCondition(((2, 1), (3, 1))),), prime=P)
    assert rank_exact(evaluation_matrix(cfg, 2), P) == 1


def test_duplicated_point_drops_rank():
    pt = PointCondition(((2, 1), (3, 1)))
    cfg = PointConfig((pt, pt), prime=P)
    assert rank_exact(evaluation_matrix(cfg, 2), P) == 1


def test_chart_independence_of_rank():
    same = PointConfig(
        (
            PointCondition(((2, 1), (3, 1))),
            PointCondition(((4, 2), (3, 1))),
        ),
        prime=P,
    )
    scaled = PointConfig(
        (
            PointCondition(((2, 1), (3, 1))),
            PointCondition(((2, 1), (3, 1))),
        ),
        prime=P,
    )
    # (4:2) and (2:1) are the same projective point: rows and ranks agree.
    rows = evaluation_matrix(same, 2)
    assert rows == evaluation_matrix(scaled, 2) and rows[0] == rows[1]
    assert rank_exact(rows, P) == 1
    # The chart boundary point (1:0) is handled by the opposite chart, where
    # every multiple (c:0) gives the same row.
    boundary = PointConfig(
        (PointCondition(((1, 0), (3, 1))), PointCondition(((5, 0), (3, 1)))), prime=P
    )
    rows = evaluation_matrix(boundary, 2)
    assert rows[0] == rows[1] and rank_exact(rows, P) == 1


def test_point_validation_errors():
    with pytest.raises(PointAtChartBoundary, match="first-factor coordinates both zero"):
        PointCondition(((0, 0), (1, 1)))
    with pytest.raises(PointAtChartBoundary, match="second-factor coordinates both zero"):
        PointCondition(((1, 1), (0, 0)))
    with pytest.raises(FieldMismatch):
        PointConfig((PointCondition(((Fraction(1, 2), 1), (1, 1))),), prime=P)
    # Both coordinates zero mod p is no point of P^1 over F_p (it used to get
    # the row of [1:0]).
    for pair in ((P, 2 * P), (0, -P)):
        with pytest.raises(PointAtChartBoundary):
            PointConfig((PointCondition((pair, (3, 1))),), prime=P)
        with pytest.raises(PointAtChartBoundary):
            PointConfig((PointCondition(((3, 1), pair)),), prime=P)


def test_distinct_randranges_returns_count_distinct_residues():
    """check_general_position takes its first coordinates from here, so they
    are distinct by construction; count = p takes every residue."""
    for prime, count in ((7, 7), (11, 5), (P, 40)):
        for seed in range(5):
            xs = _distinct_randranges(random.Random(seed), count, prime)
            assert len(xs) == len(set(xs)) == count
            assert all(0 <= x < prime for x in xs)


def test_ragged_matrix_rejected():
    ragged = ([[1, 2, 3], [4, 5]], [[1], [2, 3]], [[], [1]], [[0], [0, 1]])
    for rank in (lambda m: rank_exact(m, P), lambda m: rank_exact(m, 3), rank_numeric):
        for m in ragged:
            with pytest.raises(ValueError, match="unequal lengths"):
                rank(m)
        assert rank([]) == 0
        assert rank([[], []]) == 0


def test_general_position_extremal_cases():
    for g, n in ((2, 11), (3, 14)):
        verdict = check_general_position(g, n, seed=0, trials=20)
        assert verdict.status == "PASS"
        assert verdict.witness is not None
    with pytest.raises(BoundViolated):
        check_general_position(2, 13)


def test_general_position_rejects_nonpositive_counts():
    """n < 1 or trials < 1 is a configuration error, not a FAIL verdict."""
    for n, trials in ((0, 20), (-3, 20), (3, 0), (3, -1)):
        with pytest.raises(ValueError):
            check_general_position(2, n, trials=trials)


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


def _has_point(coeffs, g, x, p):
    """Whether the sampler takes a point at first coordinate x on a form in
    monomial_basis order: A(x) != 0 and d(x) = B(x)^2 - 4A(x)C(x) is a
    nonzero square mod p."""
    terms = list(zip(monomial_basis(g), coeffs))
    a, b, c = (sum(k * x**alpha for (alpha, beta), k in terms if beta == e) % p for e in (2, 1, 0))
    d = (b * b - 4 * a * c) % p
    return a != 0 and d != 0 and pow(d, (p - 1) // 2, p) == 1


def test_sampler_stops_a_form_that_cannot_supply_its_points(monkeypatch):
    """The random stream is replaced by one that counts its draws and
    replays a smooth genus-3 form's 3g+6 coefficients mod 11, then its u
    usable first coordinates, then one unusable one, over and over.  With
    u < 11 the 11 points never exist: after the unusable draw the 11 - u
    points still needed outnumber the 10 - u untried residues, so each form
    must stop there instead of drawing the rest."""
    g, p, attempts = 3, 11, 50
    coeffs, _ = sample_curve_points(g, 1, prime=p)
    usable = [x for x in range(p) if _has_point(coeffs, g, x, p)]
    unusable = [x for x in range(p) if x not in usable]
    assert unusable
    script = coeffs + usable + unusable[:1]
    draws = []

    class Replay:
        def __init__(self, seed):
            pass

        def randrange(self, n):
            draws.append(script[len(draws) % len(script)])
            return draws[-1]

    monkeypatch.setattr(points, "random", types.SimpleNamespace(Random=Replay))
    monkeypatch.setattr(points, "SAMPLING_ATTEMPTS", attempts)
    with pytest.raises(SamplingExhausted):
        sample_curve_points(g, p, prime=p)
    assert len(draws) == attempts * len(script)


def test_sampler_budget_grows_with_count(monkeypatch):
    """Each form may draw 4 * count first coordinates when that exceeds
    SAMPLING_ATTEMPTS; a form that succeeds within the smaller budget draws
    the same points as before."""
    expected = sample_curve_points(8, 21)
    monkeypatch.setattr(points, "SAMPLING_ATTEMPTS", 10)
    assert sample_curve_points(8, 21) == expected


# sha256 of repr(sample_curve_points(g, 2g+5, prime=p, seed=s)), or the name
# of the exception it raises, keyed by (g, p, s).  They pin the draws, the
# forms kept and the points taken.  The values were computed with the
# schoolbook discriminant and the list Euclid (_poly_gcd_mod below).  The six
# at (2, 11), (2, 13) and (3, 13) were recomputed when a form began to stop
# once the points it still needs outnumber its untried residues, which moves
# the draws of the forms after it; each new output was checked to have
# distinct first coordinates on a smooth form (_form_oracle, form_is_smooth).
SAMPLE_DIGESTS = {
    (2, 7, 0): "ValueError",
    (2, 7, 1): "ValueError",
    (2, 11, 0): "21c2bd97130eb7d046529e5e768d498352b5a35f742c01e4ec9d91d2188ba510",
    (2, 11, 1): "d0a65580c18256da31be2953dd55fef31687eaf3588e6b863c4762fc6dbe38c7",
    (2, 13, 0): "7ca30640522d90e150909c61ad566fe21534486c069fa663d97bc453a2a3c58c",
    (2, 13, 1): "30b46a5ebd7d415c84ec5a6edeffdd0f6fa96a5ca0e54a6553ef940fae0f34f3",
    (2, 101, 0): "9b0625d8e05451505ca00d187014b63a7e7bd1e5f1208e99e14017b9dd908a7b",
    (2, 101, 1): "aac623b8d45da6f0215b9ef1b576f1a3819ca404667efb7d5c80608068b72821",
    (2, 1000003, 0): "9a02fdb4b8f2a3e875b7c0359888193cc2ab7c15237466101e794cdf69ee916f",
    (2, 1000003, 1): "c6d08d21f0a6a9c88e1b0630a439ecb78452f02e1ffa7641b8aca5934bde28b6",
    (3, 7, 0): "ValueError",
    (3, 7, 1): "ValueError",
    (3, 11, 0): "SamplingExhausted",
    (3, 11, 1): "SamplingExhausted",
    (3, 13, 0): "686b427b94632add99901da96e5e72526d5d1e82a466d1c19fd49419e4a12653",
    (3, 13, 1): "2207ac964db07eb0a553da546b3d2b0fa7b7519357163cae76468c471152d75f",
    (3, 101, 0): "a38f37cdaa6ea53b4d3554b5f2c21fbb9fa95440a244c7dac07804d7456d1bbd",
    (3, 101, 1): "c1e15f20e69866e9a7e5f89f10e9a9bf49cc9c428b1cc6337995e7cc6758a096",
    (3, 1000003, 0): "598d43081a8220c7d8bdbfa91f7e024695f1f447809c30d32618dd11fdc6068f",
    (3, 1000003, 1): "68293d3795c2f63f9640eba7a38e359e0266e63e5f3e81d63cf0e58dd3c1c8ba",
    (8, 7, 0): "ValueError",
    (8, 7, 1): "ValueError",
    (8, 11, 0): "ValueError",
    (8, 11, 1): "ValueError",
    (8, 13, 0): "ValueError",
    (8, 13, 1): "ValueError",
    (8, 101, 0): "96eeee768b1a465b468de6728b9656ee2e54b6fda430efa83f8f64f02bfda5fb",
    (8, 101, 1): "6666a02b1740f3cee0a36b96d18f379d60fb888b2221dd609a28e5dcecc6ded0",
    (8, 1000003, 0): "5696fa41105c7558dd549ff75d36351bf30f7b93912937400159d49e57c4ec09",
    (8, 1000003, 1): "1eeb7d870e237201ad1826f36f952201f9a9bcaadf5be195b3f8666badc68181",
    (32, 7, 0): "ValueError",
    (32, 7, 1): "ValueError",
    (32, 11, 0): "ValueError",
    (32, 11, 1): "ValueError",
    (32, 13, 0): "ValueError",
    (32, 13, 1): "ValueError",
    (32, 101, 0): "SamplingExhausted",
    (32, 101, 1): "SamplingExhausted",
    (32, 1000003, 0): "07b160b694792ae2264fba732925eda279eac9894fa21fdf7d302951b0e08b8b",
    (32, 1000003, 1): "09c02344494f60928acb11030e48cf0ddf1b941ad9952fe1ebccab2fd1046aab",
    (400, 7, 0): "ValueError",
    (400, 7, 1): "ValueError",
    (400, 11, 0): "ValueError",
    (400, 11, 1): "ValueError",
    (400, 13, 0): "ValueError",
    (400, 13, 1): "ValueError",
    (400, 101, 0): "ValueError",
    (400, 101, 1): "ValueError",
    (400, 1000003, 0): "1e5d113cf7fa4bb04862f5158c448614f6801d90441547f357374556b8b77aca",
    (400, 1000003, 1): "109d6d643cb788b039ad8849f75b391a0124d69214589ff75f43ef5be9cdc551",
}


@pytest.mark.parametrize("key", SAMPLE_DIGESTS, ids="g{0[0]}-p{0[1]}-s{0[2]}".format)
def test_sampler_output_is_pinned(key):
    g, p, seed = key
    try:
        result = sample_curve_points(g, 2 * g + 5, prime=p, seed=seed)
    except (ValueError, SamplingExhausted) as exc:
        digest = type(exc).__name__
    else:
        digest = hashlib.sha256(repr(result).encode()).hexdigest()
    assert digest == SAMPLE_DIGESTS[key]


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


def test_genus_one_rejected_by_entry_points():
    cfg = PointConfig((PointCondition(((2, 1), (3, 1))),), prime=P)
    for call in (lambda: evaluation_matrix(cfg, 1), lambda: check_general_position(1, 5),
                 lambda: sample_curve_points(1, 7)):
        with pytest.raises(BadGenus, match="genus 1 < 2"):
            call()


def test_composite_modulus_rejected_by_entry_points():
    # diag(2, 3) is singular mod 2 and mod 3, so a rank of 2 mod 6 would be
    # a false full-rank certificate.  Mod 9 a point config would get a wrong
    # evaluation matrix (2^7 is no inverse of 2), and mod 0 it divided by 0.
    for prime in (6, 9, 15, 0, 1, 1_000_001):
        with pytest.raises(CompositeModulus):
            sample_curve_points(2, 9, prime=prime)
        with pytest.raises(CompositeModulus):
            check_general_position(2, 5, prime=prime)
        with pytest.raises(CompositeModulus):
            rank_exact([[2, 0], [0, 3]], prime)
        with pytest.raises(CompositeModulus):
            PointConfig((PointCondition(((2, 1), (3, 1))),), prime=prime)
        with pytest.raises(CompositeModulus):
            interpolation_rank([(2, 3)], 2, prime)
    assert rank_exact([[2, 0], [0, 3]], DEFAULT_PRIME) == 2


def test_general_position_tests_the_modulus_once():
    """The primality test runs once per call, not once per trial."""
    is_prime.cache_clear()
    verdict = check_general_position(2, 11, prime=11)  # its first trial fails
    assert (verdict.status, verdict.trials, is_prime.cache_info().misses) == ("PASS", 2, 1)


def test_primality_is_cached_and_refusals_are_not():
    """A prime is tested once per process; a composite and a modulus past the
    test's bound are refused on every call."""
    for _ in range(2):
        with pytest.raises(CompositeModulus):
            sample_curve_points(2, 9, prime=1_000_001)
        with pytest.raises(CompositeModulus):
            rank_exact([[1]], 10**25)
    sample_curve_points(2, 9, prime=101)
    hits = is_prime.cache_info().hits
    sample_curve_points(2, 9, prime=101)
    assert is_prime.cache_info().hits == hits + 1


def test_sqrt_mod_non_residue_search_is_bounded():
    """Squares get a root and non-residues None, by one exponentiation when
    p = 3 (mod 4) (7, 11, 1000003) and by Tonelli-Shanks otherwise."""
    for p in (7, 11, 13, 17, 97, DEFAULT_PRIME, 998244353):
        for a in (1, 2, 3, 4, 5, 6, 9):
            if pow(a, (p - 1) // 2, p) == 1:
                assert _sqrt_mod(a, p) ** 2 % p == a % p
            else:
                assert _sqrt_mod(a, p) is None
    assert _sqrt_mod(0, 7) == 0
    with pytest.raises(CompositeModulus):
        _sqrt_mod(1, 9)


def test_general_position_at_the_paper_bound():
    """H_{g,n} is rational for n <= 3g+5: 3g+5 points in the configuration
    of check_general_position impose independent conditions, and so do the
    2g+5 sampled curve points."""
    for g in (8, 16, 32):
        verdict = check_general_position(g, 3 * g + 6)
        assert (verdict.status, verdict.target_rank) == ("PASS", 3 * g + 5)
    for g in (8, 16):
        _, pts = sample_curve_points(g, 2 * g + 5)
        cfg = PointConfig(tuple(PointCondition(p) for p in pts), prime=P)
        assert rank_exact(evaluation_matrix(cfg, g), P) == 2 * g + 5


def _affine_rank_by_elimination(pts, g, prime):
    cfg = PointConfig(tuple(PointCondition(((x, 1), (y, 1))) for x, y in pts), prime=prime)
    return rank_exact(evaluation_matrix(cfg, g), prime)


@pytest.mark.parametrize("prime", (5, 7, 11, 13, 101, DEFAULT_PRIME))
def test_interpolation_rank_matches_elimination(prime):
    """The interpolation-basis rank equals the evaluation matrix's rank on
    300 point sets per prime: g = 2..11 and n up to 3g+8, past the 3g+6
    columns.  First coordinates are often repeated (drawn from 3 or n/2
    residues), and on odd seeds the first g points share their second
    coordinate, as in check_general_position.  A pivot of largest degree,
    or the first row with a nonzero value, breaks the reduced basis and the
    count."""
    for g in range(2, 12):
        for seed in range(30):
            rng = random.Random(f"{prime}:{g}:{seed}")
            n = rng.randint(1, 3 * g + 8)
            pool = rng.choice((prime, 3, max(2, n // 2)))
            line = rng.randrange(prime)
            pts = [
                (rng.randrange(pool), line if i < g and seed % 2 else rng.randrange(prime))
                for i in range(n)
            ]
            expected = _affine_rank_by_elimination(pts, g, prime)
            assert interpolation_rank(pts, g, prime) == expected, (g, seed, pts)


@pytest.mark.parametrize("prime", (DEFAULT_PRIME, 2**61 - 1))
def test_interpolation_rank_at_genus_32(prime):
    """At g = 32 around the bound 3g+5 = 101: random points with first
    coordinates negative or >= p (full rank up to the 102 columns), the
    first g points on one line, and every first coordinate repeated."""
    g = 32
    rng = random.Random(f"interpolation:{prime}")
    for n in (3 * g + 5, 3 * g + 6, 3 * g + 8):
        line = rng.randrange(prime)
        xs = [rng.randrange(prime) for _ in range(n // 2)]
        cases = (
            [(rng.randrange(-3 * prime, 3 * prime), rng.randrange(prime)) for _ in range(n)],
            [(rng.randrange(prime), line if i < g else rng.randrange(prime)) for i in range(n)],
            [(xs[i % len(xs)], rng.randrange(prime)) for i in range(n)],
        )
        for pts in cases:
            assert interpolation_rank(pts, g, prime) == _affine_rank_by_elimination(pts, g, prime)
        assert interpolation_rank(cases[0], g, prime) == min(n, 3 * g + 6)
    with pytest.raises(BadGenus):
        interpolation_rank([(1, 2)], 1, prime)


# -- oracles: the entry-by-entry formulas these kernels replaced -------------


def _rank_mod_oracle(matrix, prime):
    """Gaussian elimination with one multiply-mod per entry."""
    a = [list(row) for row in matrix]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c] % prime), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c] % prime, prime - 2, prime)
        for i in range(r + 1, nrows):
            f = a[i][c] * inv
            for j in range(c, ncols):
                a[i][j] = (a[i][j] - f * a[r][j]) % prime
        r += 1
        if r == nrows:
            break
    return r


# None stands for the rationals, whose rank is rank_numeric.
ORACLE_PRIMES = (3, 5, 7, DEFAULT_PRIME, 2**61 - 1, None)


@st.composite
def _matrices_mod_p(draw):
    """A field and a matrix of up to 12 x 12 entries: mod p they are
    negative or >= p, over Q Fractions with denominators; in product form
    (rows x k) (k x cols) its rank is at most k."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    if p is None:
        entries = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    else:
        entries = st.integers(-3 * p, 3 * p)

    def block(r, c):
        return draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        return p, block(nrows, ncols)
    k = draw(st.integers(0, min(nrows, ncols)))
    left, right = block(nrows, k), block(k, ncols)
    return p, [[sum(row[t] * right[t][j] for t in range(k)) for j in range(ncols)] for row in left]


@settings(max_examples=300, deadline=None)
@given(_matrices_mod_p())
def test_rank_mod_p_matches_oracles(case):
    p, m = case

    def rank_of(matrix):
        return rank_numeric(matrix) if p is None else rank_exact(matrix, p)

    rank = rank_of(m)
    if p is None:
        assert rank == _rank_over_q([dict(enumerate(row)) for row in m])
    else:
        assert rank == _rank_mod_oracle(m, p)
    if DomainMatrix is not None and m:
        field = QQ if p is None else GF(p)
        dm = DomainMatrix([[field(v) for v in row] for row in m], (len(m), len(m[0])), field)
        assert rank == dm.rank()
    # Row order and transposition keep the rank.
    assert rank_of(m[::-1]) == rank
    assert rank_of([list(col) for col in zip(*m)]) == (rank if m else 0)


@pytest.mark.parametrize("prime", (DEFAULT_PRIME, 2**61 - 1))
def test_rank_mod_p_at_the_witness_size(prime):
    """101 x 102 matrices, the evaluation-matrix shape of 3g+5 points at
    g = 32, where the packed slots are widest: a random one and a product of
    rank at most k, with entries negative or >= p."""
    rng = random.Random(f"rank:{prime}")

    def block(r, c):
        return [[rng.randrange(-3 * prime, 3 * prime) for _ in range(c)] for _ in range(r)]

    k = 37
    left, right = block(101, k), block(k, 102)
    product = [[sum(row[t] * right[t][j] for t in range(k)) for j in range(102)] for row in left]
    for m, expected in ((block(101, 102), 101), (product, k)):
        rank = rank_exact(m, prime)
        assert rank == _rank_mod_oracle(m, prime) == expected
        assert rank_exact([list(col) for col in zip(*m)], prime) == rank


def _evaluation_oracle(cfg, g):
    """evaluation_matrix entry by entry: x^alpha y^beta for each monomial
    (alpha, beta) of monomial_basis, with each factor in the chart that
    normalizes its second coordinate, or at [1:0] in the opposite chart."""
    prime = cfg.prime

    def chart(coords, top):
        """The value of u0^e u1^(top-e), indexed by e."""
        u0, u1 = (c % prime for c in coords)
        if u1 != 0:
            t = u0 * pow(u1, prime - 2, prime) % prime
            return [pow(t, e, prime) for e in range(top + 1)]
        return [int(e == top) for e in range(top + 1)]

    rows = []
    for cond in cfg.conditions:
        xvals, yvals = chart(cond.point[0], g + 1), chart(cond.point[1], 2)
        rows.append([xvals[alpha] * yvals[beta] % prime for alpha, beta in monomial_basis(g)])
    return rows


@st.composite
def _point_configs(draw):
    prime = draw(st.sampled_from((7, DEFAULT_PRIME)))
    value = st.integers(-3 * prime, 3 * prime)

    def coords():
        if draw(st.integers(0, 4)) == 0:  # the chart point [1:0]
            return (draw(value.filter(lambda v: v % prime)), 0)
        pair = (draw(value), draw(value))
        assume(any(v % prime for v in pair))
        return pair

    conds = tuple(PointCondition((coords(), coords())) for _ in range(draw(st.integers(1, 5))))
    return draw(st.integers(2, 7)), PointConfig(conds, prime=prime)


@settings(max_examples=200, deadline=None)
@given(_point_configs())
def test_evaluation_matrix_matches_entrywise_formula(case):
    g, cfg = case
    rows = evaluation_matrix(cfg, g)
    assert rows == _evaluation_oracle(cfg, g)
    assert all(type(v) is int for row in rows for v in row)


def _poly_gcd_mod(a, b, p):
    """A gcd over F_p of two coefficient lists (constant term first), with
    no trailing zeros: [] when both are zero.  Each remainder is taken in
    place, cancelling the dividend's top coefficient against b's."""

    def strip(u):
        while u and not u[-1]:
            u.pop()
        return u

    a, b = strip([c % p for c in a]), strip([c % p for c in b])
    while b:
        inv, nb = pow(b[-1], p - 2, p), len(b) - 1
        while len(a) > nb:
            f = a.pop() * inv % p
            shift = len(a) - nb
            for i in range(nb):
                a[shift + i] = (a[shift + i] - f * b[i]) % p
            strip(a)
        a, b = b, a
    return a


def _poly_mul_mod(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] = (out[i + j] + ui * vj) % p
    return out


@pytest.mark.parametrize("prime", (7, 11, 13, 101, DEFAULT_PRIME, 2**61 - 1))
def test_square_free_mod_matches_reference_euclid(prime):
    """_square_free_mod(d) holds exactly when the list Euclid's gcd(d, d') is
    a nonzero constant: on random d, on f h^2 and h^2 with random f and h,
    on constants, and at the small primes on polynomials in x^p (d' = 0)
    and on those plus a cubic, where d' is a quadratic and the first
    division takes up to 4p steps without reducing a slot."""
    rng = random.Random(f"square-free:{prime}")

    def poly(deg):
        return [rng.randrange(prime) for _ in range(deg + 1)]

    cases = [[c] for c in (0, 1, prime - 1)]
    for _ in range(60):
        h = poly(rng.randint(1, 6))
        square = _poly_mul_mod(h, h, prime)
        cases.append(poly(rng.randint(0, 40)))
        cases += [_poly_mul_mod(poly(rng.randint(0, 30)), square, prime), square]
        if prime <= 13:
            spread = [0] * (prime * rng.randint(1, 4) + 1)
            spread[::prime] = poly(len(spread) // prime)
            cubic = poly(3) + [0] * (len(spread) - 4)
            cases += [spread, [(u + v) % prime for u, v in zip(spread, cubic)]]
    for d in cases:
        gcd = _poly_gcd_mod(d, [k * c for k, c in enumerate(d)][1:], prime)
        assert _square_free_mod(d, prime) == (len(gcd) == 1), d


@pytest.mark.parametrize("prime", (101, 127))
def test_square_free_mod_keeps_full_slots_apart(prime):
    """A long first division with full slots.  Each d has a double root at
    x = 1, so it is never square-free.  Its derivative d' is p - 1 in every
    slot from 1 to e - 1, and above degree e the rest of d sits at exponents
    divisible by p, where d' vanishes.  So d / d' takes about deg d - e
    quotient steps, each adding f (p - 1) with f < p to up to e slots, and
    no slot is cut in between: slots climb far past 4p^2.  A width below
    the bound 2p + 2 len(d) p^2 lets them carry into their neighbours, and
    the double root is lost."""
    p = prime
    rng = random.Random(f"full-slots:{p}")
    for _ in range(20):
        e = rng.randrange(2, 3 * p)
        d = [0] * (p * (e // p + rng.randint(1, 3)) + 1)
        for j in range(2, e + 1):
            d[j] = (p - 1) * pow(j, -1, p) % p if j % p else rng.randrange(1, p)
        for m in range(p * (e // p + 1), len(d), p):
            d[m] = rng.randrange(1, p)
        d[1] = -sum(j * c for j, c in enumerate(d)) % p  # d'(1) = 0
        d[0] = -sum(d) % p  # d(1) = 0
        assert not _square_free_mod(d, p), d


@pytest.mark.parametrize("g", (2, 3, 8, 400))
def test_kronecker_discriminant_matches_schoolbook(g):
    """The packed product B^2 - 4AC equals the convolution mod p, also with
    every coefficient p - 1, where the slots are fullest."""
    for p in (7, 101, DEFAULT_PRIME, 2**61 - 1):
        rng = random.Random(f"disc:{g}:{p}")
        for A, B, C in (
            [[rng.randrange(p) for _ in range(g + 2)] for _ in range(3)],
            [[p - 1] * (g + 2), [p - 1] * (g + 2), [0] * (g + 2)],
            [[p - 1] * (g + 2), [p - 1] * (g + 2), [1] * (g + 2)],
        ):
            square, product = _poly_mul_mod(B, B, p), _poly_mul_mod(A, C, p)
            expected = [(s - 4 * t) % p for s, t in zip(square, product)]
            assert _discriminant_mod(A, B, C, p) == expected


def _form_oracle(coeffs, g, x, y, prime):
    """f, df/dx and df/dy mod prime at (x, y) in the chart x1 = y1 = 1, where
    the monomial (a, b) of monomial_basis is x^a y^b."""
    terms = list(zip(monomial_basis(g), coeffs))
    f = sum(c * x**a * y**b for (a, b), c in terms)
    fx = sum(c * a * x ** (a - 1) * y**b for (a, b), c in terms if a)
    fy = sum(c * b * x**a * y ** (b - 1) for (a, b), c in terms if b)
    return f % prime, fx % prime, fy % prime


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(0, 10**6),
    st.sampled_from((11, 13, 101, DEFAULT_PRIME)),
    st.data(),
)
def test_sampled_points_lie_on_the_form_and_are_smooth(g, seed, prime, data):
    """Every sampled point is a zero of the returned form, is smooth there
    (df/dy = sqrt(d) is nonzero, so no separate test is needed) and has its
    own first coordinate; the whole curve is smooth as well."""
    count = data.draw(st.integers(1, min(2 * g + 5, prime // 2)))
    coeffs, pts = sample_curve_points(g, count, prime=prime, seed=seed)
    assert len(coeffs) == 3 * g + 6 and len(pts) == count
    assert len({x for (x, _), _ in pts}) == count
    for (x, x1), (y, y1) in pts:
        assert x1 == y1 == 1
        f, fx, fy = _form_oracle(coeffs, g, x, y, prime)
        assert f == 0
        assert (fx, fy) != (0, 0)
        assert fy != 0
    if gf_gcd is not None:
        assert form_is_smooth(coeffs, g, prime)


def form_is_smooth(coeffs, g, prime):
    """Whether the (g+1, 2) curve of a form in monomial_basis order is smooth,
    by sympy over GF(prime): with A, B and C its coefficients of y^2, y and 1
    as polynomials in x, the discriminant d = B^2 - 4AC has degree at least
    2g+1 and gcd(d, d') = 1."""
    terms = dict(zip(monomial_basis(g), coeffs))
    # Coefficient lists with the top degree first, as galoistools takes them.
    A, B, C = ([ZZ(terms[(a, b)]) for a in range(g + 1, -1, -1)] for b in (2, 1, 0))
    d = gf_sub_mul(gf_mul(B, B, prime, ZZ), gf_mul([ZZ(4)], A, prime, ZZ), C, prime, ZZ)
    return gf_degree(d) >= 2 * g + 1 and gf_gcd(d, gf_diff(d, prime, ZZ), prime, ZZ) == [1]


@pytest.mark.skipif(gf_gcd is None, reason="sympy is not installed")
@pytest.mark.parametrize("prime", (11, 13, 101, DEFAULT_PRIME))
def test_sampled_curves_are_smooth(prime):
    """At small primes a few percent of random forms have a discriminant with
    a repeated root (a singular curve); the sampler must skip them.  Seed
    299's first form mod 11 has a square-free d of degree below 2g+1: its
    only repeated root is at x = infinity."""
    for g in range(2, 17):
        for seed in (*range(30), 299):
            coeffs, _ = sample_curve_points(g, 1, prime=prime, seed=seed)
            assert form_is_smooth(coeffs, g, prime), (g, seed)
