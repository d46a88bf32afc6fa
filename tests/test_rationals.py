"""Exact univariate arithmetic: gcd, normalization, evaluation, root counting."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:  # sympy is an optional second oracle
    sympy = None

from chowforge import rationals
from chowforge.rationals import (
    PoleAtPoint,
    RatFunc,
    UniPoly,
    ZeroDenominator,
    ZeroPolynomial,
    _exact_quotient,
    poly_divmod,
    poly_gcd,
    poly_str,
    power,
    ratfunc_str,
    sturm_roots_geq,
)
from chowforge.ring import _subtract

G = UniPoly.g()


def test_poly_str_canonical_forms():
    assert poly_str(2 * G + 1) == "2*g+1"
    assert poly_str(-8 * G**3 + 8 * G) == "-8*g^3+8*g"
    assert poly_str(UniPoly()) == "0"
    assert poly_str(-(G**2)) == "-g^2"
    assert poly_str(G * Fraction(1, 2)) == "1/2*g"


def _poly_str_via_fractions(p):
    """poly_str's format, spelled through Fraction coefficients."""
    if p.is_zero:
        return "0"
    parts = []
    for d in range(p.degree, -1, -1):
        c = p.coeffs[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        gpow = "" if d == 0 else ("g" if d == 1 else f"g^{d}")
        body = str(mag) if d == 0 else (gpow if mag == 1 else f"{mag}*{gpow}")
        parts.append(sign + body)
    return "".join(parts)


@st.composite
def _polys(draw):
    den = draw(st.just(1) | st.integers(1, 10**6))
    # Numerators of -den, 0 and den give coefficients -1, gaps and 1.
    coeff = st.sampled_from([-den, 0, den]) | st.integers(-(10**9), 10**9)
    nums = draw(st.lists(coeff, max_size=6))
    return UniPoly([Fraction(x, den) for x in nums])


@given(_polys())
@settings(max_examples=300, deadline=None)
@example(UniPoly())
@example(UniPoly([7]))
@example(UniPoly([-7]))
@example(UniPoly([Fraction(5, 3)]))
@example(UniPoly([Fraction(-3, 4)]))
@example(UniPoly([1, 0, 0, -1]))
def test_poly_str_matches_fraction_formatting(p):
    _assert_canonical(p)
    assert poly_str(p) == _poly_str_via_fractions(p)


def test_coefficients_and_degree():
    p = UniPoly([-1, 0, 3])  # 3g^2 - 1
    assert p.degree == 2
    assert p.coeffs == (Fraction(-1), Fraction(0), Fraction(3))
    assert UniPoly().degree == -1


def test_gcd_common_factor():
    assert poly_gcd(G**2 - 1, G - 1) == G - 1


def test_gcd_with_zero_is_monic():
    p = 4 * G**2 - 4
    assert poly_gcd(p, UniPoly()) == p.monic()
    assert poly_gcd(UniPoly(), UniPoly()) == UniPoly()


def test_gcd_perfect_square_case():
    # gcd(4g^2+4g+1, 2g+1) is the monic form of 2g+1.
    got = poly_gcd(4 * G**2 + 4 * G + 1, 2 * G + 1)
    assert got == G + Fraction(1, 2)
    assert poly_str(got) == "g+1/2"


def test_gcd_with_a_linear_argument():
    """A linear argument's root decides the gcd: the line, monic, or 1."""
    quartic = 4 * (G + 1) ** 2 * (2 * G + 1) ** 2
    cases = [
        (2 * G + 1, 4 * G**2 - 1, G + Fraction(1, 2)),
        # Root -2, from numerators (6, 3) over the denominator 5.
        ((3 * G + 6) * Fraction(1, 5), (G + 2) * (G**2 + 1), G + 2),
        ((3 * G + 6) * Fraction(1, 5), (G - 2) * (G**2 + 1), UniPoly.const(1)),
        (2 * G + 1, 3 * G - 1, UniPoly.const(1)),
        (2 * G + 2, 3 * G + 3, G + 1),
        (2 * G + 1, quartic, G + Fraction(1, 2)),
        (G + 1, quartic, G + 1),
        (G - 1, quartic, UniPoly.const(1)),
        (3 * G + 1, quartic, UniPoly.const(1)),
    ]
    big = UniPoly([-(2**70 + 1), 2**71 + 3])
    cases += [(big, big * (G**2 + 5), big.monic()), (big, G**2 + 5, UniPoly.const(1)),
              (big, big * Fraction(7, 2**72), big.monic())]
    for line, other, expected in cases:
        for got in (poly_gcd(line, other), poly_gcd(other, line)):
            assert got == expected
            # Primitive numerators, as _exact_quotient needs of a divisor.
            assert math.gcd(*got.n) == 1 and got.d == got.n[-1:]
    assert RatFunc(4 * G**2 - 1, 2 * G + 1) == RatFunc(2 * G - 1)
    assert RatFunc(quartic, 6 * G + 3) == RatFunc((G + 1) ** 2 * (2 * G + 1) * Fraction(4, 3))


def test_sum_with_a_polynomial_needs_no_cancelling():
    """a/b + c is (a + c*b)/b in lowest terms; c + (-c) is zero over 1."""
    x = RatFunc(G, 2 * G + 1)
    cases = [(RatFunc(G + 1), 2 * G**2 + 4 * G + 1), (RatFunc(3), 7 * G + 3),
             (RatFunc(Fraction(-1, 2)), UniPoly.const(Fraction(-1, 2)))]
    for c, num in cases:
        for got in (x + c, c + x):
            assert (got.num, got.den) == (num * Fraction(1, 2), G + Fraction(1, 2))
            assert got == RatFunc(num, 2 * G + 1)
            _assert_canonical(got)
    zero = RatFunc(G**2 - 3) + RatFunc(3 - G**2)
    assert zero.is_zero and zero.den.is_one() and zero == RatFunc(0)


def test_one_arithmetic_for_polynomials_and_rational_functions():
    """Reflected subtraction, powers and division work on every value, and a
    value whose denominator is a constant is a UniPoly, however it was made."""
    x = RatFunc(G, G + 1)
    assert 1 - x == -(x - 1) == RatFunc(1, G + 1)
    assert x**3 == x * x * x == RatFunc(G**3, (G + 1) ** 3)
    q = (G**2 - 1) / (G + 1)
    assert q == G - 1 and isinstance(q, UniPoly)
    assert type(x) is RatFunc and type(RatFunc(2 * G + 2, 4)) is UniPoly
    assert type(x * (G + 1)) is UniPoly and type(x.invert() - RatFunc(1, G)) is UniPoly


def test_integer_polynomial_sums_and_products_take_no_gcd(monkeypatch):
    """Polynomials over the denominator 1, as the test-curve matrices hold,
    add and multiply with neither a gcd nor the normaliser: such a sum or
    product has no content to remove (testcurves._pair_operations and
    _block_product)."""
    p, q = 2 * G - 2, 2 * G**2 + 3 * G - 1
    calls = []

    def recorded(f):
        return lambda *args: calls.append(f.__name__) or f(*args)

    for name in ("_gcd", "_reduced"):
        monkeypatch.setattr(rationals, name, recorded(getattr(rationals, name)))
    results = [p + q, p - q, p - p, p * q, 3 * p, q + 1]
    assert not calls
    assert results == [UniPoly([-3, 5, 2]), UniPoly([-1, -1, -2]), 0, UniPoly([2, -8, 2, 4]),
                       UniPoly([-6, 6]), UniPoly([0, 3, 2])]


class _CountedProducts:
    """A multiplicative stand-in that counts the products power takes."""

    def __init__(self, log):
        self.log = log

    def __mul__(self, other):
        self.log.append(1)
        return self


def test_power_squares_only_while_bits_remain():
    for k in range(10):
        log = []
        power(_CountedProducts(log), k, _CountedProducts(log))
        # popcount(k) products into the result, bit_length(k) - 1 squares.
        assert len(log) == max(bin(k).count("1") + k.bit_length() - 1, 0)
        assert power(G + 1, k, UniPoly.const(1)) == math.prod([G + 1] * k, start=UniPoly.const(1))


def test_normalize_cancellation():
    assert RatFunc(G**2 - 1, G - 1) == RatFunc(G + 1)
    assert RatFunc(2 * G + 2, UniPoly.const(2)) == RatFunc(G + 1)
    # An int or Fraction denominator is coerced as the numerator is.
    assert RatFunc(1, 2) == Fraction(1, 2)
    assert RatFunc(G + 1, 3) == (G + 1) * Fraction(1, 3)
    assert RatFunc(1, Fraction(1, 2)) == 2


@pytest.mark.parametrize("call, error", [
    (lambda: UniPoly(["1"]), TypeError),
    (lambda: UniPoly().leading, ZeroPolynomial),
    (lambda: power(G, -1, UniPoly.const(1)), ValueError),
    (lambda: poly_divmod(G, UniPoly()), ZeroPolynomial),
    (lambda: RatFunc(0).invert(), ZeroDivisionError),
    (lambda: RatFunc("x"), TypeError),
], ids=["str coefficient", "leading of zero", "negative power", "divmod by zero", "invert zero",
        "str numerator"])
def test_refusals(call, error):
    with pytest.raises(error):
        call()


def test_normalize_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RatFunc(G, UniPoly())
    with pytest.raises(ZeroDenominator):
        RatFunc(1, 0)


def test_normalize_quartic_constant():
    num = 16 * G**4 - 24 * G**3 + 16 * G**2 + 8 * G - 3
    den = 4 * (2 * G + 1) ** 2 * (G + 1) ** 2
    f = RatFunc(num, den)
    # Denominator becomes monic: (g+1/2)^2 (g+1)^2; numerator scaled by 1/16.
    assert f.den == ((G + Fraction(1, 2)) ** 2 * (G + 1) ** 2)
    assert f.num == num * Fraction(1, 16)
    assert f(2) == Fraction(47, 300)


def test_eval_examples():
    a_g = RatFunc(
        16 * G**4 - 24 * G**3 + 16 * G**2 + 8 * G - 3,
        4 * (2 * G + 1) ** 2 * (G + 1) ** 2,
    )
    assert a_g(2) == Fraction(141, 900) == Fraction(47, 300)
    assert RatFunc(7)(Fraction(5, 3)) == 7
    with pytest.raises(PoleAtPoint):
        RatFunc(G + 1, G - 1)(1)


def test_ratfunc_str_forms():
    assert ratfunc_str(RatFunc(2 * G + 1, 2 * (G - 1))) == "(g+1/2)/(g-1)"
    assert ratfunc_str(RatFunc(G + 1)) == "g+1"


def test_sturm_examples():
    assert sturm_roots_geq(2 * G - 2, 2) == 0
    assert sturm_roots_geq((G - 3) * (G - 5), 2) == 2
    assert sturm_roots_geq((2 * G - 2) ** 3 * (2 * G) ** 3, 2) == 0
    # Boundary: bound equal to a root counts it.
    assert sturm_roots_geq(G - 2, 2) == 1
    with pytest.raises(ZeroPolynomial):
        sturm_roots_geq(UniPoly(), 0)


small_fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
polys = st.lists(small_fracs, min_size=0, max_size=5).map(UniPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
ratfuncs = st.tuples(polys, nonzero_polys).map(lambda t: RatFunc(*t))
constant_polys = small_fracs.map(lambda c: UniPoly([c]))


@given(polys, polys)
def test_gcd_divides_both_exactly(a, b):
    d = poly_gcd(a, b)
    _assert_canonical(d)
    if d.is_zero:
        assert a.is_zero and b.is_zero
        return
    assert d.leading == 1
    assert poly_divmod(a, d)[1].is_zero
    assert poly_divmod(b, d)[1].is_zero


@given(ratfuncs, ratfuncs, ratfuncs)
def test_ratfunc_field_identities(x, y, z):
    pairs = [((x + y) * z, x * z + y * z), (x + y, y + x), (x - x, RatFunc(0)), (1 - x, -(x - 1)),
             (x**3, x * x * x)]
    if not x.is_zero:
        pairs += [(x * x.invert(), RatFunc(1)), (y / x, y * x.invert())]
    for left, right in pairs:
        assert left == right
        _assert_canonical(left), _assert_canonical(right)


def _assert_canonical(r: RatFunc):
    """r's integer tuples n and d are in canonical form: no trailing zero,
    D's leading coefficient positive, no content common to N and D, N and D
    coprime over Q (the Fraction Euclid below), zero as ((), (1,)).  r is a
    UniPoly exactly when d has one entry; a polynomial's Fraction
    coefficients rebuild the same fields, and den is monic."""
    n, d = r.n, r.d
    assert type(n) is tuple and type(d) is tuple and all(type(x) is int for x in n + d)
    assert (not n or n[-1]) and d[-1] > 0
    assert math.gcd(*n, *d) == 1
    if n:
        assert _oracle_gcd([Fraction(x) for x in n], [Fraction(x) for x in d]) == [1]
    else:
        assert d == (1,)
    assert isinstance(r, UniPoly) == (len(d) == 1)
    assert r.den.leading == 1
    if isinstance(r, UniPoly):
        assert all(type(c) is Fraction for c in r.coeffs)
        rebuilt = UniPoly(r.coeffs)
        assert (rebuilt.n, rebuilt.d) == (n, d)


@given(
    st.one_of(constant_polys, polys),
    st.one_of(constant_polys.filter(lambda p: not p.is_zero), nonzero_polys),
    ratfuncs,
)
def test_ratfunc_normalized_with_constant_parts(num, den, other):
    """Constant numerators and denominators take poly_gcd's constant
    shortcut; every result still has a monic denominator coprime to its
    numerator."""
    x = RatFunc(num, den)
    assert x.num * den == num * x.den
    for r in (x, -x, x + other, x - other, x * other, other - x):
        _assert_canonical(r)
    if not x.is_zero:
        _assert_canonical(x.invert())
        _assert_canonical(other / x)


@given(ratfuncs, ratfuncs, st.integers(min_value=2, max_value=20))
def test_eval_commutes_with_arithmetic(x, y, g0):
    try:
        vx, vy = x(g0), y(g0)
    except PoleAtPoint:
        return
    product, total = x * y, x + y
    _assert_canonical(product), _assert_canonical(total)
    assert product(g0) == vx * vy
    assert total(g0) == vx + vy


@given(
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4),
    st.integers(min_value=-9, max_value=9),
    st.sampled_from([1, -3, Fraction(2, 7), 2**75 + 1, Fraction(-1, 2**70)]),
)
@settings(max_examples=100)
def test_sturm_matches_known_integer_roots(roots, bound, scale):
    p = UniPoly.const(scale)
    for r in roots:
        p = p * (G - r)
    expected = len({r for r in roots if r >= bound})
    _assert_canonical(p)
    assert sturm_roots_geq(p, bound) == expected


def test_constants_hash_as_their_values():
    assert UniPoly.const(3) in {3}
    assert UniPoly() in {0} and RatFunc(0) in {0}
    assert RatFunc(Fraction(1, 2)) in {Fraction(1, 2)}
    assert {Fraction(3, 4): "x"}[UniPoly.const(Fraction(6, 8))] == "x"
    # A polynomial rational function hashes as its numerator.
    assert RatFunc(2 * G + 2, UniPoly.const(2)) in {G + 1}
    assert hash(RatFunc(G, G + 1)) != hash(RatFunc(G + 1, G))
    # Rational coefficients and their integer rescaling give one value: equal,
    # with equal hashes and equal keys in ring._subtract's memo.
    for num, den, scale in ((G * Fraction(1, 2) + Fraction(1, 3), G * Fraction(2, 3) - 1, 6),
                            (G * Fraction(-3, 4) + 1, UniPoly.const(Fraction(5, 2)), 4)):
        x, y = RatFunc(num, den), RatFunc(num * scale, den * scale)
        assert x == y and hash(x) == hash(y)
        keys = []
        for c in (x, y):
            memo: dict = {}
            _subtract({}, 0, ((0, c),), c, memo)  # a new term: coeff * c
            _subtract({0: c}, 0, ((0, c),), c, memo)  # a multiply-add: w + coeff * c
            keys.append(set(memo))
        assert keys[0] == keys[1] and len(keys[0]) == 2
    assert RatFunc(G * Fraction(-3, 4) + 1, Fraction(5, 2)) in {G * Fraction(-3, 10) + Fraction(2, 5)}


def test_exact_quotient_rejects_a_remainder():
    assert _exact_quotient(G**2 - 1, 2 * G - 2) == G * Fraction(1, 2) + Fraction(1, 2)
    for a, b in ((G**2 + 1, G + 1), (G + 1, G * 2), (UniPoly.const(5), G + 1)):
        with pytest.raises(ArithmeticError):
            _exact_quotient(a, b)


# -- the integer kernel against the Fraction Euclid it replaced, and sympy --


def _oracle_strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _oracle_add(a, b):
    n = max(len(a), len(b))
    return _oracle_strip(
        [x + y for x, y in zip(a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b)))]
    )


def _oracle_mul(a, b):
    """The Fraction convolution UniPoly.__mul__ used to run."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _oracle_strip(out)


def _oracle_divmod(a, b):
    """The Fraction long division poly_divmod used to run."""
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lead, db = b[-1], len(b) - 1
    while len(r) - 1 >= db and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        s = r[-1] / lead
        k = len(r) - 1 - db
        q[k] = s
        for j, c in enumerate(b):
            r[k + j] -= s * c
        r.pop()
    return _oracle_strip(q), _oracle_strip(r)


def _oracle_monic(a):
    return [c / a[-1] for c in a] if a else []


def _oracle_gcd(a, b):
    """The Fraction Euclid poly_gcd used to run."""
    if len(a) == 1 or len(b) == 1:
        return [Fraction(1)]
    while b:
        a, b = b, _oracle_divmod(a, b)[1]
    return _oracle_monic(a)


def _oracle_normalize(num, den):
    """num/den over a monic denominator coprime to the numerator, as the
    RatFunc constructor used to compute it."""
    if not num:
        return (), (Fraction(1),)
    common = _oracle_gcd(num, den)
    num, den = _oracle_divmod(num, common)[0], _oracle_divmod(den, common)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


_huge = st.integers(min_value=2**70, max_value=2**80)
kernel_ints = st.one_of(st.integers(min_value=-9, max_value=9), _huge, _huge.map(lambda x: -x))
kernel_coeffs = st.one_of(
    kernel_ints,
    st.builds(
        Fraction,
        kernel_ints,
        st.one_of(
            st.integers(min_value=1, max_value=9), st.integers(min_value=2**64, max_value=2**72)
        ),
    ),
)
kernel_polys = st.one_of(
    st.just(UniPoly()),
    kernel_coeffs.map(UniPoly.const),
    st.lists(kernel_coeffs, min_size=2, max_size=5).map(UniPoly),
)


@given(kernel_polys, kernel_polys, kernel_polys, kernel_coeffs)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_fraction_oracle(a, b, c, k):
    A, B = list(a.coeffs), list(b.coeffs)
    results = (a + b, a - b, -a, a * b, a * k, a.monic(), a.derivative(), a * c, b * c)
    for p in (a, b, c) + results:
        _assert_canonical(p)
    assert list((a + b).coeffs) == _oracle_add(A, B)
    assert list((a * b).coeffs) == _oracle_mul(A, B)
    assert list((a * k).coeffs) == _oracle_mul(A, [Fraction(k)])
    assert list(a.monic().coeffs) == _oracle_monic(A)
    assert a(Fraction(-3, 7)) == sum(x * Fraction(-3, 7) ** i for i, x in enumerate(A))
    if not b.is_zero:
        q, r = poly_divmod(a, b)
        _assert_canonical(q), _assert_canonical(r)
        assert (list(q.coeffs), list(r.coeffs)) == _oracle_divmod(A, B)
        x = RatFunc(a, b)
        for part in (x, x.num, x.den):
            _assert_canonical(part)
        assert (x.num.coeffs, x.den.coeffs) == _oracle_normalize(A, B)
    for u, v in ((a, b), (a * c, b * c)):
        d = poly_gcd(u, v)
        _assert_canonical(d)
        assert list(d.coeffs) == _oracle_gcd(list(u.coeffs), list(v.coeffs))


small_kernel_polys = st.lists(kernel_coeffs, min_size=1, max_size=3).map(UniPoly)


@given(small_kernel_polys, small_kernel_polys, small_kernel_polys, small_kernel_polys,
       small_kernel_polys.filter(lambda p: not p.is_zero))
@settings(max_examples=150, deadline=None)
@example(UniPoly.const(1), UniPoly.const(1), G - 1, UniPoly.const(1), G)  # 1/g + (g-1)/g = 1
def test_ratfunc_arithmetic_matches_fraction_oracle(a, b, c, d, e):
    """x and y share the factor e of their denominators and b, so the
    cross-cancelling sum and product meet common factors."""
    if b.is_zero or d.is_zero:
        return
    x, y = RatFunc(a, b * e), RatFunc(c * b, d * e)
    X, Y = (list(x.num.coeffs), list(x.den.coeffs)), (list(y.num.coeffs), list(y.den.coeffs))
    sums = _oracle_add(_oracle_mul(X[0], Y[1]), _oracle_mul(Y[0], X[1]))
    dens = _oracle_mul(X[1], Y[1])
    cases = [(x + y, sums, dens), (x * y, _oracle_mul(X[0], Y[0]), dens)]
    if not x.is_zero:
        cases.append((x.invert(), X[1], X[0]))
    for got, num, den in cases:
        _assert_canonical(got)
        assert (got.num.coeffs, got.den.coeffs) == _oracle_normalize(num, den)


def _normalized_pair(num: UniPoly, den: UniPoly) -> tuple[UniPoly, UniPoly]:
    """num/den as a UniPoly pair: both divided by poly_gcd, then rescaled so
    that den is monic."""
    if num.is_zero:
        return UniPoly(), UniPoly.const(1)
    common = poly_gcd(num, den)
    num, den = _exact_quotient(num, common), _exact_quotient(den, common)
    return num * (1 / den.leading), den.monic()


@given(polys, nonzero_polys, polys, nonzero_polys)
@settings(deadline=None)
# x = 1/(g(g+1)) and z = 1/g: y = z - x = 1/(g+1), and x + y cancels g + 1.
@example(UniPoly([1]), G * (G + 1), UniPoly([1]), G)
# x = -2/3 / (4 - 2g) has content 2 and a negative leading denominator to fix.
@example(UniPoly([Fraction(-2, 3)]), UniPoly([4, -2]), G * 2, UniPoly([Fraction(-1, 2), 3]))
def test_ratfunc_results_are_canonical_integer_pairs(a, b, c, d):
    """Built from rational-coefficient UniPolys and through every operation,
    a RatFunc keeps its canonical integer pair.  y = z - x gives x and y
    denominators that share x's factors, which x + y = z cancels through
    Henrici's second gcd."""
    X, Z = _normalized_pair(a, b), _normalized_pair(c, d)
    x, z = RatFunc(a, b), RatFunc(c, d)
    Y = _normalized_pair(Z[0] * X[1] - X[0] * Z[1], Z[1] * X[1])
    y = z - x
    cases = [(x, X), (z, Z), (y, Y), (-x, (-X[0], X[1])),
             (x + y, (X[0] * Y[1] + Y[0] * X[1], X[1] * Y[1])),
             (x * y, (X[0] * Y[0], X[1] * Y[1])), (x * z, (X[0] * Z[0], X[1] * Z[1]))]
    if not x.is_zero:
        cases += [(x.invert(), (X[1], X[0])), (y / x, (Y[0] * X[1], Y[1] * X[0]))]
    for r, (num, den) in cases:
        _assert_canonical(r)
        assert (r.num, r.den) == _normalized_pair(num, den)
    assert x + y == z


kernel_lines = st.builds(lambda r0, r1: UniPoly([r0, r1]), kernel_coeffs,
                         kernel_coeffs.filter(lambda c: c != 0))


@given(kernel_lines, small_kernel_polys.filter(lambda p: not p.is_zero), small_kernel_polys,
       small_kernel_polys.filter(lambda p: not p.is_zero), kernel_coeffs.filter(lambda c: c != 0))
@settings(max_examples=200, deadline=None)
@example(UniPoly([1, 2]), UniPoly([-1, 0, 4]), UniPoly([1]), UniPoly([1, 2]), 1)
def test_linear_gcds_and_polynomial_sums_match_fraction_oracle(line, p, a, b, k):
    """The root test against the Fraction Euclid, and sums over a
    denominator 1 against the gcd-normalized sum."""
    gcds = [poly_gcd(line * p, line), poly_gcd(line, line * p * k), poly_gcd(line, p), poly_gcd(p, line)]
    for d in gcds:
        _assert_canonical(d)
    assert gcds[0] == gcds[1] == line.monic()
    L, P = list(line.coeffs), list(p.coeffs)
    assert list(gcds[2].coeffs) == _oracle_gcd(L, P) == list(gcds[3].coeffs)
    x, y = RatFunc(a, b), RatFunc(p)
    X = (list(x.num.coeffs), list(x.den.coeffs))
    expected = _oracle_normalize(_oracle_add(X[0], _oracle_mul(P, X[1])), X[1])
    for got in (x + y, y + x):
        _assert_canonical(got)
        assert (got.num.coeffs, got.den.coeffs) == expected
    both = y + RatFunc(a)  # both denominators 1
    _assert_canonical(both)
    assert (both.num.coeffs, both.den.coeffs) == _oracle_normalize(
        _oracle_add(P, list(a.coeffs)), [Fraction(1)])


def _to_sympy(p: UniPoly):
    g = sympy.symbols("g")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], g,
                      domain=sympy.QQ)


def _from_sympy(p) -> list:
    return _oracle_strip(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@given(kernel_polys, kernel_polys, kernel_polys)
@settings(max_examples=100, deadline=None)
def test_kernel_matches_sympy(a, b, c):
    u, v = a * c, b * c
    _assert_canonical(poly_gcd(u, v))
    assert list(poly_gcd(u, v).coeffs) == _from_sympy(_to_sympy(u).gcd(_to_sympy(v)))
    if v.is_zero:
        return
    q, r = poly_divmod(u, v)
    sq, sr = _to_sympy(u).div(_to_sympy(v))
    assert (list(q.coeffs), list(r.coeffs)) == (_from_sympy(sq), _from_sympy(sr))
    x = RatFunc(u, v)
    for part in (q, r, x):
        _assert_canonical(part)
    sn, sd = (_from_sympy(p) for p in _to_sympy(u).cancel(_to_sympy(v), include=True))
    # sympy's cancelled pair may differ from x by a constant factor.
    assert (x.num.degree, x.den.degree) == (len(sn) - 1, len(sd) - 1)
    assert x.num * UniPoly(sd) == x.den * UniPoly(sn)
