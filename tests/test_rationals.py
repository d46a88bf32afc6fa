"""Exact univariate arithmetic: gcd, normalization, evaluation, root counting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowforge.rationals import (
    PoleAtPoint,
    RatFunc,
    UniPoly,
    ZeroDenominator,
    ZeroPolynomial,
    poly_divmod,
    poly_gcd,
    poly_str,
    ratfunc_eval,
    ratfunc_str,
    sturm_roots_geq,
)

G = UniPoly.g()


def test_poly_str_canonical_forms():
    assert poly_str(2 * G + 1) == "2*g+1"
    assert poly_str(-8 * G**3 + 8 * G) == "-8*g^3+8*g"
    assert poly_str(UniPoly()) == "0"
    assert poly_str(-(G**2)) == "-g^2"
    assert poly_str(G.scale(Fraction(1, 2))) == "1/2*g"


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


def test_normalize_cancellation():
    assert RatFunc(G**2 - 1, G - 1) == RatFunc(G + 1)
    assert RatFunc(2 * G + 2, UniPoly.const(2)) == RatFunc(G + 1)


def test_normalize_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RatFunc(G, UniPoly())


def test_normalize_quartic_constant():
    num = 16 * G**4 - 24 * G**3 + 16 * G**2 + 8 * G - 3
    den = 4 * (2 * G + 1) ** 2 * (G + 1) ** 2
    f = RatFunc(num, den)
    # Denominator becomes monic: (g+1/2)^2 (g+1)^2; numerator scaled by 1/16.
    assert f.den == ((G + Fraction(1, 2)) ** 2 * (G + 1) ** 2)
    assert f.num == num.scale(Fraction(1, 16))
    assert f(2) == Fraction(47, 300)


def test_eval_examples():
    a_g = RatFunc(
        16 * G**4 - 24 * G**3 + 16 * G**2 + 8 * G - 3,
        4 * (2 * G + 1) ** 2 * (G + 1) ** 2,
    )
    assert ratfunc_eval(a_g, 2) == Fraction(141, 900) == Fraction(47, 300)
    assert ratfunc_eval(RatFunc(7), Fraction(5, 3)) == 7
    with pytest.raises(PoleAtPoint):
        ratfunc_eval(RatFunc(G + 1, G - 1), 1)


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
    if d.is_zero:
        assert a.is_zero and b.is_zero
        return
    assert d.leading == 1
    assert poly_divmod(a, d)[1].is_zero
    assert poly_divmod(b, d)[1].is_zero


@given(ratfuncs, ratfuncs, ratfuncs)
def test_ratfunc_field_identities(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x + y == y + x
    assert x - x == RatFunc(0)
    if not x.is_zero:
        assert x * x.invert() == RatFunc(1)


def _is_normalized(r: RatFunc) -> bool:
    return r.den.leading == 1 and poly_gcd(r.num, r.den).is_one()


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
        assert _is_normalized(r)
    if not x.is_zero:
        assert _is_normalized(x.invert())
        assert _is_normalized(other / x)


@given(ratfuncs, ratfuncs, st.integers(min_value=2, max_value=20))
def test_eval_commutes_with_arithmetic(x, y, g0):
    try:
        vx, vy = x(g0), y(g0)
    except PoleAtPoint:
        return
    assert (x * y)(g0) == vx * vy
    assert (x + y)(g0) == vx + vy


@given(
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4),
    st.integers(min_value=-9, max_value=9),
)
@settings(max_examples=100)
def test_sturm_matches_known_integer_roots(roots, bound):
    p = UniPoly.const(1)
    for r in roots:
        p = p * (G - r)
    expected = len({r for r in roots if r >= bound})
    assert sturm_roots_geq(p, bound) == expected
