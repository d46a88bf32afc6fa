"""Exact arithmetic backbone: univariate polynomials in the genus parameter g
over arbitrary-precision rationals, normalized rational functions, evaluation,
Sturm-sequence real-root counting for rank certificates, and the one
fraction-free elimination behind every integer determinant and rational rank.

A rational function is stored as two tuples of integer coefficients N and
D in canonical form (see RatFunc), so its arithmetic runs on Python ints;
`Fraction` coefficients are built only when asked for.  A polynomial is the
rational function whose D has one entry, a positive integer, and is built
as a UniPoly: one canonical form, one arithmetic, one equality and hash.
It all rests on one core on integer coefficient lists: sum, product, exact
quotient and gcd.  A gcd with a linear argument is a root test: one integer
Horner evaluation of the other argument.  Other greatest common divisors
come from the primitive remainder sequence over the integers (Brown 1971):
every pseudo-remainder is divided by its content, which keeps the
coefficients from growing exponentially.  Rational functions add and
multiply with gcds of the smaller factors (Henrici 1956), cancel common
factors by exact integer quotients, and fix the content and sign once per
result, each value on its own (see RatFunc).

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ZeroDenominator(ArithmeticError):
    """Raised when a rational function is built with a zero denominator."""


class PoleAtPoint(ArithmeticError):
    """Raised when a rational function is evaluated at a pole."""


class ZeroPolynomial(ValueError):
    """Raised when an operation requires a nonzero polynomial."""


class BadN(ValueError):
    """Raised when a marked-point count is outside a computation's range."""


def _rational(x):
    """x itself if it is an int or a Fraction; both carry `numerator` and
    `denominator`."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class RatFunc:
    """Rational function N/D in g: n and d are the integer coefficient
    tuples of N and D, lowest degree first, in canonical form (N and D
    coprime in Q[g], no content common to both, D's leading coefficient
    positive; zero is ((), (1,))), so equal values have equal tuples.
    A value whose d has one entry is a polynomial, and is built as a
    UniPoly.  Operations build no polynomial object for an intermediate
    and fix content and sign once per result; num and den give the pair
    with den monic.  Each value is normalized on its own: one common Z[g]
    denominator per ring element was measured slower.
    """

    __slots__ = ("n", "d")

    def __new__(cls, num, den=1):
        num, den = (x if isinstance(x, UniPoly) else UniPoly.const(x) for x in (num, den))
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        a, b = num.n, den.n
        if a:
            common = poly_gcd(num, den)
            if not common.is_one():
                a, b = _divide(a, common.n)[1], _divide(b, common.n)[1]
            # (a/p) / (b/q) is (a*q) / (b*p).
            a, b = [x * den.d[0] for x in a], [x * num.d[0] for x in b]
        return _reduced(a, b)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def num(self) -> "UniPoly":
        """The numerator over a monic denominator."""
        return _reduced(self.n, self.d[-1:])

    @property
    def den(self) -> "UniPoly":
        """The denominator, monic."""
        return _reduced(self.d, self.d[-1:])

    @property
    def is_zero(self) -> bool:
        return not self.n

    def __eq__(self, other):
        other = _coerce_ratfunc(other)
        if other is None:
            return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        # A constant hashes as its value, as it compares equal to it.
        n, d = self.n, self.d
        if len(n) > 1 or len(d) > 1:
            return hash((n, d))
        return hash(Fraction(n[0], d[0])) if n else 0

    def __add__(self, other):
        # Henrici: with g = gcd(b, d), a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)),
        # and only a factor of g can cancel from that.
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = (self.n, self.d), (o.n, o.d)
        if not a or not c:
            return o if not a else self
        if b == (1,) == d:  # integer polynomials: a sum of them has no content to remove
            return _new(tuple(_add(a, c)), b)
        g = _gcd(b, d)
        if len(g) == 1:  # coprime: (a*d + c*b) / (b*d) is in lowest terms
            return _reduced(_add(_mul(a, d), _mul(c, b)), _mul(b, d))
        b, d = _divide(b, g)[1], _divide(d, g)[1]
        num = _add(_mul(a, d), _mul(c, b))
        if num:
            h = _gcd(num, g)
            if len(h) > 1:
                num, g = _divide(num, h)[1], _divide(g, h)[1]
        return _reduced(num, _mul(_mul(b, d), g))

    __radd__ = __add__

    def __neg__(self):
        return _new(tuple(-x for x in self.n), self.d)

    def __sub__(self, other):
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        # Henrici: cancel gcd(a, d) and gcd(c, b) before multiplying a/b by c/d.
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = (self.n, self.d), (o.n, o.d)
        if not a or not c:
            return _ZERO
        if b == (1,) == d:  # integer polynomials: so is their product
            return _new(tuple(_mul(a, c)), b)
        g = _gcd(a, d)
        if len(g) > 1:
            a, d = _divide(a, g)[1], _divide(d, g)[1]
        g = _gcd(c, b)
        if len(g) > 1:
            c, b = _divide(c, g)[1], _divide(b, g)[1]
        return _reduced(_mul(a, c), _mul(b, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __pow__(self, k: int):
        return power(self, k, _ONE)

    def invert(self) -> "RatFunc":
        if not self.n:
            raise ZeroDivisionError("inverting the zero rational function")
        return _reduced(self.d, self.n)

    def __call__(self, g0) -> Fraction:
        """Exact value at g0; raises PoleAtPoint if the denominator vanishes."""
        g0 = _rational(g0)
        p, q = g0.numerator, g0.denominator
        den = _homogeneous_value(self.d, p, q)
        if not den:
            raise PoleAtPoint(f"pole at g = {g0}")
        # N(p/q) / D(p/q), with N and D homogenized to their own degrees.
        num, shift = _homogeneous_value(self.n, p, q), len(self.d) - len(self.n)
        return Fraction(num * q**shift, den) if shift >= 0 else Fraction(num, den * q**-shift)

    def __str__(self):
        return ratfunc_str(self)

    def __repr__(self):
        return f"{type(self).__name__}({ratfunc_str(self)})"


class UniPoly(RatFunc):
    """Dense univariate polynomial in the formal parameter g over Q: the
    RatFunc whose denominator tuple d has one entry, a positive integer.

    The value is sum(n[i] * g**i) / d[0], and d[0] shares no factor with
    all of n, so equal polynomials have equal fields.  The leading entry
    of n is nonzero unless the polynomial is zero, which is ((), (1,)) and
    has degree -1 (sentinel for "minus infinity").
    """

    __slots__ = ()

    def __new__(cls, coeffs=()):
        cs = [_rational(c) for c in coeffs]
        # The lcm of reduced denominators leaves the numerators coprime to it.
        den = math.lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        return _new(tuple(nums), (den,))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "UniPoly":
        c = _rational(c)
        return _new((c.numerator,), (c.denominator,)) if c else _ZERO

    @staticmethod
    def g() -> "UniPoly":
        """The polynomial g itself."""
        return UniPoly([0, 1])

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """coeffs[i] is the coefficient of g**i, as a Fraction."""
        return tuple(Fraction(x, self.d[0]) for x in self.n)

    @property
    def degree(self) -> int:
        return len(self.n) - 1

    @property
    def leading(self) -> Fraction:
        if not self.n:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self.n[-1], self.d[0])

    def is_one(self) -> bool:
        return self.n == self.d == (1,)

    def monic(self) -> "UniPoly":
        return _reduced(self.n, self.n[-1:]) if self.n else self

    def derivative(self) -> "UniPoly":
        return _reduced([i * x for i, x in enumerate(self.n)][1:], self.d)


def _homogeneous_value(nums, p: int, q: int) -> int:
    """sum(nums[i] * p**i * q**(n - i)) for n = len(nums) - 1, by Horner: the
    numerators' polynomial at p/q times q**n, in integers (q may be negative)."""
    acc, qpow = 0, 1
    for x in reversed(nums):
        acc = acc * p + x * qpow
        qpow *= q
    return acc


def power(base, k: int, one):
    """base**k by square-and-multiply; one is the unit of base's ring."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:  # a square past the top bit would go unused
            base = base * base
    return result


def genus_poly(genus) -> UniPoly:
    """The genus as a polynomial: the formal variable, or a constant >= 2."""
    if genus == "symbolic":
        return UniPoly.g()
    if isinstance(genus, int):
        if genus <= 1:
            raise PoleAtPoint(f"genus {genus} hits coefficient poles (need g >= 2)")
        return UniPoly.const(genus)
    raise ValueError(f"genus must be 'symbolic' or an integer, got {genus!r}")


def poly_str(p: UniPoly) -> str:
    """Canonical form: descending degree, explicit signs, '*' and '^'.

    Examples: "2*g+1", "-8*g^3+8*g", "g", "-g^2", "0", "1/2*g".
    """
    nums, den = p.n, p.d[0]
    if len(nums) < 2:  # zero, or a constant kept in lowest terms
        return "0" if not nums else str(nums[0]) if den == 1 else f"{nums[0]}/{den}"
    parts = []
    for d in range(p.degree, -1, -1):
        c = nums[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        c = abs(c)
        common = math.gcd(c, den)
        # The magnitude as Fraction prints it: "num/den" in lowest terms, or "num".
        mag = str(c // common) if common == den else f"{c // common}/{den // common}"
        if d == 0:
            body = mag
        else:
            gpow = "g" if d == 1 else f"g^{d}"
            body = gpow if mag == "1" else f"{mag}*{gpow}"
        parts.append(sign + body)
    return "".join(parts)


def _add(a, b) -> list:
    """The sum of two integer coefficient sequences (lowest degree first, as
    in the helpers below), trailing zeros stripped."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    while out and not out[-1]:
        out.pop()
    return out


def _mul(a, b) -> list:
    """The product of two nonzero integer sequences; with no trailing zeros
    in either, it has none."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:  # a constant factor, often 1 (a polynomial's denominator)
        y = b[0]
        return list(a) if y == 1 else [x * y for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def _pseudo_divmod(a, b) -> tuple[int, list, list]:
    """(s, q, r) with s*a == q*b + r, deg r < deg b and s > 0, for integer
    coefficient sequences (lowest degree first; b nonzero, no trailing
    zero).  Each step scales by the least factor that makes the next
    quotient coefficient integral, so s divides lc(b)**(deg a - deg b + 1)."""
    lc, db = b[-1], len(b) - 1
    r = list(a)
    q = [0] * max(len(r) - db, 0)
    s = 1
    while len(r) > db:
        top = r.pop()
        if not top:
            continue
        k = len(r) - db
        m = abs(lc) // math.gcd(top, lc)
        if m != 1:
            r = [x * m for x in r]
            q = [x * m for x in q]
            s *= m
            top *= m
        t = top // lc
        q[k] = t
        for j in range(db):
            r[k + j] -= t * b[j]
    return s, q, r


def _primitive(nums) -> list:
    """An integer sequence divided by its content, signed so that the last
    entry is positive."""
    c = math.gcd(*nums)
    if nums[-1] < 0:
        c = -c
    return [x // c for x in nums] if c != 1 else list(nums)


def _divide(a, b) -> tuple[int, list]:
    """(s, q) with s*a == q*b, for integer sequences where b divides a over
    Q; a nonzero remainder raises ArithmeticError.  A primitive b gives
    s = 1 (Gauss's lemma): an exact quotient over the integers."""
    s, q, r = _pseudo_divmod(a, b)
    if any(r):
        raise ArithmeticError("inexact polynomial quotient")
    return s, q


def _gcd(a, b) -> list:
    """The gcd of two nonzero integer sequences, primitive with a positive
    leading entry: [1] when they are coprime over Q.

    A linear argument r0 + r1*g is the gcd when the other argument vanishes
    at its root -r0/r1.  Otherwise the primitive remainder sequence over the
    integers runs (Brown 1971), and its last nonzero term is the gcd."""
    if len(a) == 1 or len(b) == 1:
        return [1]
    if len(a) == 2 or len(b) == 2:
        line, other = (a, b) if len(a) == 2 else (b, a)
        return [1] if _homogeneous_value(other, -line[0], line[1]) else _primitive(line)
    x, y = _primitive(a), _primitive(b)
    if len(x) < len(y):
        x, y = y, x
    while y:
        r = _pseudo_divmod(x, y)[2]
        while r and not r[-1]:
            r.pop()
        if len(r) == 1:  # a nonzero constant remainder: coprime
            return [1]
        x, y = y, (_primitive(r) if r else r)
    return x


def _exact_quotient(p: UniPoly, d: UniPoly) -> UniPoly:
    """p / d for a d that divides p; a nonzero remainder raises
    ArithmeticError."""
    s, q = _divide(p.n, d.n)
    return _reduced([x * d.d[0] for x in q], (s * p.d[0],))


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Euclidean division a = q*b + r with deg r < deg b."""
    if b.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    s, q, r = _pseudo_divmod(a.n, b.n)
    while r and not r[-1]:
        r.pop()
    den = (s * a.d[0],)
    return _reduced([x * b.d[0] for x in q], den), _reduced(r, den)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor; gcd(0, 0) = 0.  The integer gcd is
    primitive with a positive leading coefficient, so over that coefficient
    it is already the monic gcd in lowest terms."""
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    x = _gcd(a.n, b.n)
    return _new(tuple(x), (x[-1],))


def square_free_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'), for a nonzero p: same roots, all simple."""
    d = poly_gcd(p, p.derivative())
    if d.is_one():
        return p.monic()
    return _exact_quotient(p, d).monic()


_set_n, _set_d = RatFunc.n.__set__, RatFunc.d.__set__


def _new(n: tuple, d: tuple) -> RatFunc:
    """A RatFunc from tuples already in canonical form: a UniPoly when d
    has one entry."""
    out = object.__new__(UniPoly if len(d) == 1 else RatFunc)
    _set_n(out, n)
    _set_d(out, d)
    return out


_ZERO, _ONE = _new((), (1,)), _new((1,), (1,))


def _reduced(num, den) -> RatFunc:
    """num/den for integer sequences coprime over Q, den nonzero and
    neither with a trailing zero: the content of both together divided out
    and den's leading coefficient made positive."""
    if not num:
        return _ZERO
    c = math.gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        return _new(tuple(x // c for x in num), tuple(x // c for x in den))
    return _new(tuple(num), tuple(den))


def _coerce_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return UniPoly.const(x)
    return None


def ratfunc_str(f: RatFunc) -> str:
    """Canonical form: a polynomial as poly_str prints it, else "(num)/(den)"."""
    if isinstance(f, UniPoly):
        return poly_str(f)
    return f"({poly_str(f.num)})/({poly_str(f.den)})"


def _sign_changes(values) -> int:
    vals = [v for v in values if v != 0]
    changes = 0
    for a, b in zip(vals, vals[1:]):
        if (a < 0) != (b < 0):
            changes += 1
    return changes


def _sturm_chain(p: UniPoly) -> list[UniPoly]:
    """The Sturm sequence of a square-free p of degree >= 1.  No remainder
    is zero, as gcd(p, p') is constant, so it ends in a nonzero constant."""
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        chain.append(-poly_divmod(chain[-2], chain[-1])[1])
    return chain


def sturm_roots_geq(p: UniPoly, bound) -> int:
    """Exact count of distinct real roots of p in [bound, +infinity)."""
    if p.is_zero:
        raise ZeroPolynomial("root counting needs a nonzero polynomial")
    bound = _rational(bound)
    q = square_free_part(p)
    if q.degree == 0:
        return 0
    chain = _sturm_chain(q)
    at_bound = _sign_changes([f(bound) for f in chain])
    # Sign at +infinity is the sign of the leading coefficient.
    at_inf = _sign_changes([f.leading for f in chain])
    count_open = at_bound - at_inf  # roots in (bound, +inf)
    if q(bound) == 0:
        count_open += 1
    return count_open


def _bareiss(a) -> tuple[int, int]:
    """Rank and determinant of an integer matrix by fraction-free elimination
    (Bareiss 1968); `a` is a list of equal-length row lists, overwritten.

    Pivots are found by row swaps, and a column with no pivot is skipped.
    After each pivot every remaining entry is a minor of the input, so by
    Sylvester's identity the division by the previous pivot is exact and
    `//` keeps the entries integral.  The determinant is 0 unless the
    matrix is square and of full rank."""
    nrows, ncols = len(a), len(a[0]) if a else 0
    sign, prev, rank = 1, 1, 0
    for c in range(ncols):
        if a[rank][c] == 0:
            pivot = next((i for i in range(rank + 1, nrows) if a[i][c]), None)
            if pivot is None:
                continue
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        pivot_row = a[rank]
        top = pivot_row[c]
        for i in range(rank + 1, nrows):
            row = a[i]
            lead = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * top - lead * pivot_row[j]) // prev
        prev = top
        rank += 1
        if rank == nrows:
            break
    return rank, sign * prev if rank == nrows == ncols else 0
