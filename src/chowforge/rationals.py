"""Exact arithmetic backbone: univariate polynomials in the genus parameter g
over arbitrary-precision rationals, normalized rational functions, evaluation,
Sturm-sequence real-root counting for rank certificates, and the one
fraction-free elimination behind every integer determinant and rational rank.

A polynomial is stored as a tuple of integer numerators over one positive
integer denominator in lowest terms, so its arithmetic runs on Python ints
with one gcd or lcm per operation; `Fraction` coefficients are built only
when asked for.  A gcd with a linear argument is a root test: one integer
Horner evaluation of the other argument.  Other greatest common divisors
come from the primitive remainder sequence over the integers (Brown 1971):
every pseudo-remainder is divided by its content, which keeps the
coefficients from growing exponentially.  Rational functions add and
multiply with gcds of the smaller factors (Henrici 1956), add over a
denominator 1 with no gcd at all, multiply by one with no product of
denominators, and cancel common factors by exact integer quotients.

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


class UniPoly:
    """Dense univariate polynomial in the formal parameter g over Q.

    The value is sum(numerators[i] * g**i) / denominator.  Trailing zero
    numerators are stripped, and the denominator is positive and shares no
    factor with all the numerators, so equal polynomials have equal fields.
    The leading numerator is nonzero unless the polynomial is zero, which is
    ((), 1) and has degree -1 (sentinel for "minus infinity").
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs=()):
        cs = [_rational(c) for c in coeffs]
        # The lcm of reduced denominators leaves the numerators coprime to it.
        den = math.lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        object.__setattr__(self, "numerators", tuple(nums))
        object.__setattr__(self, "denominator", den)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "UniPoly":
        c = _rational(c)
        return _raw((c.numerator,), c.denominator) if c else _raw((), 1)

    @staticmethod
    def g() -> "UniPoly":
        """The polynomial g itself."""
        return UniPoly([0, 1])

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """coeffs[i] is the coefficient of g**i, as a Fraction."""
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self.numerators[-1], self.denominator)

    def is_one(self) -> bool:
        return self.numerators == (1,) and self.denominator == 1

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.numerators == o.numerators and self.denominator == o.denominator

    def __hash__(self):
        # A constant hashes as its value, as it compares equal to it.
        if self.degree <= 0:
            return hash(self.leading) if self.numerators else 0
        return hash((self.numerators, self.denominator))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.numerators, o.numerators
        da, db = self.denominator, o.denominator
        den = da
        if da != db:
            den = math.lcm(da, db)
            a = [x * (den // da) for x in a]
            b = [x * (den // db) for x in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, y in enumerate(b):
            out[i] += y
        return _poly(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _raw(tuple(-x for x in self.numerators), self.denominator)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.numerators, o.numerators
        if not a or not b:
            return UniPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        return _poly(out, self.denominator * o.denominator)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, _ONE)

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return _poly(list(self.numerators), self.numerators[-1])

    def derivative(self) -> "UniPoly":
        return _poly([i * x for i, x in enumerate(self.numerators)][1:], self.denominator)

    def __call__(self, g0) -> Fraction:
        g0 = _rational(g0)
        p, q = g0.numerator, g0.denominator
        acc = _homogeneous_value(self.numerators, p, q)
        return Fraction(acc, self.denominator * q ** max(self.degree, 0))

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"UniPoly({poly_str(self)})"


# The slots' own setters, which bypass the __setattr__ that keeps instances
# immutable; they are the fast way to fill a fresh instance.
_set_numerators, _set_denominator = UniPoly.numerators.__set__, UniPoly.denominator.__set__


def _homogeneous_value(nums, p: int, q: int) -> int:
    """sum(nums[i] * p**i * q**(n - i)) for n = len(nums) - 1, by Horner: the
    numerators' polynomial at p/q times q**n, in integers (q may be negative)."""
    acc, qpow = 0, 1
    for x in reversed(nums):
        acc = acc * p + x * qpow
        qpow *= q
    return acc


def _raw(nums: tuple, den: int) -> UniPoly:
    """A UniPoly from fields already in canonical form."""
    p = object.__new__(UniPoly)
    _set_numerators(p, nums)
    _set_denominator(p, den)
    return p


def _poly(nums: list, den: int) -> UniPoly:
    """The polynomial sum(nums[i] * g**i) / den, for a fresh list of ints
    (consumed) and a nonzero int, in lowest terms."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _raw((), 1)
    if den != 1:
        c = math.gcd(den, *nums)
        if den < 0:
            c = -c
        if c != 1:
            nums = [x // c for x in nums]
            den //= c
    return _raw(tuple(nums), den)


_ONE = UniPoly.const(1)


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
    nums, den = p.numerators, p.denominator
    if len(nums) < 2:  # zero, or a constant that UniPoly keeps in lowest terms
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


def _exact_quotient(p: UniPoly, d: UniPoly) -> UniPoly:
    """p / d for a d that divides p; a nonzero remainder raises
    ArithmeticError.  The callers divide by monic gcds, whose numerators are
    primitive (the leading one equals the denominator), so by Gauss's lemma
    the pseudo-division runs with s = 1: an exact quotient over the
    integers."""
    s, q, r = _pseudo_divmod(p.numerators, d.numerators)
    if any(r):
        raise ArithmeticError("inexact polynomial quotient")
    return _poly([x * d.denominator for x in q], s * p.denominator)


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Euclidean division a = q*b + r with deg r < deg b."""
    if b.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    s, q, r = _pseudo_divmod(a.numerators, b.numerators)
    den = s * a.denominator
    return _poly([x * b.denominator for x in q], den), _poly(r, den)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor; gcd(0, 0) = 0.

    A linear argument r0 + r1*g is the gcd when the other argument vanishes
    at its root -r0/r1, and 1 otherwise.  Otherwise the primitive remainder
    sequence over the integers runs: its last nonzero term is primitive with
    a positive leading coefficient, so over that coefficient it is already
    the monic gcd in lowest terms."""
    if a.degree == 0 or b.degree == 0:  # a nonzero constant divides both
        return _ONE
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    if a.degree == 1 or b.degree == 1:
        line, other = (a, b) if a.degree == 1 else (b, a)
        r0, r1 = line.numerators
        return _ONE if _homogeneous_value(other.numerators, -r0, r1) else line.monic()
    x, y = _primitive(a.numerators), _primitive(b.numerators)
    if len(x) < len(y):
        x, y = y, x
    while y:
        r = _pseudo_divmod(x, y)[2]
        while r and not r[-1]:
            r.pop()
        if len(r) == 1:  # a nonzero constant remainder: coprime
            return _ONE
        x, y = y, (_primitive(r) if r else r)
    return _raw(tuple(x), x[-1])


def square_free_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'), for a nonzero p: same roots, all simple."""
    d = poly_gcd(p, p.derivative())
    if d.is_one():
        return p.monic()
    return _exact_quotient(p, d).monic()


def _monic_den(num: UniPoly, den: UniPoly) -> tuple[UniPoly, UniPoly]:
    """num/den with both rescaled so that den is monic."""
    lead, dd = den.numerators[-1], den.denominator
    if lead == dd:
        return num, den
    return _poly([x * dd for x in num.numerators], num.denominator * lead), den.monic()


class RatFunc:
    """Normalized rational function num/den in g: den monic, gcd(num, den) = 1.

    Zero is represented as 0/1.  Equality is structural thanks to the
    normalization, which is enforced by the constructor.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = UniPoly.const(num)
        if den is None:
            den = _ONE
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero:
            num, den = UniPoly(), _ONE
        else:
            common = poly_gcd(num, den)
            if not common.is_one():
                num, den = _exact_quotient(num, common), _exact_quotient(den, common)
            num, den = _monic_den(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def __eq__(self, other):
        other = _coerce_ratfunc(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # A polynomial hashes as its numerator, as it compares equal to it.
        return hash(self.num) if self.den.is_one() else hash((self.num, self.den))

    def __add__(self, other):
        # Henrici: with g = gcd(b, d), a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)),
        # and only a factor of g can cancel from that.
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = (self.num, self.den), (o.num, o.den)
        if a.is_zero or c.is_zero:
            return o if a.is_zero else self
        # With b = 1, gcd(a*d + c, d) = gcd(c, d) = 1: the sum is in lowest terms.
        if b.is_one():
            return _ratfunc(a * d + c, d)
        if d.is_one():
            return _ratfunc(c * b + a, b)
        g = poly_gcd(b, d)
        if g.is_one():
            return _ratfunc(a * d + c * b, b * d)
        b, d = _exact_quotient(b, g), _exact_quotient(d, g)
        num = a * d + c * b
        if num.is_zero:
            return _ratfunc(num, _ONE)
        h = poly_gcd(num, g)
        if not h.is_one():
            num, g = _exact_quotient(num, h), _exact_quotient(g, h)
        return _ratfunc(num, b * d * g)

    __radd__ = __add__

    def __neg__(self):
        return _ratfunc(-self.num, self.den)  # -num/den is already normalized

    def __sub__(self, other):
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        # Henrici: cancel gcd(a, d) and gcd(c, b) before multiplying a/b by c/d.
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = (self.num, self.den), (o.num, o.den)
        if a.is_zero or c.is_zero:
            return _ratfunc(UniPoly(), _ONE)
        g = poly_gcd(a, d)
        if not g.is_one():
            a, d = _exact_quotient(a, g), _exact_quotient(d, g)
        g = poly_gcd(c, b)
        if not g.is_one():
            c, b = _exact_quotient(c, g), _exact_quotient(b, g)
        # A denominator 1 leaves the other one as the product's.
        return _ratfunc(a * c, d if b.is_one() else b if d.is_one() else b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def invert(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverting the zero rational function")
        return _ratfunc(*_monic_den(self.den, self.num))

    def __call__(self, g0) -> Fraction:
        """Exact value at g0; raises PoleAtPoint if the denominator vanishes."""
        d = self.den(g0)
        if d == 0:
            raise PoleAtPoint(f"pole at g = {g0}")
        return self.num(g0) / d

    def __str__(self):
        return ratfunc_str(self)

    def __repr__(self):
        return f"RatFunc({ratfunc_str(self)})"


_set_num, _set_den = RatFunc.num.__set__, RatFunc.den.__set__


def _ratfunc(num: UniPoly, den: UniPoly) -> RatFunc:
    """A RatFunc from a pair that is already normalized."""
    out = object.__new__(RatFunc)
    _set_num(out, num)
    _set_den(out, den)
    return out


def _coerce_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return _ratfunc(UniPoly.const(x), _ONE)
    if isinstance(x, UniPoly):
        return _ratfunc(x, _ONE)
    return None


def ratfunc_str(f: RatFunc) -> str:
    """Canonical form: "num" if the denominator is 1, else "(num)/(den)"."""
    if f.is_polynomial():
        return poly_str(f.num)
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
