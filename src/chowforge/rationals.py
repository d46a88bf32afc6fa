"""Exact arithmetic backbone: univariate polynomials in the genus parameter g
over arbitrary-precision rationals, normalized rational functions, evaluation,
Sturm-sequence real-root counting for rank certificates, and the one
fraction-free elimination behind every integer determinant and rational rank.

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


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class UniPoly:
    """Dense univariate polynomial in the formal parameter g over Fraction.

    coeffs[i] is the coefficient of g**i; trailing zeros are stripped, so the
    leading coefficient is nonzero unless the polynomial is zero.  The zero
    polynomial has degree -1 (sentinel for "minus infinity").
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly([_as_fraction(c)])

    @staticmethod
    def g() -> "UniPoly":
        """The polynomial g itself."""
        return UniPoly([0, 1])

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_one(self) -> bool:
        return self.coeffs == (Fraction(1),)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("UniPoly", self.coeffs))

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
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(o.coeffs) + [Fraction(0)] * (n - len(o.coeffs))
        return UniPoly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

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
        if self.is_zero or o.is_zero:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = UniPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c) -> "UniPoly":
        c = _as_fraction(c)
        return UniPoly([c * x for x in self.coeffs])

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, g0) -> Fraction:
        g0 = _as_fraction(g0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * g0 + c
        return acc

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"UniPoly({poly_str(self)})"


def poly_str(p: UniPoly) -> str:
    """Canonical form: descending degree, explicit signs, '*' and '^'.

    Examples: "2*g+1", "-8*g^3+8*g", "g", "-g^2", "0", "1/2*g".
    """
    if p.is_zero:
        return "0"
    parts = []
    for d in range(p.degree, -1, -1):
        c = p.coeffs[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = -c if c < 0 else c
        if d == 0:
            body = str(mag)
        else:
            gpow = "g" if d == 1 else f"g^{d}"
            body = gpow if mag == 1 else f"{mag}*{gpow}"
        parts.append(sign + body)
    return "".join(parts)


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Euclidean division a = q*b + r with deg r < deg b."""
    if b.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    q = [Fraction(0)] * max(a.degree - b.degree + 1, 0)
    r = list(a.coeffs)
    lead = b.leading
    db = b.degree
    while len(r) - 1 >= db and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        s = r[-1] / lead
        k = len(r) - 1 - db
        q[k] = s
        for j, c in enumerate(b.coeffs):
            r[k + j] -= s * c
        r.pop()
    return UniPoly(q), UniPoly(r)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    if a.degree == 0 or b.degree == 0:  # a nonzero constant divides both
        return UniPoly.const(1)
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    return a.monic()


def square_free_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'): same roots, all simple."""
    if p.is_zero:
        raise ZeroPolynomial("square-free part of zero")
    d = poly_gcd(p, p.derivative())
    if d.is_one():
        return p.monic()
    return poly_divmod(p, d)[0].monic()


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
            den = UniPoly.const(1)
        elif isinstance(den, (int, Fraction)):
            den = UniPoly.const(den)
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero:
            num, den = UniPoly(), UniPoly.const(1)
        else:
            common = poly_gcd(num, den)
            if not common.is_one():
                num = poly_divmod(num, common)[0]
                den = poly_divmod(den, common)[0]
            lead = den.leading
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def __eq__(self, other):
        other = _coerce_ratfunc(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    def __add__(self, other):
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RatFunc)  # -num/den is already normalized
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other):
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = _coerce_ratfunc(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def invert(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverting the zero rational function")
        return RatFunc(self.den, self.num)

    def __call__(self, g0) -> Fraction:
        return ratfunc_eval(self, g0)

    def __str__(self):
        return ratfunc_str(self)

    def __repr__(self):
        return f"RatFunc({ratfunc_str(self)})"


def _coerce_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc(UniPoly.const(x))
    if isinstance(x, UniPoly):
        return RatFunc(x)
    return None


def ratfunc_str(f: RatFunc) -> str:
    """Canonical form: "num" if the denominator is 1, else "(num)/(den)"."""
    if f.is_polynomial():
        return poly_str(f.num)
    return f"({poly_str(f.num)})/({poly_str(f.den)})"


def ratfunc_eval(f: RatFunc, g0) -> Fraction:
    """Exact value f(g0); raises PoleAtPoint if the denominator vanishes."""
    g0 = _as_fraction(g0)
    d = f.den(g0)
    if d == 0:
        raise PoleAtPoint(f"pole at g = {g0}")
    return f.num(g0) / d


def _sign_changes(values) -> int:
    vals = [v for v in values if v != 0]
    changes = 0
    for a, b in zip(vals, vals[1:]):
        if (a < 0) != (b < 0):
            changes += 1
    return changes


def _sturm_chain(p: UniPoly) -> list[UniPoly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero]


def sturm_roots_geq(p: UniPoly, bound) -> int:
    """Exact count of distinct real roots of p in [bound, +infinity)."""
    if p.is_zero:
        raise ZeroPolynomial("root counting needs a nonzero polynomial")
    bound = _as_fraction(bound)
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


def _rational_rank(rows) -> int:
    """Exact rank of a matrix of rationals: each row is scaled by the lcm of
    its denominators, and the integer rows are eliminated fraction-free.
    Rows of unequal length raise ValueError."""
    rows = [[Fraction(v) for v in row] for row in rows]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    ints = []
    for row in rows:
        lcm = math.lcm(*(v.denominator for v in row))
        ints.append([v.numerator * (lcm // v.denominator) for v in row])
    return _bareiss(ints)[0]
