"""Exact linear algebra for point/jet conditions on bidegree-(g+1, 2) forms
on P^1 x P^1: monomial basis, evaluation matrices (simple points, horizontal
jets, vertical first-order jets), exact rank over Q or a prime field,
curve-point sampling, and the dimension-count helpers.

Randomized checks are one-sided: a full-rank witness over F_p certifies the
generic (characteristic-p) statement; a FAIL only reports that no sampled
trial achieved full rank.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_PRIME = 1_000_003


class BadGenus(ValueError):
    """Raised for genus < 2."""


class BoundViolated(ValueError):
    """Raised when a point count exceeds the supported dimension bound."""


class FieldMismatch(TypeError):
    """Raised when coordinates do not match the configured field."""


class PointAtChartBoundary(ValueError):
    """Raised when both coordinates of a factor are zero."""


class SamplingExhausted(RuntimeError):
    """Raised when the sampling retry budget runs out (bad prime or seed)."""


class CompositeModulus(ValueError):
    """Raised when a prime-field modulus is not an odd prime, or is too
    large for the primality test to decide."""


# Miller-Rabin with the prime bases up to 41 decides primality exactly for
# every n below this bound (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below 3.3e24."""
    if n >= _MR_EXACT_BELOW:
        raise CompositeModulus(f"modulus {n} is too large to prove prime")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def require_odd_prime(prime: int) -> None:
    """Reject moduli that are not odd primes: Fermat inverses and square
    roots are meaningless modulo a composite, and rank witnesses become
    false certificates."""
    if prime < 3 or not is_prime(prime):
        raise CompositeModulus(f"modulus {prime} is not an odd prime")


@dataclass(frozen=True)
class Bidegree:
    """The bidegree (g+1, 2) of the forms cutting out the curves."""

    a: int
    b: int = 2

    def __post_init__(self):
        if self.a < 3:
            raise BadGenus("first bidegree component must be >= 3 (genus >= 2)")
        if self.b != 2:
            raise ValueError("second bidegree component must be 2")

    @staticmethod
    def for_genus(g: int) -> "Bidegree":
        if g < 2:
            raise BadGenus(f"genus {g} < 2")
        return Bidegree(g + 1, 2)


@dataclass(frozen=True)
class Simple:
    """Evaluate at the point: one row."""

    rows = 1


@dataclass(frozen=True)
class HorizontalJet:
    """Derivatives of orders 0..order-1 along the horizontal ruling
    (first-factor coordinate), at fixed second coordinate: order rows."""

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("horizontal jet order must be >= 1")

    @property
    def rows(self) -> int:
        return self.order


@dataclass(frozen=True)
class VerticalJet:
    """Value plus first derivative along the vertical ruling: two rows."""

    order: int = 1

    def __post_init__(self):
        if self.order != 1:
            raise ValueError("vertical jets are first-order only")

    rows = 2


@dataclass(frozen=True)
class PointCondition:
    """A point of P^1 x P^1 with a condition kind attached."""

    point: tuple  # ((x0, x1), (y0, y1))
    kind: object = field(default_factory=Simple)

    def __post_init__(self):
        (x0, x1), (y0, y1) = self.point
        if x0 == 0 and x1 == 0:
            raise PointAtChartBoundary("first-factor coordinates both zero")
        if y0 == 0 and y1 == 0:
            raise PointAtChartBoundary("second-factor coordinates both zero")


def _proj_equal(p, q, prime) -> bool:
    a = p[0] * q[1] - p[1] * q[0]
    return (a % prime == 0) if prime else (a == 0)


@dataclass(frozen=True)
class PointConfig:
    """A list of conditions over Q (prime=None) or F_prime.  When flagged,
    distinct first-factor projections are validated on construction."""

    conditions: tuple
    prime: int | None = None
    require_distinct_first: bool = False

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))
        for c in self.conditions:
            for pair in c.point:
                for v in pair:
                    if self.prime is not None and not isinstance(v, int):
                        raise FieldMismatch("prime-field configs need integer coordinates")
                    if self.prime is None and not isinstance(v, (int, Fraction)):
                        raise FieldMismatch("rational configs need int or Fraction coordinates")
        if self.require_distinct_first:
            firsts = [c.point[0] for c in self.conditions]
            for i in range(len(firsts)):
                for j in range(i + 1, len(firsts)):
                    if _proj_equal(firsts[i], firsts[j], self.prime):
                        raise ValueError(
                            f"conditions {i} and {j} share a first-factor projection"
                        )

    @property
    def total_rows(self) -> int:
        return sum(c.kind.rows for c in self.conditions)


def monomial_basis(g: int) -> list[tuple[int, int]]:
    """The 3g+6 exponent pairs (alpha, beta) of x0^alpha x1^(g+1-alpha)
    y0^beta y1^(2-beta), ordered alpha descending then beta descending."""
    if g < 2:
        raise BadGenus(f"genus {g} < 2")
    return [(a, b) for a in range(g + 1, -1, -1) for b in (2, 1, 0)]


def _chart_values(coords, top: int, prime):
    """Per-exponent values and their chart data for one P^1 factor.

    Returns (exponent_of_affine_coordinate, affine_value) per basis exponent
    e in 0..top: in the chart where the second coordinate is normalized to 1
    the monomial u0^e u1^(top-e) evaluates to t^e with t = u0/u1; in the
    opposite chart it evaluates to s^(top-e) with s = u1/u0."""
    u0, u1 = coords
    if prime is not None:
        u0, u1 = u0 % prime, u1 % prime
    if u1 != 0:
        inv = _inv(u1, prime)
        t = u0 * inv if prime is None else (u0 * inv) % prime
        return [(e, t) for e in range(top + 1)]
    inv = _inv(u0, prime)
    s = u1 * inv if prime is None else (u1 * inv) % prime  # zero here
    return [(top - e, s) for e in range(top + 1)]


def _inv(v, prime):
    if prime is None:
        if v == 0:
            raise ZeroDivisionError("inverting zero")
        return Fraction(1, 1) / v
    return pow(v % prime, prime - 2, prime)


def _falling(e: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= e - t
    return out


def _deriv_value(exp: int, value, k: int, prime):
    """k-th derivative of t^exp evaluated at t = value."""
    if exp < k:
        return 0 if prime is not None else Fraction(0)
    coeff = _falling(exp, k)
    v = value ** (exp - k) * coeff
    return v % prime if prime is not None else Fraction(v)


def evaluation_matrix(cfg: PointConfig, g: int):
    """One row per scalar condition, one column per basis monomial.

    Jets are symbolic derivatives of the monomials in the affine chart that
    normalizes the nonzero coordinate of the relevant factor."""
    basis = monomial_basis(g)
    prime = cfg.prime
    rows = []
    for cond in cfg.conditions:
        (xc, yc) = cond.point
        xvals = _chart_values(xc, g + 1, prime)
        yvals = _chart_values(yc, 2, prime)
        if isinstance(cond.kind, Simple):
            orders = [("x", 0)]
        elif isinstance(cond.kind, HorizontalJet):
            orders = [("x", k) for k in range(cond.kind.order)]
        elif isinstance(cond.kind, VerticalJet):
            orders = [("y", 0), ("y", 1)]
        else:
            raise TypeError(f"unknown condition kind {cond.kind!r}")
        for axis, k in orders:
            row = []
            for alpha, beta in basis:
                xe, xv = xvals[alpha]
                ye, yv = yvals[beta]
                if axis == "x":
                    xpart = _deriv_value(xe, xv, k, prime)
                    ypart = _deriv_value(ye, yv, 0, prime)
                else:
                    xpart = _deriv_value(xe, xv, 0, prime)
                    ypart = _deriv_value(ye, yv, k, prime)
                v = xpart * ypart
                row.append(v % prime if prime is not None else v)
            rows.append(row)
    return rows


def rank_exact(matrix, prime: int | None = None) -> int:
    """Exact rank by Gaussian elimination over Q or F_prime."""
    a = [list(row) for row in matrix]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            v = a[i][c] % prime if prime is not None else a[i][c]
            if v != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = _inv(a[r][c], prime)
        for i in range(r + 1, nrows):
            if a[i][c] != 0:
                f = a[i][c] * inv
                for j in range(c, ncols):
                    a[i][j] = a[i][j] - f * a[r][j]
                    if prime is not None:
                        a[i][j] %= prime
        r += 1
        rank += 1
        if r == nrows:
            break
    return rank


@dataclass(frozen=True)
class Verdict:
    """One-sided randomized verdict: PASS carries a reproducible witness;
    FAIL only means no sampled trial achieved full rank."""

    status: str  # "PASS" | "FAIL"
    target_rank: int
    trials: int
    witness: dict | None
    note: str = "probabilistic one-sided check"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "target_rank": self.target_rank,
            "trials": self.trials,
            "witness": self.witness,
            "note": self.note,
        }


def _distinct_randranges(rng: random.Random, count: int, prime: int) -> list[int]:
    seen: set[int] = set()
    out = []
    while len(out) < count:
        v = rng.randrange(prime)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def check_general_position(
    g: int,
    n: int,
    seed: int = 0,
    trials: int = 20,
    prime: int = DEFAULT_PRIME,
    allow_bound_violation: bool = False,
) -> Verdict:
    """Random configurations of n-1 points with the first g on a common
    horizontal line (shared second coordinate, distinct first coordinates):
    PASS when some trial's evaluation matrix has full rank n-1."""
    if g < 2:
        raise BadGenus(f"genus {g} < 2")
    require_odd_prime(prime)
    target = n - 1
    if target > 3 * g + 5 and not allow_bound_violation:
        raise BoundViolated(f"n-1 = {target} exceeds 3g+5 = {3 * g + 5}")
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        xs = _distinct_randranges(rng, target, prime)
        shared_y = rng.randrange(prime)
        conds = []
        for i in range(target):
            y = shared_y if i < g else rng.randrange(prime)
            conds.append(PointCondition(((xs[i], 1), (y, 1)), Simple()))
        cfg = PointConfig(tuple(conds), prime=prime, require_distinct_first=True)
        m = evaluation_matrix(cfg, g)
        if rank_exact(m, prime) == target:
            return Verdict("PASS", target, t + 1, {"seed": seed, "trial": t, "prime": prime})
    return Verdict("FAIL", target, trials, None)


def tangency_config(g: int, n: int, seed: int = 0, prime: int = DEFAULT_PRIME) -> PointConfig:
    """A jet-plus-points configuration on one horizontal line: a horizontal
    jet of order g-n+2 at one point and n-1 simple points, all with the same
    second coordinate and distinct first coordinates (g+1 rows total)."""
    if not (1 <= n <= g):
        raise BoundViolated(f"need 1 <= n <= g, got n={n}, g={g}")
    rng = random.Random(f"{seed}:tangency")
    xs = _distinct_randranges(rng, n, prime)
    y = rng.randrange(prime)
    conds = [PointCondition(((xs[0], 1), (y, 1)), HorizontalJet(g - n + 2))]
    conds += [PointCondition(((x, 1), (y, 1)), Simple()) for x in xs[1:]]
    return PointConfig(tuple(conds), prime=prime, require_distinct_first=True)


# -- curve sampling ---------------------------------------------------------


def _poly_eval_mod(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_gcd_mod(a, b, p):
    a, b = [c % p for c in a], [c % p for c in b]

    def norm(u):
        while u and u[-1] == 0:
            u.pop()
        return u

    a, b = norm(a), norm(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        r = a[:]
        while len(r) >= len(b):
            r = [c % p for c in r]
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(b):
                break
            f = (r[-1] * inv) % p
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] = (r[shift + i] - f * c) % p
            r = norm(r)
        a, b = b, norm(r)
    return a


def _poly_is_square_mod(d, p) -> bool:
    """Whether a polynomial over F_p is a perfect square (direct sqrt attempt)."""
    d = [c % p for c in d]
    while d and d[-1] == 0:
        d.pop()
    if not d:
        return True
    deg = len(d) - 1
    if deg % 2:
        return False
    lead = d[-1]
    if pow(lead, (p - 1) // 2, p) != 1:
        return False
    m = deg // 2
    s = [0] * (m + 1)
    s[m] = _sqrt_mod(lead, p)
    inv2sm = pow(2 * s[m] % p, p - 2, p)
    for t in range(1, m + 1):
        k = 2 * m - t
        acc = 0
        for i in range(m - t + 1, m + 1):
            j = k - i
            if 0 <= j <= m and j > m - t:
                acc = (acc + s[i] * s[j]) % p
        s[m - t] = ((d[k] - acc) * inv2sm) % p
    square = [0] * (2 * m + 1)
    for i in range(m + 1):
        for j in range(m + 1):
            square[i + j] = (square[i + j] + s[i] * s[j]) % p
    return all((square[i] - (d[i] if i < len(d) else 0)) % p == 0 for i in range(2 * m + 1))


def _sqrt_mod(a: int, p: int) -> int:
    """Square root modulo an odd prime (Tonelli-Shanks).

    The search for a quadratic non-residue stops at 2 ln^2 p, below which
    one exists for every odd prime under GRH (Bach 1990); running past it
    means the modulus is not prime."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError("not a quadratic residue")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    limit = min(p, int(2 * math.log(p) ** 2) + 2)
    z = next((z for z in range(2, limit) if pow(z, (p - 1) // 2, p) == p - 1), None)
    if z is None:
        raise CompositeModulus(f"no quadratic non-residue below {limit} modulo {p}")
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def sample_curve_points(
    g: int,
    count: int,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
    max_attempts: int = 2000,
):
    """Sample a random bidegree-(g+1, 2) form over F_prime (rejecting the
    obviously reducible ones) and `count` smooth points on its vanishing
    locus with distinct first coordinates.

    Returns (coefficient list in monomial_basis order, list of points)."""
    if g < 2:
        raise BadGenus(f"genus {g} < 2")
    require_odd_prime(prime)
    basis = monomial_basis(g)
    rng = random.Random(f"{seed}:curve")
    p = prime
    for _attempt in range(max_attempts):
        coeffs = {mono: rng.randrange(p) for mono in basis}
        # y-quadratic coefficients as polynomials in the first coordinate.
        A = [coeffs[(a, 2)] for a in range(g + 2)]
        B = [coeffs[(a, 1)] for a in range(g + 2)]
        C = [coeffs[(a, 0)] for a in range(g + 2)]
        if all(c == 0 for c in A):
            continue
        disc = [0] * (2 * g + 4)
        for i in range(g + 2):
            for j in range(g + 2):
                disc[i + j] = (disc[i + j] + B[i] * B[j] - 4 * A[i] * C[j]) % p
        if all(c == 0 for c in disc):
            continue
        if len(_poly_gcd_mod(_poly_gcd_mod(A, B, p), C, p)) > 1:
            continue
        if _poly_is_square_mod(disc, p):
            continue
        points = []
        used_x: set[int] = set()
        budget = max_attempts
        while len(points) < count and budget > 0:
            budget -= 1
            x = rng.randrange(p)
            if x in used_x:
                continue
            a = _poly_eval_mod(A, x, p)
            if a == 0:
                continue
            b = _poly_eval_mod(B, x, p)
            c = _poly_eval_mod(C, x, p)
            d = (b * b - 4 * a * c) % p
            if d == 0 or pow(d, (p - 1) // 2, p) != 1:
                continue
            y = ((-b + _sqrt_mod(d, p)) * pow(2 * a, p - 2, p)) % p
            if not _is_smooth_point(coeffs, g, x, y, p):
                continue
            used_x.add(x)
            points.append(((x, 1), (y, 1)))
        if len(points) == count:
            return [coeffs[m] for m in basis], points
    raise SamplingExhausted(f"no valid curve/points after {max_attempts} attempts")


def _is_smooth_point(coeffs, g: int, x: int, y: int, p: int) -> bool:
    """Both affine partial derivatives must not vanish simultaneously."""
    fx = 0
    fy = 0
    for (alpha, beta), c in coeffs.items():
        if alpha >= 1:
            fx = (fx + c * alpha * pow(x, alpha - 1, p) * pow(y, beta, p)) % p
        if beta >= 1:
            fy = (fy + c * beta * pow(x, alpha, p) * pow(y, beta - 1, p)) % p
    return not (fx == 0 and fy == 0)


def riemann_roch_counts(g: int) -> dict:
    """Dimension bookkeeping for the restriction of the ambient system to a
    smooth member: {h0_ambient, h0_restricted, deg_N, kernel_dim}, with the
    consistency identities asserted."""
    if g < 2:
        raise BadGenus(f"genus {g} < 2")
    counts = {
        "h0_ambient": 3 * g + 6,
        "h0_restricted": 3 * g + 5,
        "deg_N": 4 * g + 4,
        "kernel_dim": 1,
    }
    assert counts["h0_ambient"] - counts["h0_restricted"] == counts["kernel_dim"]
    assert counts["deg_N"] - g + 1 == counts["h0_restricted"]
    return counts
