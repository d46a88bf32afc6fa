"""Exact linear algebra for point conditions on bidegree-(g+1, 2) forms on
P^1 x P^1 over a prime field F_p: monomial basis, evaluation matrices (one
row per point), exact ranks over F_p by elimination or interpolation basis,
curve-point sampling, and the dimension-count helpers.

Randomized checks are one-sided: a full-rank witness over F_p certifies the
generic (characteristic-p) statement; a FAIL only reports that no sampled
trial achieved full rank.
"""

from __future__ import annotations

import math
import random

DEFAULT_PRIME = 1_000_003
SAMPLING_ATTEMPTS = 2000


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


class PointCondition:
    """A point ((x0, x1), (y0, y1)) of P^1 x P^1: the condition that a form
    vanish there."""

    __slots__ = ("point",)

    def __init__(self, point: tuple):
        (x0, x1), (y0, y1) = point
        if x0 == 0 and x1 == 0:
            raise PointAtChartBoundary("first-factor coordinates both zero")
        if y0 == 0 and y1 == 0:
            raise PointAtChartBoundary("second-factor coordinates both zero")
        self.point = point


class PointConfig:
    """A list of point conditions over F_prime, for an odd prime (else
    CompositeModulus)."""

    __slots__ = ("conditions", "prime")

    def __init__(self, conditions, prime: int):
        require_odd_prime(prime)
        self.conditions = conditions = tuple(conditions)
        self.prime = prime
        for c in conditions:
            for pair in c.point:
                if not all(isinstance(v, int) for v in pair):
                    raise FieldMismatch("prime-field configs need integer coordinates")
                if pair[0] % prime == 0 and pair[1] % prime == 0:
                    raise PointAtChartBoundary(f"coordinates {pair} are both zero mod {prime}")


def monomial_basis(g: int) -> list[tuple[int, int]]:
    """The 3g+6 exponent pairs (alpha, beta) of x0^alpha x1^(g+1-alpha)
    y0^beta y1^(2-beta), ordered alpha descending then beta descending."""
    if g < 2:
        raise BadGenus(f"genus {g} < 2")
    return [(a, b) for a in range(g + 1, -1, -1) for b in (2, 1, 0)]


def _inv(v, p):
    return pow(v % p, p - 2, p)


def _slope(coords, prime):
    """u0/u1 mod prime for the point [u0:u1] of P^1, or None at [1:0]."""
    u0, u1 = coords
    return None if u1 % prime == 0 else u0 * _inv(u1, prime) % prime


def _monomials(coords, top: int, prime) -> list[int]:
    """The monomials u0^e u1^(top-e), listed for e = top down to 0, at the
    point mod prime.  In the chart where u1 is normalized to 1 the monomial
    is t^e with t = u0/u1; in the opposite chart it is s^(top-e) with
    s = u1/u0, which is zero there."""
    t = _slope(coords, prime)
    if t is None:
        return [1] + [0] * top
    out = [1]
    for _ in range(top):
        out.append(out[-1] * t % prime)
    return out[::-1]


def evaluation_matrix(cfg: PointConfig, g: int):
    """One row per point, one column per basis monomial: each row is the
    outer product of the x-factor and y-factor monomial values, both listed
    in the descending exponent order of monomial_basis and each taken in
    the affine chart that normalizes a nonzero coordinate."""
    if g < 2:
        raise BadGenus(f"genus {g} < 2")
    p = cfg.prime
    rows = []
    for cond in cfg.conditions:
        xs, ys = _monomials(cond.point[0], g + 1, p), _monomials(cond.point[1], 2, p)
        rows.append([u * v % p for u in xs for v in ys])
    return rows


def rank_exact(matrix, prime: int) -> int:
    """Exact rank over F_prime (packed rows); a modulus that is not an odd
    prime raises CompositeModulus, and rows of unequal length raise
    ValueError."""
    require_odd_prime(prime)
    rows = [list(row) for row in matrix]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    return _rank_mod(rows, prime)


def _rank_mod(rows: list, p: int) -> int:
    """Elimination over F_p on rows packed into ints of w-bit slots, column
    j in slot j, with delayed reduction (Dumas, Gautier and Pernet 2002).

    Rows are packed through bytes, so w is a multiple of 8.  Only pivot rows
    are reduced, below 2p in every slot, by a Barrett step on whole ints:
    even and odd slots are split into 2w-bit fields, where a slot x times
    floor(2^w / p) cannot carry into the next field and has a top half q
    with x - 2p < qp <= x.  Each pivot then adds less than (p-1)(2p-1) to
    every slot of the other rows, whose eliminated column is shifted out.
    With at most k = min(rows, cols) pivots every slot stays nonnegative and
    below p + k(p-1)(2p-1) < 2^w, so slots never carry into each other."""
    ncols = len(rows[0]) if rows else 0
    size = ((p + min(len(rows), ncols) * (p - 1) * (2 * p - 1)).bit_length() + 7) // 8
    w = 8 * size
    mask, barrett = (1 << w) - 1, (1 << w) // p
    even = int.from_bytes((b"\xff" * size + bytes(size)) * (ncols // 2 + 1), "little")
    active = [
        int.from_bytes(b"".join([(v % p).to_bytes(size, "little") for v in row]), "little")
        for row in rows
    ]
    rank = 0
    for _ in range(ncols):
        pivot = next((i for i, r in enumerate(active) if (r & mask) % p), None)
        if pivot is None:
            active = [r >> w for r in active]
            continue
        head = active.pop(pivot)
        scale = p - _inv(head & mask, p)
        lo, hi = head >> w & even, head >> 2 * w & even  # even, odd columns left
        tail = lo - (lo * barrett >> w & even) * p | (hi - (hi * barrett >> w & even) * p) << w
        active = [(r >> w) + (r & mask) * scale % p * tail for r in active]
        rank += 1
        if not active:
            break
    return rank


def interpolation_rank(pts, g: int, prime: int) -> int:
    """Rank over F_prime of the conditions that n affine points (x, y)
    impose on bidegree-(g+1, 2) forms F0(x) + F1(x)y + F2(x)y^2, in O(n^2),
    from a reduced basis of the module M of triples (F0, F1, F2) vanishing
    at the points (Beckermann-Labahn 1994; Van Barel-Bultheel 1992).

    The three rows, kept as values at the points still to come, start as 1,
    y and y^2 of degree 0.  At each point the least-degree row nonzero there
    (lowest index on a tie) clears the others and is multiplied by the monic
    x - x_i: the leading-coefficient matrix, first the identity, changes only
    by elementary operations, so the rows stay reduced with degrees d_k.  By
    the predictable-degree property the forms of degree <= g+1 in M have
    dimension sum max(0, g+2 - d_k), so the rank is sum min(d_k, g+2)."""
    if g < 2:
        raise BadGenus(f"genus {g} < 2")
    require_odd_prime(prime)
    return _interpolation_rank(pts, g, prime)


def _interpolation_rank(pts, g: int, p: int) -> int:
    """interpolation_rank for a genus and an odd prime p already checked, so
    that a caller with many trials runs the primality test once."""
    xs = [x % p for x, _ in pts]
    ys = [y % p for _, y in pts]
    rows = [[1] * len(ys), ys, [y * y % p for y in ys]]
    degs = [0, 0, 0]
    for i, xi in enumerate(xs):
        live = [k for k in range(3) if rows[k][i]]
        if not live:
            continue
        pivot = min(live, key=degs.__getitem__)
        prow = rows[pivot]
        head, scale = prow[i + 1:], p - _inv(prow[i], p)
        for k in live:
            if k != pivot:
                row = rows[k]
                c = row[i] * scale % p
                row[i + 1:] = [(v + c * h) % p for v, h in zip(row[i + 1:], head)]
        prow[i + 1:] = [h * (x - xi) % p for h, x in zip(head, xs[i + 1:])]
        degs[pivot] += 1
    return sum(min(d, g + 2) for d in degs)


class Verdict:
    """One-sided randomized verdict: status "PASS" carries a reproducible
    witness; "FAIL" only means no sampled trial achieved full rank."""

    __slots__ = ("status", "target_rank", "trials", "witness")
    note = "probabilistic one-sided check"

    def __init__(self, status: str, target_rank: int, trials: int, witness: dict | None):
        self.status, self.target_rank, self.trials = status, target_rank, trials
        self.witness = witness


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
) -> Verdict:
    """Random configurations of n-1 points with the first g on a common
    horizontal line (shared second coordinate, distinct first coordinates):
    PASS when some trial's points impose n-1 independent conditions."""
    if g < 2:
        raise BadGenus(f"genus {g} < 2")
    if n < 1 or trials < 1:
        raise ValueError(f"need n >= 1 and trials >= 1, got n={n}, trials={trials}")
    require_odd_prime(prime)
    target = n - 1
    if target > 3 * g + 5:
        raise BoundViolated(f"n-1 = {target} exceeds 3g+5 = {3 * g + 5}")
    if target > prime:
        raise ValueError(f"n-1 = {target} distinct first coordinates do not exist mod {prime}")
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        xs = _distinct_randranges(rng, target, prime)
        shared_y = rng.randrange(prime)
        pts = [(x, shared_y if i < g else rng.randrange(prime)) for i, x in enumerate(xs)]
        if _interpolation_rank(pts, g, prime) == target:
            return Verdict("PASS", target, t + 1, {"seed": seed, "trial": t, "prime": prime})
    return Verdict("FAIL", target, trials, None)


# -- curve sampling ---------------------------------------------------------


def _poly_eval_mod(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


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


def sample_curve_points(g: int, count: int, prime: int = DEFAULT_PRIME, seed: int = 0):
    """Sample a random smooth bidegree-(g+1, 2) form over F_prime and
    `count` points on its vanishing locus with distinct first coordinates,
    trying at most SAMPLING_ATTEMPTS forms.  Each form draws at most
    max(SAMPLING_ATTEMPTS, 4 * count) first coordinates, and none once
    every residue has been tried.

    In the affine chart the form is f = A(x) y^2 + B(x) y + C(x), a double
    cover of the x-line branched where d = B^2 - 4AC vanishes.  The curve is
    smooth exactly when d, a binary form of degree 2g+2, has no repeated
    root: d has degree at least 2g+1 (so x = infinity is at most a simple
    root) and gcd(d, d') = 1.  That also rejects A = 0 (d = B^2), a common
    factor h of A, B and C (h^2 divides d) and a square d.  A point takes
    y = (-B + sqrt(d)) / 2A with d nonzero; there df/dy = 2Ay + B = sqrt(d)
    is nonzero as well.

    Returns (coefficient list in monomial_basis order, list of points)."""
    if g < 2:
        raise BadGenus(f"genus {g} < 2")
    require_odd_prime(prime)
    if count > prime:
        raise ValueError(f"{count} distinct first coordinates do not exist mod {prime}")
    basis = monomial_basis(g)
    rng = random.Random(f"{seed}:curve")
    p = prime
    for _attempt in range(SAMPLING_ATTEMPTS):
        coeffs = {mono: rng.randrange(p) for mono in basis}
        # y-quadratic coefficients as polynomials in the first coordinate.
        A = [coeffs[(a, 2)] for a in range(g + 2)]
        B = [coeffs[(a, 1)] for a in range(g + 2)]
        C = [coeffs[(a, 0)] for a in range(g + 2)]
        disc = [0] * (2 * g + 3)
        for i in range(g + 2):
            for j in range(g + 2):
                disc[i + j] += B[i] * B[j] - 4 * A[i] * C[j]
        if not (disc[-1] % p or disc[-2] % p):  # a double root at x = infinity
            continue
        if len(_poly_gcd_mod(disc, [k * c for k, c in enumerate(disc)][1:], p)) != 1:
            continue
        points = []
        tried: set[int] = set()
        budget = max(SAMPLING_ATTEMPTS, 4 * count)
        while len(points) < count and len(tried) < p and budget > 0:
            budget -= 1
            x = rng.randrange(p)
            if x in tried:
                continue
            tried.add(x)
            a = _poly_eval_mod(A, x, p)
            if a == 0:
                continue
            b = _poly_eval_mod(B, x, p)
            c = _poly_eval_mod(C, x, p)
            d = (b * b - 4 * a * c) % p
            if d == 0 or pow(d, (p - 1) // 2, p) != 1:
                continue
            y = ((-b + _sqrt_mod(d, p)) * pow(2 * a, p - 2, p)) % p
            points.append(((x, 1), (y, 1)))
        if len(points) == count:
            return [coeffs[m] for m in basis], points
    raise SamplingExhausted(f"no valid curve/points after {SAMPLING_ATTEMPTS} attempts")


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
