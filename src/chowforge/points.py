"""Exact linear algebra for point conditions on bidegree-(g+1, 2) forms on
P^1 x P^1 over a prime field F_p: monomial basis, evaluation matrices (one
row per point), exact ranks over F_p by elimination or interpolation basis,
curve-point sampling, and the dimension-count helpers.

Randomized checks are one-sided: a full-rank witness over F_p certifies the
generic (characteristic-p) statement; a FAIL only reports that no sampled
trial achieved full rank.
"""

from __future__ import annotations

import functools
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


@functools.cache
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below 3.3e24, cached:
    answers are kept for the process, refusals are raised on every call."""
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
    return pow(v, -1, p)


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


def _pack(values, size: int) -> int:
    """Nonnegative ints below 2^(8 size) as one int, value k in slot k."""
    return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in values]), "little")


def _reduce_slots(v: int, size: int, p: int) -> int:
    """v with each slot x of w = 8 size bits cut to x - qp in [0, 2p) by a
    Barrett step on whole ints: even and odd slots are split into 2w-bit
    fields, where x times floor(2^w / p) cannot carry into the next field and
    has a top half q with x - 2p < qp <= x."""
    w, barrett = 8 * size, (1 << 8 * size) // p
    fields = v.bit_length() // (2 * w) + 1
    even = int.from_bytes((b"\xff" * size + bytes(size)) * fields, "little")
    lo, hi = v & even, v >> w & even
    return lo - (lo * barrett >> w & even) * p | (hi - (hi * barrett >> w & even) * p) << w


def _rank_mod(rows: list, p: int) -> int:
    """Elimination over F_p on rows packed into ints of w-bit slots, column
    j in slot j, with delayed reduction (Dumas, Gautier and Pernet 2002).

    Only pivot rows are reduced, below 2p in every slot, by _reduce_slots.
    Each pivot then adds less than (p-1)(2p-1) to every slot of the other
    rows, whose eliminated column is shifted out.  With at most
    k = min(rows, cols) pivots every slot stays nonnegative and below
    p + k(p-1)(2p-1) < 2^w, so slots never carry into each other."""
    ncols = len(rows[0]) if rows else 0
    size = ((p + min(len(rows), ncols) * (p - 1) * (2 * p - 1)).bit_length() + 7) // 8
    w, mask = 8 * size, (1 << 8 * size) - 1
    active = [_pack([v % p for v in row], size) for row in rows]
    rank = 0
    for _ in range(ncols):
        pivot = next((i for i, r in enumerate(active) if (r & mask) % p), None)
        if pivot is None:
            active = [r >> w for r in active]
            continue
        head = active.pop(pivot)
        scale, tail = p - _inv(head & mask, p), _reduce_slots(head >> w, size, p)
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
    p = prime
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
        if interpolation_rank(pts, g, prime) == target:
            return Verdict("PASS", target, t + 1, {"seed": seed, "trial": t, "prime": prime})
    return Verdict("FAIL", target, trials, None)


# -- curve sampling ---------------------------------------------------------


def _discriminant_mod(A, B, C, p: int) -> list[int]:
    """B^2 - 4AC mod p for lists A, B and C of m residues mod p, constant
    term first, by Kronecker substitution: one product of ints packed with
    coefficient k in slot k.  With p - C in place of -C every slot of the
    product is a sum of at most m terms B_i B_j + 4 A_i (p - C_j) < 5p^2,
    so slots of (5 m p^2).bit_length() bits never carry."""
    size = ((5 * len(A) * p * p).bit_length() + 7) // 8
    product = _pack(B, size) ** 2 + 4 * _pack(A, size) * _pack([p - c for c in C], size)
    raw = product.to_bytes(size * (2 * len(A) - 1), "little")
    return [int.from_bytes(raw[i:i + size], "little") % p for i in range(0, len(raw), size)]


def _square_free_mod(d: list, p: int) -> bool:
    """Whether gcd(d, d') over F_p is a nonzero constant, for a list d of
    residues mod p, constant term first, by Euclid on polynomials packed as
    in _rank_mod.  A quotient step a += f (b << kw) with f < p leaves the top
    slot of a divisible by p and masks it off; top slots divisible by p are
    stripped, so the degree is read from bit_length.  Each remainder is cut
    below 2p in every slot by _reduce_slots.  Between cuts a slot starts
    below 2p and each of at most n = len(d) steps adds less than
    (p-1)(2p-1) < 2p^2, so with 2p + 2np^2 < 2^w slots never carry."""
    size = ((2 * p + 2 * len(d) * p * p).bit_length() + 7) // 8
    w = 8 * size

    def strip(v):
        k = (v.bit_length() - 1) // w
        while k >= 0 and not (v >> k * w) % p:
            v &= (1 << k * w) - 1
            k = (v.bit_length() - 1) // w
        return v, k

    a, da = strip(_pack(d, size))
    b, db = strip(_pack([k * c % p for k, c in enumerate(d)][1:], size))
    while db > 0:
        scale = p - _inv(b >> db * w, p)
        while da >= db:
            f = (a >> da * w) * scale % p
            a, da = strip((a + (f * b << (da - db) * w)) & ((1 << da * w) - 1))
        (a, da), (b, db) = (b, db), (_reduce_slots(a, size, p), da)
    return db == 0 or da == 0


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime, or None when a is not a
    square.  For p = 3 (mod 4) it is a^((p+1)/4) when that squares to a;
    otherwise Euler's criterion, then Tonelli-Shanks.

    The search for a quadratic non-residue stops at 2 ln^2 p, below which
    one exists for every odd prime under GRH (Bach 1990); running past it
    means the modulus is not prime."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r if r * r % p == a else None
    if pow(a, (p - 1) // 2, p) != 1:
        return None
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
    max(SAMPLING_ATTEMPTS, 4 * count) first coordinates, and none once the
    points it still needs outnumber the residues it has not tried.

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
        form = [rng.randrange(p) for _ in basis]
        # The coefficients of y^2, y and 1 for x^(g+1) down to x^0, and as
        # polynomials A, B and C in x, constant term first.
        rows = list(zip(form[0::3], form[1::3], form[2::3]))
        A, B, C = (form[k::3][::-1] for k in range(3))
        disc = _discriminant_mod(A, B, C, p)
        if not (disc[-1] or disc[-2]):  # a double root at x = infinity
            continue
        if not _square_free_mod(disc, p):
            continue
        points = []
        tried: set[int] = set()
        budget = max(SAMPLING_ATTEMPTS, 4 * count)
        while len(points) < count and count - len(points) <= p - len(tried) and budget > 0:
            budget -= 1
            x = rng.randrange(p)
            if x in tried:
                continue
            tried.add(x)
            a = b = c = 0
            for ca, cb, cc in rows:
                a = (a * x + ca) % p
                b = (b * x + cb) % p
                c = (c * x + cc) % p
            d = (b * b - 4 * a * c) % p
            r = _sqrt_mod(d, p) if a and d else None
            if r is not None:
                points.append(((x, 1), ((r - b) * _inv(2 * a, p) % p, 1)))
        if len(points) == count:
            return form, points
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
