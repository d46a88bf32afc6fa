"""Test-curve machinery: blowup self-intersection ledgers for the two
one-parameter families, psi-degree extraction, intersection-matrix assembly,
the change of basis to block-diagonal form, and full-rank certification
symbolic in the genus.

Ledgers are built from declarative blowup data (which sections pass through
which exceptional points); derived self-intersections follow from the
standard expansion of a pulled-back section class with E^2 = -1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .rationals import RatFunc, UniPoly, poly_str, sturm_roots_geq


class BadIndex(ValueError):
    """Raised for section indices outside 1..n."""


class BadN(ValueError):
    """Raised for marked-point counts outside the supported range."""


class UnknownSection(KeyError):
    """Raised when a ledger is queried for a section it does not contain."""


class NotSquare(ValueError):
    """Raised when a determinant is requested for a non-square matrix."""


class ShapeMismatch(ValueError):
    """Raised when a basis change is applied to an incompatible matrix."""


@dataclass(frozen=True)
class BlowupLedger:
    """Self-intersection bookkeeping on a blown-up surface.

    exceptional_multiplicities maps each section to {exceptional family name:
    point count}; a family groups identically-behaved blowup points (the
    count may be a polynomial in g, e.g. the 2g+2 ramification points).
    derived value = base value - total count of exceptional points on the
    proper transform, since each blowup at a point of the section subtracts 1.
    """

    base_self_intersections: dict
    exceptional_multiplicities: dict
    derived_self_intersections: dict = field(init=False)

    def __post_init__(self):
        derived = {}
        for name, base in self.base_self_intersections.items():
            total = UniPoly.const(0)
            for count in self.exceptional_multiplicities.get(name, {}).values():
                total = total + (count if isinstance(count, UniPoly) else UniPoly.const(count))
            derived[name] = base - total
        object.__setattr__(self, "derived_self_intersections", derived)

    def derived(self, section: str) -> UniPoly:
        try:
            return self.derived_self_intersections[section]
        except KeyError:
            raise UnknownSection(section) from None


def family_one_ledger(gp: UniPoly, n: int, i: int) -> BlowupLedger:
    """Family with one roaming point: the roaming section starts at the
    self-intersection -(2g-2) of the diagonal and meets one exceptional per
    fixed point; each fixed section meets exactly its own exceptional."""
    if not (1 <= i <= n):
        raise BadIndex(f"section index {i} outside 1..{n}")
    base = {}
    through = {}
    for k in range(1, n + 1):
        name = f"sigma_{k}"
        if k == i:
            base[name] = -(2 * gp - 2)
            through[name] = {f"E_{j}": 1 for j in range(1, n + 1) if j != i}
        else:
            base[name] = UniPoly.const(0)
            through[name] = {f"E_{k}": 1}
    return BlowupLedger(base, through)


def family_two_ledger(gp: UniPoly, n: int, i: int, j: int) -> BlowupLedger:
    """Family with two conjugate roaming points: each roaming section starts
    at -(2g-2), passes through the 2g+2 ramification exceptionals and one
    crossing exceptional per fixed point; each fixed section meets two
    exceptionals (one crossing with each roaming section)."""
    if not (1 <= i < j <= n):
        raise BadIndex(f"need 1 <= i < j <= n, got ({i}, {j}) with n = {n}")
    base = {}
    through = {}
    for k in range(1, n + 1):
        name = f"sigma_{k}"
        if k in (i, j):
            base[name] = -(2 * gp - 2)
            through[name] = {"E_ram": 2 * gp + 2}
            through[name].update(
                {f"E_{k2}_{k}": 1 for k2 in range(1, n + 1) if k2 not in (i, j)}
            )
        else:
            base[name] = UniPoly.const(0)
            through[name] = {f"E_{k}_{i}": 1, f"E_{k}_{j}": 1}
    return BlowupLedger(base, through)


def psi_degree(ledger: BlowupLedger, section: str) -> UniPoly:
    """Degree of the pulled-back psi class: minus the self-intersection of
    the corresponding section on the blowup."""
    return -ledger.derived(section)


@dataclass(frozen=True)
class IntersectionMatrix:
    """Labeled square matrix of integer polynomials in g: rows are the test
    curves (T_i then T_ij), columns the divisor classes (psi_k then delta_kl)."""

    row_labels: tuple
    col_labels: tuple
    entries: tuple  # tuple of tuples of UniPoly

    @property
    def size(self) -> int:
        return len(self.row_labels)

    def entry(self, r: int, c: int) -> UniPoly:
        return self.entries[r][c]

    def to_json(self) -> str:
        return json.dumps(
            {
                "rows": list(self.row_labels),
                "cols": list(self.col_labels),
                "entries": [[poly_str(e) for e in row] for row in self.entries],
            },
            indent=2,
            sort_keys=False,
        )


def _pairs(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def intersection_matrix(genus, n: int) -> IntersectionMatrix:
    """Assemble the pairing matrix from the two family ledgers plus the
    boundary counts: T_i meets delta_jk once iff i is one of (j, k); T_ij
    meets delta_kl with multiplicity 2g+2, 1, 0 by index overlap 2, 1, 0."""
    if not isinstance(n, int) or n < 1:
        raise BadN(f"need n >= 1, got {n}")
    gp = UniPoly.g() if genus == "symbolic" else UniPoly.const(genus)
    pairs = _pairs(n)
    rows = [f"T_{i}" for i in range(1, n + 1)] + [f"T_{i}{j}" for i, j in pairs]
    cols = [f"psi_{k}" for k in range(1, n + 1)] + [f"delta_{k}{l}" for k, l in pairs]
    entries = []
    for i in range(1, n + 1):
        ledger = family_one_ledger(gp, n, i)
        row = [psi_degree(ledger, f"sigma_{k}") for k in range(1, n + 1)]
        row += [UniPoly.const(1 if i in kl else 0) for kl in pairs]
        entries.append(tuple(row))
    for i, j in pairs:
        ledger = family_two_ledger(gp, n, i, j)
        row = [psi_degree(ledger, f"sigma_{k}") for k in range(1, n + 1)]
        for k, l in pairs:
            overlap = len({i, j} & {k, l})
            row.append((2 * gp + 2) if overlap == 2 else UniPoly.const(overlap))
        entries.append(tuple(row))
    return IntersectionMatrix(tuple(rows), tuple(cols), tuple(entries))


def block_change_of_basis(m: IntersectionMatrix) -> IntersectionMatrix:
    """Determinant-preserving basis change: subtract the delta_ij columns
    from each psi_i column, then subtract rows T_i and T_j from row T_ij.
    The result has diagonal blocks (2g-2)*Id and 2g*Id with a zero block
    below the first."""
    n = sum(1 for lbl in m.col_labels if lbl.startswith("psi_"))
    pairs = _pairs(n)
    if m.size != n + len(pairs):
        raise ShapeMismatch("matrix size does not match its labels")
    entries = [list(row) for row in m.entries]
    # Column operations: psi_i column -= sum of delta_ij columns over j != i.
    for i in range(1, n + 1):
        for pi, (k, l) in enumerate(pairs):
            if i in (k, l):
                col = n + pi
                for r in range(m.size):
                    entries[r][i - 1] = entries[r][i - 1] - entries[r][col]
    # Row operations: T_ij row -= T_i row + T_j row.
    for pi, (i, j) in enumerate(pairs):
        r = n + pi
        for c in range(m.size):
            entries[r][c] = entries[r][c] - entries[i - 1][c] - entries[j - 1][c]
    new_rows = tuple(m.row_labels[:n] + tuple(f"{lbl}'" for lbl in m.row_labels[n:]))
    new_cols = tuple(tuple(f"{lbl}'" for lbl in m.col_labels[:n]) + m.col_labels[n:])
    return IntersectionMatrix(new_rows, new_cols, tuple(tuple(row) for row in entries))


def _integer_bareiss(a) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968): every division is exact, so `//` keeps the entries
    integral.  Rows are swapped to find a nonzero pivot; `a` is overwritten."""
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for r in range(k + 1, size):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(k + 1, size):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return sign * a[size - 1][size - 1]


def _interpolate(xs, ys) -> UniPoly:
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i]),
    by Newton divided differences expanded in the monomial basis."""
    diffs = [Fraction(y) for y in ys]
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [diffs[-1]]
    for k in range(len(xs) - 2, -1, -1):
        # coeffs <- coeffs * (g - xs[k]) + diffs[k]
        shifted = [Fraction(0)] + coeffs
        for d, c in enumerate(coeffs):
            shifted[d] -= xs[k] * c
        shifted[0] += diffs[k]
        coeffs = shifted
    return UniPoly(coeffs)


def bareiss_determinant(entries) -> UniPoly:
    """Exact determinant of a square matrix of UniPoly, by evaluation and
    interpolation.

    The determinant has degree at most D = sum over rows of the largest
    entry degree, so its values at the D+1 genera g = 0..D determine it.
    Each row is scaled by the lcm of its coefficient denominators, which
    makes every evaluated entry an integer; each value is then an integer
    Bareiss determinant, and the scales are divided out at the end."""
    size = len(entries)
    if any(len(row) != size for row in entries):
        raise NotSquare("determinant needs a square matrix")
    if size == 0:
        return UniPoly.const(1)
    int_rows = []
    scale = 1
    bound = 0
    for row in entries:
        top = max(e.degree for e in row)
        if top < 0:
            return UniPoly()
        bound += top
        lcm = math.lcm(*(c.denominator for e in row for c in e.coeffs))
        scale *= lcm
        int_rows.append([[int(c * lcm) for c in reversed(e.coeffs)] for e in row])
    xs = list(range(bound + 1))
    values = []
    for x in xs:
        a = []
        for row in int_rows:
            evaluated = []
            for desc in row:
                v = 0
                for c in desc:
                    v = v * x + c
                evaluated.append(v)
            a.append(evaluated)
        values.append(_integer_bareiss(a))
    det = _interpolate(xs, values)
    return det if scale == 1 else det.scale(Fraction(1, scale))


def gaussian_determinant(entries) -> RatFunc:
    """Determinant over the rational-function field by Gaussian elimination:
    the independent reference the determinant tests compare against."""
    size = len(entries)
    a = [[RatFunc(e) for e in row] for row in entries]
    det = RatFunc(1)
    for k in range(size):
        if a[k][k].is_zero:
            for r in range(k + 1, size):
                if not a[r][k].is_zero:
                    a[k], a[r] = a[r], a[k]
                    det = -det
                    break
            else:
                return RatFunc(0)
        det = det * a[k][k]
        inv = a[k][k].invert()
        for i in range(k + 1, size):
            factor = a[i][k] * inv
            for j in range(k, size):
                a[i][j] = a[i][j] - factor * a[k][j]
    return det


def rank_numeric(entries_q) -> int:
    """Exact rank of a matrix of Fractions by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in entries_q]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        for i in range(r + 1, rows):
            if a[i][c] != 0:
                f = a[i][c] * inv
                for j in range(c, cols):
                    a[i][j] -= f * a[r][j]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


@dataclass(frozen=True)
class FullRankCertificate:
    determinant: UniPoly
    expected_determinant: UniPoly
    sign_matches_expected: bool
    cross_check_agrees: bool
    roots_geq_2: int

    @property
    def certified(self) -> bool:
        return (
            self.sign_matches_expected
            and self.cross_check_agrees
            and self.roots_geq_2 == 0
            and not self.determinant.is_zero
        )


def _block_product(b: IntersectionMatrix, n: int) -> UniPoly | None:
    """Product of the diagonal of a block form (see block_change_of_basis),
    which is its determinant when the block below the psi block is zero and
    both diagonal blocks are diagonal; None when that structure fails."""
    product = UniPoly.const(1)
    for r in range(b.size):
        for c in range(b.size):
            upper_right = r < n <= c
            if c != r and not upper_right and not b.entry(r, c).is_zero:
                return None
        product = product * b.entry(r, r)
    return product


def certify_full_rank(m: IntersectionMatrix) -> FullRankCertificate:
    """Exact determinant (evaluation and interpolation), cross-checked
    without elimination against the diagonal product of the block form;
    comparison against +-(2g-2)^n (2g)^(n choose 2), and a real-root count
    certifying nonvanishing for every genus >= 2."""
    if m.size != len(m.col_labels):
        raise NotSquare("intersection matrix must be square")
    n = sum(1 for lbl in m.col_labels if lbl.startswith("psi"))
    gp = UniPoly.g()
    det = bareiss_determinant(m.entries)
    cross_ok = det == _block_product(block_change_of_basis(m), n)
    npairs = m.size - n
    expected = (2 * gp - 2) ** n * (2 * gp) ** npairs
    # Entries may already be specialized at an integer genus.
    if all(e.degree <= 0 for row in m.entries for e in row):
        # Numeric matrix: compare values, not polynomials in g.
        sign_ok = not det.is_zero
        roots = 0
    else:
        sign_ok = det == expected or det == -expected
        roots = sturm_roots_geq(det, Fraction(2))
    return FullRankCertificate(det, expected, sign_ok, cross_ok, roots)
