"""Test-curve machinery: blowup self-intersection ledgers for the test
curves T_i and T_ij, psi-degree extraction, intersection-matrix assembly,
the change of basis to block-diagonal form, and full-rank certification
at the genus the matrix was built at.

Ledgers are built from declarative blowup data (which sections pass through
which exceptional points); derived self-intersections follow from the
standard expansion of a pulled-back section class with E^2 = -1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub

from .rationals import (
    BadN, RatFunc, UniPoly, _bareiss, _homogeneous_value, genus_poly, poly_str,
    sturm_roots_geq,
)


class BadIndex(ValueError):
    """Raised for a test curve that is not (i,) or (i, j) with 1 <= i < j <= n."""


class NotSquare(ValueError):
    """Raised when a determinant is requested for a non-square matrix."""


class ShapeMismatch(ValueError):
    """Raised when a basis change is applied to an incompatible matrix."""


class BlowupLedger:
    """Self-intersection bookkeeping on a blown-up surface.

    exceptional_multiplicities maps each section to {exceptional family name:
    point count}; a family groups identically-behaved blowup points (the
    count may be a polynomial in g, e.g. the 2g+2 ramification points).
    derived value = base value - total count of exceptional points on the
    proper transform, since each blowup at a point of the section subtracts 1.
    A section's derived value is computed when it is asked for, not stored.
    """

    __slots__ = ("base_self_intersections", "exceptional_multiplicities")

    def __init__(self, base_self_intersections: dict, exceptional_multiplicities: dict):
        self.base_self_intersections = base_self_intersections
        self.exceptional_multiplicities = exceptional_multiplicities

    def derived(self, section: str) -> UniPoly:
        return (self.base_self_intersections[section]
                - sum(self.exceptional_multiplicities.get(section, {}).values()))


def family_ledger(gp: UniPoly, n: int, curve: tuple) -> BlowupLedger:
    """Ledger of the test curve T_S, S = curve = (i,) or (i, j) with i < j.
    Each roaming section (an index in S) starts at the self-intersection
    -(2g-2) of the diagonal and meets one crossing exceptional E_k_r per
    fixed section k; a pair of roaming sections also passes through the
    2g+2 ramification exceptionals.  Each fixed section meets one crossing
    exceptional per roaming section."""
    if not (len(curve) in (1, 2) and 1 <= curve[0] <= curve[-1] <= n
            and len(set(curve)) == len(curve)):
        raise BadIndex(f"need (i,) or (i, j) with 1 <= i < j <= {n}, got {curve}")
    roaming, zero = 2 - 2 * gp, UniPoly()
    base = {}
    through = {}
    for k in range(1, n + 1):
        name = f"sigma_{k}"
        if k in curve:
            base[name] = roaming
            # Unit counts first: the ledger sums them as ints before adding 2g+2.
            through[name] = {f"E_{f}_{k}": 1 for f in range(1, n + 1) if f not in curve}
            if len(curve) == 2:
                through[name]["E_ram"] = 2 * gp + 2
        else:
            base[name] = zero
            through[name] = {f"E_{k}_{r}": 1 for r in curve}
    return BlowupLedger(base, through)


def psi_degree(ledger: BlowupLedger, section: str) -> UniPoly:
    """Degree of the pulled-back psi class: minus the self-intersection of
    the corresponding section on the blowup."""
    return -ledger.derived(section)


class IntersectionMatrix:
    """Labeled square matrix of integer polynomials in g: rows are the test
    curves (T_i then T_ij), columns the divisor classes (psi_k then delta_kl).
    genus is the genus it was built at, "symbolic" or an int >= 2; entries is
    a tuple of tuples of UniPoly."""

    __slots__ = ("genus", "row_labels", "col_labels", "entries")

    def __init__(self, genus, row_labels: tuple, col_labels: tuple, entries: tuple):
        self.genus = genus
        self.row_labels, self.col_labels, self.entries = row_labels, col_labels, entries

    @property
    def size(self) -> int:
        return len(self.row_labels)

    @property
    def n(self) -> int:
        """Number of marked points: the count of psi columns."""
        return sum(1 for lbl in self.col_labels if lbl.startswith("psi_"))

    def entry(self, r: int, c: int) -> UniPoly:
        return self.entries[r][c]

    def to_dict(self) -> dict:
        return {
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "entries": [[poly_str(e) for e in row] for row in self.entries],
        }


def _pairs(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def intersection_matrix(genus, n: int) -> IntersectionMatrix:
    """Assemble the pairing matrix of the test curves T_S against psi_k and
    delta_kl.  An entry depends only on |S|, on whether k is in S, and on
    the overlap |S & {k, l}|: the psi_k entry is the roaming or fixed psi
    degree of a ledger of size |S|, and the delta_kl entry is 0, 1 or 2g+2
    by overlap.  A ledger treats every section index alike, so T_1's and
    T_12's give every row."""
    if not isinstance(n, int) or n < 1:
        raise BadN(f"need n >= 1, got {n}")
    gp = genus_poly(genus)
    pairs = _pairs(n)
    curves = [(i,) for i in range(1, n + 1)] + pairs
    rows = ["T_" + "".join(map(str, s)) for s in curves]
    cols = [f"psi_{k}" for k in range(1, n + 1)] + [f"delta_{k}{l}" for k, l in pairs]
    # (fixed, roaming) psi degrees by |S|; sigma_n is fixed whenever some row has one.
    psi = {}
    for s in curves[:1] + pairs[:1]:
        ledger = family_ledger(gp, n, s)
        psi[len(s)] = (psi_degree(ledger, f"sigma_{n}"), psi_degree(ledger, "sigma_1"))
    boundary = (UniPoly(), UniPoly.const(1), 2 * gp + 2)  # by index overlap 0, 1, 2
    entries = tuple(
        tuple([psi[len(s)][k in s] for k in range(1, n + 1)]
              + [boundary[(k in s) + (l in s)] for k, l in pairs])
        for s in curves
    )
    return IntersectionMatrix(genus, tuple(rows), tuple(cols), entries)


def _pair_operations(entries: list, n: int, op) -> None:
    """For each pair (i, j), set columns psi_i and psi_j to op(them, delta_ij)
    and row T_ij to op(op(T_ij, T_i), T_j), in place.  Row operations act on
    the left and column operations on the right, and none writes a line that
    one of its kind reads (a singleton row, a delta column), so one pass
    gives what every column and then every row operation give, in any order."""
    # Column delta_ij and row T_ij share the index p; zero entries are skipped.
    for p, (i, j) in enumerate(_pairs(n), start=n):
        for row in entries:
            if not row[p].is_zero:
                row[i - 1] = op(row[i - 1], row[p])
                row[j - 1] = op(row[j - 1], row[p])
        target = entries[p]
        for source in (entries[i - 1], entries[j - 1]):
            for c, e in enumerate(source):
                if not e.is_zero:
                    target[c] = op(target[c], e)


def block_change_of_basis(m: IntersectionMatrix) -> IntersectionMatrix:
    """Determinant-preserving basis change: for each pair (i, j), subtract
    the delta_ij column from the psi_i and psi_j columns and rows T_i and
    T_j from row T_ij.  The result has diagonal blocks (2g-2)*Id and 2g*Id
    with a zero block below the first."""
    n = m.n
    if m.size != n + len(_pairs(n)):
        raise ShapeMismatch("matrix size does not match its labels")
    entries = [list(row) for row in m.entries]
    _pair_operations(entries, n, sub)
    new_rows = tuple(m.row_labels[:n] + tuple(f"{lbl}'" for lbl in m.row_labels[n:]))
    new_cols = tuple(tuple(f"{lbl}'" for lbl in m.col_labels[:n]) + m.col_labels[n:])
    return IntersectionMatrix(m.genus, new_rows, new_cols, tuple(tuple(row) for row in entries))


def bareiss_determinant(m: IntersectionMatrix, genus: int) -> int:
    """Fraction-free (Bareiss 1968) determinant of m over Z at an integer genus."""
    return _bareiss([[_homogeneous_value(e.n, genus, 1) for e in row]
                     for row in m.entries])[1]


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
    """Exact rank of a matrix of rationals: each row is scaled by the lcm of
    its denominators, and the integer rows are eliminated fraction-free.
    Rows of unequal length raise ValueError."""
    rows = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
            for row in entries_q]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    ints = []
    for row in rows:
        lcm = math.lcm(*(v.denominator for v in row))
        ints.append([v.numerator * (lcm // v.denominator) for v in row])
    return _bareiss(ints)[0]


class FullRankCertificate:
    __slots__ = ("block_form", "determinant", "expected_determinant",
                 "sign_matches_expected", "cross_check_agrees", "roots_geq_2")

    def __init__(self, block_form: IntersectionMatrix, determinant: UniPoly,
                 expected_determinant: UniPoly, sign_matches_expected: bool,
                 cross_check_agrees: bool, roots_geq_2: int):
        self.block_form, self.determinant = block_form, determinant
        self.expected_determinant = expected_determinant
        self.sign_matches_expected = sign_matches_expected
        self.cross_check_agrees, self.roots_geq_2 = cross_check_agrees, roots_geq_2

    @property
    def certified(self) -> bool:
        return self.sign_matches_expected and self.cross_check_agrees and self.roots_geq_2 == 0


def _block_product(b: IntersectionMatrix, n: int) -> tuple[UniPoly, bool]:
    """Product of the diagonal of a block form (see block_change_of_basis),
    and whether the block below the psi block is zero and both diagonal
    blocks are diagonal, which makes that product its determinant."""
    structured = all(
        c == r or r < n <= c or b.entry(r, c).is_zero
        for r in range(b.size) for c in range(b.size)
    )
    product = UniPoly.const(1)
    for r in range(b.size):
        product = product * b.entry(r, r)
    return product, structured


def certify_full_rank(m: IntersectionMatrix) -> FullRankCertificate:
    """Determinant of m as the diagonal product of its block form b, checked
    by undoing the basis change; comparison against +-(2g-2)^n (2g)^(n
    choose 2) at m's own genus, which a singular m fails, and a real-root
    count certifying nonvanishing for every genus >= 2.

    The cross-check adds rows T_i and T_j back to each row T_ij' of b and
    column delta_ij back to columns psi_i' and psi_j'.  It holds when b has
    the block structure and the result is m entry for entry: each addition
    adds one line to another, in any order (see _pair_operations), so
    det m = det b, which the block structure makes b's diagonal product."""
    if m.size != len(m.col_labels):
        raise NotSquare("intersection matrix must be square")
    n = m.n
    b = block_change_of_basis(m)
    det, structured = _block_product(b, n)
    undone = [list(row) for row in b.entries]
    _pair_operations(undone, n, add)
    cross_ok = structured and undone == [list(row) for row in m.entries]
    gp = genus_poly(m.genus)
    expected = (2 * gp - 2) ** n * (2 * gp) ** (m.size - n)
    sign_ok = det == expected or det == -expected
    roots = 0 if det.is_zero else sturm_roots_geq(det, 2)
    return FullRankCertificate(b, det, expected, sign_ok, cross_ok, roots)
