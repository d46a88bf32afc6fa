"""Blow-up ledgers, intersection matrices, and the full-rank certificate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowforge.rationals import RatFunc, UniPoly, sturm_roots_geq
from chowforge.testcurves import (
    BadN,
    IntersectionMatrix,
    NotSquare,
    bareiss_determinant,
    block_change_of_basis,
    certify_full_rank,
    family_one_ledger,
    family_two_ledger,
    gaussian_determinant,
    intersection_matrix,
    psi_degree,
    rank_numeric,
    _pairs,
)

G = UniPoly.g()


def test_family_one_ledger_values():
    # n=1: the diagonal section is never blown up.
    assert family_one_ledger(G, 1, 1).derived("sigma_1") == -(2 * G - 2)
    led = family_one_ledger(G, 3, 2)
    assert led.derived("sigma_2") == -(2 * G)
    assert led.derived("sigma_1") == UniPoly.const(-1)
    assert led.derived("sigma_3") == UniPoly.const(-1)
    g2 = family_one_ledger(UniPoly.const(2), 4, 1)
    assert g2.derived("sigma_1") == UniPoly.const(-5)


def test_family_two_ledger_values():
    led2 = family_two_ledger(G, 2, 1, 2)
    assert led2.derived("sigma_1") == -(4 * G)
    assert led2.derived("sigma_2") == -(4 * G)
    led3 = family_two_ledger(G, 3, 1, 2)
    assert led3.derived("sigma_3") == UniPoly.const(-2)
    g2 = family_two_ledger(UniPoly.const(2), 3, 1, 2)
    assert g2.derived("sigma_1") == UniPoly.const(-9)


def test_ledger_values_are_derived_from_declared_exceptionals():
    for n in range(1, 7):
        for i in range(1, n + 1):
            led = family_one_ledger(G, n, i)
            for section, base in led.base_self_intersections.items():
                total = sum(
                    (c if isinstance(c, UniPoly) else UniPoly.const(c))
                    for c in led.exceptional_multiplicities[section].values()
                ) if led.exceptional_multiplicities[section] else UniPoly.const(0)
                assert led.derived(section) == base - total


def test_psi_degree_formulas():
    for n in range(1, 7):
        one = family_one_ledger(G, n, 1)
        assert psi_degree(one, "sigma_1") == 2 * G + n - 3
        if n >= 2:
            assert psi_degree(one, "sigma_2") == UniPoly.const(1)
            two = family_two_ledger(G, n, 1, 2)
            assert psi_degree(two, "sigma_1") == 4 * G + n - 2
        if n >= 3:
            assert psi_degree(two, "sigma_3") == UniPoly.const(2)


def test_intersection_matrix_n3_symbolic_table():
    m = intersection_matrix("symbolic", 3)
    assert m.row_labels == ("T_1", "T_2", "T_3", "T_12", "T_13", "T_23")
    assert m.col_labels == ("psi_1", "psi_2", "psi_3", "delta_12", "delta_13", "delta_23")
    one, zero, two = UniPoly.const(1), UniPoly.const(0), UniPoly.const(2)
    assert m.entries[0] == (2 * G, one, one, one, one, zero)
    assert m.entries[3] == (4 * G + 1, 4 * G + 1, two, 2 * G + 2, one, one)
    assert m.entries[5] == (two, 4 * G + 1, 4 * G + 1, one, one, 2 * G + 2)


def test_intersection_matrix_small_n():
    m1 = intersection_matrix("symbolic", 1)
    assert m1.size == 1 and m1.entries[0][0] == 2 * G - 2
    m2 = intersection_matrix(2, 2)
    assert m2.size == 3
    assert [[int(str(e)) for e in row] for row in m2.entries] == [
        [3, 1, 1],
        [1, 3, 1],
        [8, 8, 6],
    ]
    with pytest.raises(BadN):
        intersection_matrix("symbolic", 0)


def test_relabeling_symmetry():
    """Swapping marked points 1 and 2 permutes rows and columns compatibly."""
    m = intersection_matrix("symbolic", 3)
    swap = {1: 2, 2: 1, 3: 3}
    pairs = _pairs(3)
    row_perm = [swap[i] - 1 for i in (1, 2, 3)]
    pair_index = {frozenset(p): k for k, p in enumerate(pairs)}
    pair_perm = [3 + pair_index[frozenset({swap[i], swap[j]})] for i, j in pairs]
    perm = row_perm + pair_perm
    for r in range(m.size):
        for c in range(m.size):
            assert m.entry(r, c) == m.entry(perm[r], perm[c])


def test_block_change_of_basis_structure():
    b = block_change_of_basis(intersection_matrix("symbolic", 3))
    for i in range(3):
        for j in range(3):
            assert b.entry(i, j) == ((2 * G - 2) if i == j else UniPoly.const(0))
            assert b.entry(3 + i, j) == UniPoly.const(0)
            assert b.entry(3 + i, 3 + j) == ((2 * G) if i == j else UniPoly.const(0))
    # n=1 has no delta columns: the matrix is unchanged.
    m1 = intersection_matrix("symbolic", 1)
    assert block_change_of_basis(m1).entries == m1.entries
    b43 = block_change_of_basis(intersection_matrix(3, 4))
    assert all(b43.entry(i, i) == UniPoly.const(4) for i in range(4))
    assert all(b43.entry(i, i) == UniPoly.const(6) for i in range(4, 10))


def test_basis_change_preserves_determinant():
    for n in (2, 3, 4):
        m = intersection_matrix("symbolic", n)
        b = block_change_of_basis(m)
        assert bareiss_determinant(list(map(list, m.entries))) == bareiss_determinant(
            list(map(list, b.entries))
        )


def test_certify_full_rank_symbolic():
    cert = certify_full_rank(intersection_matrix("symbolic", 3))
    expected = (2 * G - 2) ** 3 * (2 * G) ** 3
    assert cert.determinant in (expected, -expected)
    assert cert.roots_geq_2 == 0
    assert cert.cross_check_agrees
    assert cert.certified
    cert1 = certify_full_rank(intersection_matrix("symbolic", 1))
    assert cert1.determinant == 2 * G - 2


def test_cross_check_rejects_broken_block_structure():
    """The block-product cross-check fails when the basis change does not
    reach its block form, also when the diagonal product still equals the
    determinant."""
    m = intersection_matrix("symbolic", 3)

    def tampered(*changes):
        rows = [list(row) for row in m.entries]
        for r, c in changes:
            rows[r][c] = rows[r][c] + 1
        return IntersectionMatrix(m.row_labels, m.col_labels, tuple(map(tuple, rows)))

    # T_12 against delta_13: the block form gets an entry below the psi block.
    cert = certify_full_rank(tampered((3, 4)))
    assert not cert.determinant.is_zero
    assert not cert.cross_check_agrees and not cert.certified
    # Also raising T_12 against psi_1 and psi_3 leaves one off-diagonal entry
    # in the delta block, which keeps the determinant at the block product.
    cert = certify_full_rank(tampered((3, 4), (3, 0), (3, 2)))
    expected = (2 * G - 2) ** 3 * (2 * G) ** 3
    assert cert.determinant == expected
    assert not cert.cross_check_agrees and not cert.certified


def test_certify_full_rank_numeric():
    cert = certify_full_rank(intersection_matrix(2, 3))
    val = cert.determinant(Fraction(0))
    assert abs(val) == 512
    assert cert.certified


def test_determinant_cross_checks():
    m = intersection_matrix("symbolic", 2)
    det = bareiss_determinant(list(map(list, m.entries)))
    gdet = gaussian_determinant(list(map(list, m.entries)))
    assert gdet.is_polynomial() and gdet.num == det
    assert sturm_roots_geq(det, Fraction(2)) == 0
    with pytest.raises(NotSquare):
        bareiss_determinant([[UniPoly.const(1), UniPoly.const(2)]])


def test_numeric_rank_spot_checks():
    for g0, n in ((2, 4), (7, 5), (10, 6)):
        m = intersection_matrix(g0, n)
        q = [[Fraction(str(e)) for e in row] for row in m.entries]
        assert rank_numeric(q) == m.size


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
entry_polys = st.lists(small_fracs, max_size=3).map(UniPoly)


@st.composite
def poly_matrices(draw):
    """Square UniPoly matrices of size <= 5 and entry degree <= 2.  Some are
    made singular (one row a multiple of another); in others one row is a
    multiple of (g - x0), so the determinant vanishes at the evaluation
    point g = x0 and the interpolation must still recover it."""
    size = draw(st.integers(min_value=1, max_value=5))
    rows = [[draw(entry_polys) for _ in range(size)] for _ in range(size)]
    shape = draw(st.sampled_from(["generic", "singular", "vanishing"]))
    if shape == "singular" and size >= 2:
        factor = draw(small_fracs)
        rows[1] = [e.scale(factor) for e in rows[0]]
    elif shape == "vanishing":
        x0 = draw(st.integers(min_value=0, max_value=3))
        rows[0] = [(G - x0).scale(draw(small_fracs)) for _ in range(size)]
    return rows


@given(poly_matrices())
@settings(max_examples=80, deadline=None)
def test_bareiss_determinant_matches_field_elimination(rows):
    assert RatFunc(bareiss_determinant(rows)) == gaussian_determinant(rows)


def test_determinants_match_sympy_domain_matrix():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    g = sympy.symbols("g")
    ring = sympy.ZZ[g]

    def to_ring(e):
        return ring.from_sympy(sum(sympy.Integer(int(c)) * g**i for i, c in enumerate(e.coeffs)))

    for n in range(1, 6):
        m = intersection_matrix("symbolic", n)
        oracle = DomainMatrix([[to_ring(e) for e in row] for row in m.entries],
                              (m.size, m.size), ring).det()
        coeffs = sympy.Poly(ring.to_sympy(oracle), g).all_coeffs()[::-1]
        assert [Fraction(int(c)) for c in coeffs] == list(bareiss_determinant(m.entries).coeffs)
