"""Blow-up ledgers, intersection matrices, and the full-rank certificate."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowforge import testcurves
from chowforge.rationals import PoleAtPoint, UniPoly, _bareiss, sturm_roots_geq
from chowforge.testcurves import (
    BadIndex,
    BadN,
    BlowupLedger,
    IntersectionMatrix,
    NotSquare,
    ShapeMismatch,
    bareiss_determinant,
    block_change_of_basis,
    certify_full_rank,
    family_ledger,
    gaussian_determinant,
    intersection_matrix,
    psi_degree,
    rank_numeric,
    _pairs,
)

G = UniPoly.g()


def test_family_one_ledger_values():
    # n=1: the diagonal section is never blown up.
    assert family_ledger(G, 1, (1,)).derived("sigma_1") == -(2 * G - 2)
    led = family_ledger(G, 3, (2,))
    assert led.derived("sigma_2") == -(2 * G)
    assert led.derived("sigma_1") == UniPoly.const(-1)
    assert led.derived("sigma_3") == UniPoly.const(-1)
    g2 = family_ledger(UniPoly.const(2), 4, (1,))
    assert g2.derived("sigma_1") == UniPoly.const(-5)


def test_family_two_ledger_values():
    led2 = family_ledger(G, 2, (1, 2))
    assert led2.derived("sigma_1") == -(4 * G)
    assert led2.derived("sigma_2") == -(4 * G)
    led3 = family_ledger(G, 3, (1, 2))
    assert led3.derived("sigma_3") == UniPoly.const(-2)
    g2 = family_ledger(UniPoly.const(2), 3, (1, 2))
    assert g2.derived("sigma_1") == UniPoly.const(-9)


def test_ledger_values_are_derived_from_declared_exceptionals():
    for gp, n in itertools.product((G, UniPoly.const(3)), range(1, 7)):
        for curve in [(i,) for i in range(1, n + 1)] + _pairs(n):
            led = family_ledger(gp, n, curve)
            if len(curve) == 2:  # a roaming pair adds the 2g+2 count to its unit counts
                assert led.exceptional_multiplicities[f"sigma_{curve[0]}"]["E_ram"] == 2 * gp + 2
            for section, base in led.base_self_intersections.items():
                total = sum(
                    (c if isinstance(c, UniPoly) else UniPoly.const(c))
                    for c in led.exceptional_multiplicities[section].values()
                ) if led.exceptional_multiplicities[section] else UniPoly.const(0)
                assert led.derived(section) == base - total


def test_ledger_section_without_exceptionals_keeps_its_base():
    led = BlowupLedger({"a": 2 * G, "b": UniPoly.const(-1)}, {"b": {"E": 1}})
    assert led.derived("a") == 2 * G
    assert led.derived("b") == UniPoly.const(-2)


def test_family_ledger_refuses_other_index_tuples():
    for curve in ((), (0,), (4,), (1, 1), (2, 1), (1, 2, 3)):
        with pytest.raises(BadIndex):
            family_ledger(G, 3, curve)


def test_psi_degree_formulas():
    for n in range(1, 7):
        one = family_ledger(G, n, (1,))
        assert psi_degree(one, "sigma_1") == 2 * G + n - 3
        if n >= 2:
            assert psi_degree(one, "sigma_2") == UniPoly.const(1)
            two = family_ledger(G, n, (1, 2))
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


@pytest.mark.parametrize("genus", ["symbolic", 2, 3, 7])
def test_every_row_matches_its_own_ledger(genus):
    """intersection_matrix reads one ledger per family; each row must still
    be the psi degrees of the ledger of its own test curve, and each boundary
    entry the overlap rule: 0 or 1 by overlap, 2g+2 for the full pair."""
    gp = G if genus == "symbolic" else UniPoly.const(genus)
    for n in range(1, 7):
        m = intersection_matrix(genus, n)
        pairs = _pairs(n)
        curves = [(i,) for i in range(1, n + 1)] + pairs
        for row, curve in zip(m.entries, curves):
            ledger = family_ledger(gp, n, curve)
            assert row[:n] == tuple(psi_degree(ledger, f"sigma_{k}") for k in range(1, n + 1))
            for kl, entry in zip(pairs, row[n:]):
                overlap = len(set(curve) & set(kl))
                assert entry == (2 * gp + 2 if overlap == 2 else UniPoly.const(overlap))


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


def test_intersection_matrix_rejects_genus_below_two():
    # At g = -2 the matrix would be certified full rank, with det -144.
    for g0 in (1, 0, -2):
        with pytest.raises(PoleAtPoint):
            intersection_matrix(g0, 2)


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
    # Five rows for n = 3, whose labels ask for 3 + 3.
    m3 = intersection_matrix("symbolic", 3)
    with pytest.raises(ShapeMismatch):
        block_change_of_basis(IntersectionMatrix("symbolic", m3.row_labels[:5], m3.col_labels,
                                                 m3.entries[:5]))


def test_basis_change_preserves_determinant():
    for n in (2, 3, 4):
        m = intersection_matrix("symbolic", n)
        b = block_change_of_basis(m)
        assert gaussian_determinant(m.entries) == gaussian_determinant(b.entries)


def test_certify_full_rank_symbolic():
    cert = certify_full_rank(intersection_matrix("symbolic", 3))
    expected = (2 * G - 2) ** 3 * (2 * G) ** 3
    assert cert.determinant in (expected, -expected)
    assert cert.roots_geq_2 == 0
    assert cert.cross_check_agrees
    assert cert.certified
    cert1 = certify_full_rank(intersection_matrix("symbolic", 1))
    assert cert1.determinant == 2 * G - 2
    # Row T_1 replaced by a copy of T_2: the determinant 0 matches no expected value,
    # and the root count is not asked of the zero polynomial.
    m = intersection_matrix("symbolic", 2)
    singular = IntersectionMatrix(m.genus, m.row_labels, m.col_labels,
                                  (m.entries[1],) + m.entries[1:])
    cert = certify_full_rank(singular)
    assert cert.determinant.is_zero
    assert not cert.sign_matches_expected and not cert.certified


def test_cross_check_rejects_broken_block_structure():
    """The block-product cross-check fails when the basis change does not
    reach its block form, also when the diagonal product still equals the
    determinant."""
    m = intersection_matrix("symbolic", 3)

    def tampered(*changes):
        rows = [list(row) for row in m.entries]
        for r, c in changes:
            rows[r][c] = rows[r][c] + 1
        return IntersectionMatrix(m.genus, m.row_labels, m.col_labels, tuple(map(tuple, rows)))

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


@pytest.mark.parametrize("scale", [2, Fraction(1, 3)], ids=["doubled", "third"])
@pytest.mark.parametrize("genus", ["symbolic", 2])
def test_cross_check_rejects_non_determinant_preserving_basis_change(genus, scale, monkeypatch):
    """A basis change that keeps the block shape but scales the row T_12'
    scales the diagonal product; undoing the unit operations on that block
    form must not give back m.  Dividing by 3 leaves the product's
    numerators equal to det m, so the product's denominator must count."""
    unbroken = block_change_of_basis

    def scaled(m):
        b = unbroken(m)
        rows = list(b.entries)
        rows[3] = tuple(e * scale for e in rows[3])
        return IntersectionMatrix(b.genus, b.row_labels, b.col_labels, tuple(rows))

    monkeypatch.setattr(testcurves, "block_change_of_basis", scaled)
    cert = certify_full_rank(intersection_matrix(genus, 3))
    assert not cert.determinant.is_zero
    assert not cert.cross_check_agrees and not cert.certified


@pytest.mark.parametrize("genus", ["symbolic", 2])
def test_cross_check_rejects_wrong_upper_right_entry(genus, monkeypatch):
    """A block form whose T_1 x delta_12 entry, in the upper-right block, is
    off by one keeps its structure and diagonal product, so it still has
    det m as its determinant; it is not the block form of m, and undoing the
    basis change on it must say so."""
    unbroken = block_change_of_basis

    def shifted(m):
        b = unbroken(m)
        rows = [list(row) for row in b.entries]
        rows[0][m.n] = rows[0][m.n] + 1
        return IntersectionMatrix(b.genus, b.row_labels, b.col_labels, tuple(map(tuple, rows)))

    monkeypatch.setattr(testcurves, "block_change_of_basis", shifted)
    cert = certify_full_rank(intersection_matrix(genus, 3))
    assert cert.determinant in (cert.expected_determinant, -cert.expected_determinant)
    assert not cert.cross_check_agrees and not cert.certified


def _ramification_2g_plus_1(gp, n, curve, base, through):
    for r in curve:
        through[f"sigma_{r}"]["E_ram"] = 2 * gp + 1


def _roaming_misses_a_crossing(gp, n, curve, base, through):
    crossings = through[f"sigma_{curve[0]}"]
    del crossings[next(iter(crossings))]


def _roaming_base_2g_minus_3(gp, n, curve, base, through):
    base[f"sigma_{curve[0]}"] = 3 - 2 * gp


def _fixed_misses_a_crossing(gp, n, curve, base, through):
    """Every fixed section loses its crossing with the second roaming one."""
    for k in range(1, n + 1):
        if k not in curve:
            del through[f"sigma_{k}"][f"E_{k}_{curve[1]}"]


def _ledger_mutation(size, change):
    """Patch family_ledger so that change edits every ledger of a test curve
    with size indices."""
    def patch(monkeypatch):
        built = testcurves.family_ledger

        def mutant(gp, n, curve):
            ledger = built(gp, n, curve)
            if len(curve) != size:
                return ledger
            base = dict(ledger.base_self_intersections)
            through = {s: dict(e) for s, e in ledger.exceptional_multiplicities.items()}
            change(gp, n, curve, base, through)
            return BlowupLedger(base, through)

        monkeypatch.setattr(testcurves, "family_ledger", mutant)
    return patch


def _t12_delta12_plus_1(monkeypatch):
    """Patch intersection_matrix so that T_12 meets delta_12 2g+3 times."""
    built = testcurves.intersection_matrix

    def mutant(genus, n):
        m = built(genus, n)
        rows = [list(row) for row in m.entries]
        rows[n][n] = rows[n][n] + 1
        return IntersectionMatrix(m.genus, m.row_labels, m.col_labels, tuple(map(tuple, rows)))

    monkeypatch.setattr(testcurves, "intersection_matrix", mutant)


TESTCURVE_MUTATIONS = {
    "none": None,
    "T_12 ramification 2g+1": _ledger_mutation(2, _ramification_2g_plus_1),
    "T_1 roaming section misses a crossing": _ledger_mutation(1, _roaming_misses_a_crossing),
    "T_1 roaming base -(2g-3)": _ledger_mutation(1, _roaming_base_2g_minus_3),
    "T_12 fixed section misses a crossing": _ledger_mutation(2, _fixed_misses_a_crossing),
    "T_12 x delta_12 = 2g+3": _t12_delta12_plus_1,
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("genus", ["symbolic", 3])
@pytest.mark.parametrize("mutation", list(TESTCURVE_MUTATIONS))
def test_certificate_catches_testcurve_mutations(mutation, genus, n, monkeypatch):
    """Each row changes one multiplicity of the ledgers or one entry of the
    matrix; the certificate of the mutated matrix must fail, and that of
    the unmutated one pass."""
    patch = TESTCURVE_MUTATIONS[mutation]
    if patch is not None:
        patch(monkeypatch)
    cert = certify_full_rank(testcurves.intersection_matrix(genus, n))
    assert cert.certified == (patch is None)


def _image(m, v: dict) -> dict:
    """M v for v a map from column label to int, keyed by the column label
    with the row's index set: row T_i gives psi_i and row T_ij delta_ij
    (indices are single digits, so n <= 9)."""
    col = {lbl: c for c, lbl in enumerate(m.col_labels)}
    return {
        ("psi_" if len(lbl) == 3 else "delta_") + lbl[2:]:
            sum((m.entry(r, col[k]) * x for k, x in v.items()), UniPoly())
        for r, lbl in enumerate(m.row_labels)
    }


def _block(m, u: dict, w: dict, ku: str, kw: str):
    """The 2 x 2 block by which M acts on span(u, w), where u is 1 at ku and
    w 0 there, and w 1 at kw and u 0 there; M u and M w must lie in the span."""
    block = []
    for v in (u, w):
        image = _image(m, v)
        alpha, beta = image[ku], image[kw]
        assert image == {k: alpha * u.get(k, 0) + beta * w.get(k, 0) for k in image}, v
        block.append((alpha, beta))
    return [[block[0][0], block[1][0]], [block[0][1], block[1][1]]]


def _prove_determinant_for_every_n():
    """det M = (2g-2)^n (2g)^C(n,2) for every n >= 4, at symbolic genus.

    M commutes with S_n, which acts on the singletons as triv + std and on
    the pairs as triv + std + (n-2, 2).  The trivial part is spanned by
    sum psi_k and sum delta_kl, the standard part (n-1 copies) by psi_1 -
    psi_2 and sum_{j>2} (delta_1j - delta_2j), and delta_12 - delta_13 -
    delta_24 + delta_34 lies in the (n-2, 2) part, of dimension n(n-3)/2.
    By Schur's lemma det M = det(triv)^1 det(std)^(n-1) lam^(n(n-3)/2).
    Each block entry is a count of index sets times a ledger degree, affine
    in n, so its values at n = 4, 5, 6 fix it; each 2 x 2 determinant is
    then quadratic in n, and three values fix it too."""
    g = UniPoly.g()
    blocks = {}
    for n in (4, 5, 6):
        m = testcurves.intersection_matrix("symbolic", n)
        pairs = [f"delta_{k}{l}" for k, l in _pairs(n)]
        triv = _block(m, {f"psi_{k}": 1 for k in range(1, n + 1)}, dict.fromkeys(pairs, 1),
                      "psi_1", "delta_12")
        std_pairs = {f"delta_1{j}": 1 for j in range(3, n + 1)}
        std_pairs.update({f"delta_2{j}": -1 for j in range(3, n + 1)})
        std = _block(m, {"psi_1": 1, "psi_2": -1}, std_pairs, "psi_1", "delta_13")
        h = {"delta_12": 1, "delta_13": -1, "delta_24": -1, "delta_34": 1}
        lam = _image(m, h)["delta_12"]
        assert _image(m, h) == {k: lam * h.get(k, 0) for k in m.col_labels}, n
        blocks[n] = [e for b in (triv, std) for row in b for e in row] + [lam]
        for b in (triv, std):
            assert b[0][0] * b[1][1] - b[0][1] * b[1][0] == 4 * g * (g - 1), (n, b)
        assert lam == 2 * g, n
    assert all(e6 - e5 == e5 - e4 for e4, e5, e6 in zip(blocks[4], blocks[5], blocks[6]))
    for n in range(4, 9):
        det = certify_full_rank(testcurves.intersection_matrix("symbolic", n)).determinant
        product = (4 * g * (g - 1)) ** n * (2 * g) ** (n * (n - 3) // 2)
        assert product == (2 * g - 2) ** n * (2 * g) ** (n * (n - 1) // 2)
        assert det in (product, -product), n


def test_determinant_for_every_n_from_the_isotypic_blocks():
    _prove_determinant_for_every_n()


@pytest.mark.parametrize("mutation", [k for k, v in TESTCURVE_MUTATIONS.items() if v])
def test_every_n_proof_catches_testcurve_mutations(mutation, monkeypatch):
    TESTCURVE_MUTATIONS[mutation](monkeypatch)
    with pytest.raises(AssertionError):
        _prove_determinant_for_every_n()


def test_certify_full_rank_numeric():
    cert = certify_full_rank(intersection_matrix(2, 3))
    val = cert.determinant(Fraction(0))
    assert abs(val) == 512
    assert cert.expected_determinant == UniPoly.const(512)
    assert cert.certified
    # n = 1 at g = 2 expects +-(2g-2) = +-2: 5 is nonzero but wrong.
    cert = certify_full_rank(IntersectionMatrix(2, ("T_1",), ("psi_1",), ((UniPoly.const(5),),)))
    assert cert.cross_check_agrees and cert.roots_geq_2 == 0
    assert not cert.sign_matches_expected and not cert.certified


def test_determinant_cross_checks():
    m = intersection_matrix("symbolic", 2)
    det = certify_full_rank(m).determinant
    gdet = gaussian_determinant(m.entries)
    assert isinstance(gdet, UniPoly) and gdet == det
    assert bareiss_determinant(m, 5) == det(Fraction(5))
    assert sturm_roots_geq(det, Fraction(2)) == 0
    with pytest.raises(NotSquare):
        certify_full_rank(IntersectionMatrix(
            "symbolic", ("T_1",), ("psi_1", "delta_12"), ((UniPoly.const(1), UniPoly.const(2)),)
        ))


@pytest.mark.parametrize("genus", ["symbolic", 2, 3, 9])
def test_certificate_determinant_matches_bareiss(genus):
    """The certificate's determinant, the block form's diagonal product, is
    det m by elimination over Z at g = 0..size.  An entry of m has degree at
    most 1 in g, so det m has degree at most size, and these size + 1 genera
    fix it.  This is also the check of _block_product's structure test."""
    for n in range(1, 9):
        m = intersection_matrix(genus, n)
        det = certify_full_rank(m).determinant
        assert all(bareiss_determinant(m, x) == det(x) for x in range(m.size + 1)), n


def test_numeric_rank_spot_checks():
    for g0, n in ((2, 4), (7, 5), (10, 6)):
        m = intersection_matrix(g0, n)
        q = [[e.leading if e.degree == 0 else 0 for e in row] for row in m.entries]
        assert rank_numeric(q) == m.size


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
entry_polys = st.lists(small_fracs, max_size=3).map(UniPoly)


@st.composite
def poly_matrices(draw):
    """Square UniPoly matrices of size <= 5 and entry degree <= 2, with an
    evaluation genus x0 in 0..3.  Some are made singular (one row a multiple
    of another); in others one row is a multiple of (g - x0), so the
    determinant vanishes at the evaluation point."""
    size = draw(st.integers(min_value=1, max_value=5))
    rows = [[draw(entry_polys) for _ in range(size)] for _ in range(size)]
    shape = draw(st.sampled_from(["generic", "singular", "vanishing"]))
    x0 = draw(st.integers(min_value=0, max_value=3))
    if shape == "singular" and size >= 2:
        factor = draw(small_fracs)
        rows[1] = [e * factor for e in rows[0]]
    elif shape == "vanishing":
        rows[0] = [(G - x0) * draw(small_fracs) for _ in range(size)]
    return rows, x0


@given(poly_matrices())
@settings(max_examples=80, deadline=None)
def test_bareiss_determinant_matches_field_elimination(case):
    """The kernel of certify_full_rank's cross-check: the fraction-free
    determinant of the matrix evaluated at one integer genus, rows scaled to
    integers, is the field determinant there times the scales."""
    rows, x0 = case
    values = [[e(x0) for e in row] for row in rows]
    scales = [math.lcm(*(v.denominator for v in row)) for row in values]
    ints = [[int(v * s) for v in row] for row, s in zip(values, scales)]
    assert _bareiss(ints)[1] == gaussian_determinant(rows)(x0) * math.prod(scales)


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
        assert [Fraction(int(c)) for c in coeffs] == list(certify_full_rank(m).determinant.coeffs)
