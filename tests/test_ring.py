"""Graded quotient rings: normal forms, ideal membership, graded dimensions."""

import hashlib
import heapq
import random
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowforge import ring as ring_module
from chowforge.points import _rank_mod
from chowforge.rationals import PoleAtPoint, RatFunc, UniPoly
from chowforge.ring import (
    SLOT_BITS,
    Generator,
    InhomogeneousRelations,
    MonomialOverflow,
    NonterminatingHint,
    PolyRing,
    RingPresentation,
    UnknownGenerator,
    element_str,
)

G = UniPoly.g()


def _record(monkeypatch, owner, name, entry=lambda *args: args):
    """Wrap owner.name so that each call appends entry(*args) to the
    returned list, then runs as before."""
    calls, original = [], getattr(owner, name)

    def recorded(*args):
        calls.append(entry(*args))
        return original(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def pv_presentation():
    ring = PolyRing([Generator("z"), Generator("c1"), Generator("c2", 2)])
    z, c1, c2 = ring.gen("z"), ring.gen("c1"), ring.gen("c2")
    return ring, RingPresentation(ring, [z * z + c1 * z + c2])


def delta_presentation():
    ring = PolyRing([Generator("delta")])
    return ring, RingPresentation(ring, [ring.gen("delta") ** 3])


def test_quadratic_relation_reduces_square():
    ring, pres = pv_presentation()
    z, c1, c2 = ring.gen("z"), ring.gen("c1"), ring.gen("c2")
    assert pres.normal_form(z * z) == -(c1 * z) - c2


def test_delta_cube_monomial_basis():
    ring, pres = delta_presentation()
    delta = ring.gen("delta")
    assert pres.is_zero(delta**4)
    assert not pres.is_zero(delta**2)
    assert [pres.graded_component_dim(d) for d in range(4)] == [1, 1, 1, 0]


def test_free_ring_normal_form_is_identity():
    ring = PolyRing([Generator("x")])
    pres = RingPresentation(ring, [])
    x = ring.gen("x")
    e = x**3 + x.scale(Fraction(5, 2))
    assert pres.normal_form(e) == e


def test_z_cubed_normal_form():
    ring, pres = pv_presentation()
    z, c1, c2 = ring.gen("z"), ring.gen("c1"), ring.gen("c2")
    assert pres.normal_form(z**3) == (c1 * c1 - c2) * z + c1 * c2


def test_is_zero_on_relation_and_generator():
    ring, pres = pv_presentation()
    z, c1, c2 = ring.gen("z"), ring.gen("c1"), ring.gen("c2")
    assert pres.is_zero(z * z + c1 * z + c2)
    assert not pres.is_zero(z)
    free = RingPresentation(PolyRing([Generator("x")]), [])
    assert not free.is_zero(free.ring.gen("x"))


def test_free_psi_ring_degree_one_dim():
    ring = PolyRing([Generator(f"psi{i}") for i in (1, 2, 3)])
    pres = RingPresentation(ring, [])
    assert pres.graded_component_dim(1) == 3


def test_inhomogeneous_relations_rejected(monkeypatch):
    """A relation with terms of two weighted degrees is refused before any
    completion runs, with the relation's text."""
    completions = _record(monkeypatch, ring_module, "_buchberger")
    ring = PolyRing([Generator("x"), Generator("y", 2)])
    x, y = ring.gen("x"), ring.gen("y")
    with pytest.raises(InhomogeneousRelations, match=r"^x\^2\+x$"):
        RingPresentation(ring, [y, x * x + x])
    assert not completions


def test_unknown_generator():
    ring = PolyRing([Generator("x")])
    with pytest.raises(UnknownGenerator):
        ring.gen("y")


def test_import_element_maps_generators_by_name():
    """a1 imports elements of (z, w, c1, c2, d1, d2) into (zeta, c1, d1): a
    generator the target lacks raises only when an exponent uses it."""
    src = PolyRing([Generator("z"), Generator("w"), Generator("c1"), Generator("c2", 2),
                    Generator("d1"), Generator("d2", 2)])
    dst = PolyRing([Generator("zeta"), Generator("c1"), Generator("d1")])
    c1, d1 = src.gen("c1"), src.gen("d1")
    imported = dst.import_element(c1 * c1 * d1 - d1.scale(G) + src.const(3))
    assert imported.ring is dst
    assert imported == dst.gen("c1") ** 2 * dst.gen("d1") - dst.gen("d1").scale(G) + dst.const(3)
    with pytest.raises(UnknownGenerator):
        dst.import_element(c1 * src.gen("w"))
    with pytest.raises(UnknownGenerator):
        PolyRing([Generator("c1", 2)]).import_element(c1)


def test_element_rejects_bad_exponents():
    ring = PolyRing([Generator("x"), Generator("y")])
    for exps in ((-1, 2), (0, -3), (1.0, 2), (Fraction(1), 0), ("1", 0), (1,), (1, 2, 0)):
        with pytest.raises(ValueError):
            ring.element({exps: 1})
    assert ring.element({(1, 2): 1}) == ring.gen("x") * ring.gen("y") ** 2


def test_equal_elements_of_different_rings_hash_equal():
    r = PolyRing([Generator("x")])
    s = PolyRing([Generator("x"), Generator("y")])
    t = PolyRing([Generator("y"), Generator("x")])
    for build in (lambda q: q.gen("x"), lambda q: q.gen("x") ** 2 - q.gen("x").scale(G)):
        a, b, c = build(r), build(s), build(t)
        assert a == b == c
        assert a in {b} and b in {c} and c in {a}
    assert s.gen("x") + s.gen("y") != s.gen("x")


def test_generators_compare_and_hash_by_value():
    assert Generator("x") == Generator("x", 1) and hash(Generator("x")) == hash(Generator("x", 1))
    assert Generator("x") != Generator("x", 2) and Generator("x") != Generator("y")
    r = PolyRing([Generator("x"), Generator("y", 2)])
    s = PolyRing([Generator("x"), Generator("y", 2)])
    assert r == s and hash(r) == hash(s) and len({r, s}) == 1
    assert r != PolyRing([Generator("x"), Generator("y")])
    with pytest.raises(ValueError, match="generator degree must be >= 1"):
        Generator("x", 0)
    with pytest.raises(AttributeError):
        Generator("x").degree = 2


def test_constants_compare_and_hash_as_their_coefficients():
    ring = PolyRing([Generator("x")])
    two = ring.const(2)
    for c in (2, Fraction(2), UniPoly.const(2), RatFunc(2)):
        assert two == c and c == two and hash(two) == hash(c)
    assert two + RatFunc(2) == 4
    assert ring.const(RatFunc(G, G + 1)) == RatFunc(G, G + 1)
    assert ring.zero() in {0} and ring.const(G) in {G}
    assert ring.gen("x") != 2 and ring.gen("x") + 1 != UniPoly.const(1)


def test_element_str_canonical():
    ring = PolyRing([Generator("c1"), Generator("c2", 2)])
    c1, c2 = ring.gen("c1"), ring.gen("c2")
    e = (c1 * c1).scale(8 * G**3 + 12 * G**2 + 4 * G) + c2.scale(-8 * G**3 + 8 * G)
    assert element_str(e) == "(8*g^3+12*g^2+4*g)*c1^2+(-8*g^3+8*g)*c2"
    assert element_str(c1 - c1) == "0"
    assert element_str(-c1 + c2.scale(Fraction(1, 2))) == "1/2*c2-c1"
    # A product whose middle terms cancel, and constant terms.
    assert element_str((c1 + 1) * (c1 - 1)) == "c1^2-1"
    assert element_str(c1 + ring.const(G)) == "c1+(g)"


@pytest.mark.parametrize("call, error", [
    (lambda ring: ring.const("1"), TypeError),
    (lambda ring: PolyRing([Generator("x"), Generator("x", 2)]), ValueError),
    (lambda ring: ring.zero().leading_exponent(), ValueError),
], ids=["str coefficient", "duplicate generator names", "leading exponent of zero"])
def test_ring_refusals(call, error):
    with pytest.raises(error):
        call(PolyRing([Generator("x")]))


def test_foreign_operands_and_assignment_are_refused():
    """Arithmetic and comparison with a foreign operand return NotImplemented,
    so Python tries the operand's own method; the records are immutable."""
    ring = PolyRing([Generator("x")])
    x = ring.gen("x")
    pres = RingPresentation(ring, [x**2])
    foreign = object()
    for value in (G + 1, RatFunc(G, G + 1), x + 1):
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                     "__eq__"):
            if hasattr(value, name):
                assert getattr(value, name)(foreign) is NotImplemented, (value, name)
    for record, field in ((G, "n"), (RatFunc(G, G + 1), "d"), (ring, "generators"),
                          (x, "terms"), (pres, "relations")):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, field, None)
    assert repr(RatFunc(G, G + 1)) == "RatFunc((g)/(g+1))" and repr(G + 1) == "UniPoly(g+1)"


def test_grevlex_order_fiber_first():
    ring, _ = pv_presentation()
    z, c1 = ring.gen("z"), ring.gen("c1")
    # z^2 must dominate c1*z so the quadratic relation rewrites z^2.
    rel = z * z + c1 * z
    assert rel.leading_exponent() == (z * z).leading_exponent()


def _grevlex_cmp(weights, a, b) -> int:
    """Weighted graded reverse lexicographic comparison, written as a
    comparator: the oracle for the order of PolyRing.pack."""
    da = sum(e * w for e, w in zip(a, weights))
    db = sum(e * w for e, w in zip(b, weights))
    if da != db:
        return -1 if da < db else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            # Smaller exponent in the rightmost differing slot wins.
            return 1 if x < y else -1
    return 0


def _weights_and_monomials(max_exp):
    return st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5).flatmap(
        lambda weights: st.tuples(
            st.just(weights),
            st.lists(
                st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * len(weights)),
                min_size=2,
                max_size=12,
            ),
        )
    )


@given(_weights_and_monomials(4))
@settings(max_examples=200, deadline=None)
def test_sort_key_matches_grevlex_comparator(case):
    """The packed int, the sort key of leading_exponent and element_str,
    orders monomials as the comparator does."""
    weights, monomials = case
    ring = PolyRing([Generator(f"x{i}", w) for i, w in enumerate(weights)])
    for a in monomials:
        for b in monomials:
            ka, kb = ring.pack(a), ring.pack(b)
            assert (ka > kb) - (ka < kb) == _grevlex_cmp(weights, a, b)


@given(_weights_and_monomials(4) | _weights_and_monomials(500))
@settings(max_examples=200, deadline=None)
def test_packed_monomials_match_exponent_tuples(case):
    """Packing round-trips, and int order, int addition and the guard-bit
    test are grevlex order, the exponent-wise sum and componentwise <=.
    Five generators of weight 3 and exponents up to 500 stay under the slot
    bound even after one addition."""
    weights, monomials = case
    ring = PolyRing([Generator(f"x{i}", w) for i, w in enumerate(weights)])
    guard = ring._guard
    for a in monomials:
        pa = ring.pack(a)
        assert ring.unpack(pa) == a
        for b in monomials:
            pb = ring.pack(b)
            assert (pa > pb) - (pa < pb) == _grevlex_cmp(weights, a, b)
            assert pa + pb == ring.pack(tuple(x + y for x, y in zip(a, b)))
            divides = ((pb | guard) - pa) & guard == guard
            assert divides == all(x <= y for x, y in zip(a, b))


def test_degree_past_the_slot_bound_raises():
    bound = 1 << SLOT_BITS - 2
    ring = PolyRing([Generator("x"), Generator("y", 3)])
    x, y = ring.gen("x"), ring.gen("y")
    pres = RingPresentation(ring, [x**3])
    assert pres.normal_form(x ** (bound - 1)).is_zero
    assert pres.graded_component_dim(bound - 1) == 1  # y^((bound - 1) / 3); x^3 = 0
    with pytest.raises(MonomialOverflow):
        pres.graded_component_dim(bound)
    assert pres.normal_form(y ** ((bound - 1) // 3)) == y ** ((bound - 1) // 3)
    for e in (x**bound, y ** -(-bound // 3), x * y ** (bound // 3), x ** (bound - 3) * y + x):
        with pytest.raises(MonomialOverflow):
            pres.normal_form(e)
    # Printing and the leading term order monomials by their packed form.
    with pytest.raises(MonomialOverflow):
        str(x**bound)
    with pytest.raises(MonomialOverflow):
        (x**bound + x).leading_exponent()
    # An S-pair lcm past the bound: leads x^half*z and x*z^half.
    ring = PolyRing([Generator("x"), Generator("z")])
    x, z = ring.gen("x"), ring.gen("z")
    half = bound // 2
    with pytest.raises(MonomialOverflow):
        RingPresentation(ring, [x**half * z, x * z**half])
    assert len(RingPresentation(ring, [x ** (half - 1) * z, x * z ** (half - 1)]).groebner_basis) == 2


def test_basis_size_bound_raises(monkeypatch):
    ring = PolyRing([Generator("x"), Generator("y"), Generator("z")])
    x, y, z = ring.gen("x"), ring.gen("y"), ring.gen("z")
    rels = [x * x - y * z, x * y - z * z]  # completion adds y^2*z - x*z^2
    # The cap counts live elements beyond the two input relations, not the input.
    monkeypatch.setattr(ring_module, "MAX_BASIS", 1)
    assert len(RingPresentation(ring, rels).groebner_basis) == 3
    monkeypatch.setattr(ring_module, "MAX_BASIS", 0)
    with pytest.raises(NonterminatingHint):
        RingPresentation(ring, rels)


@pytest.mark.parametrize("name", ["ctx", "i_g1", "w_n(3)", "r2(3)", "r2(5) at g=2"])
def test_reducers_are_rewrite_rules(name):
    """Each stored (lead, tail) says x^lead -> sum(tail): the lead's normal
    form is the tail, and the basis element is x^lead - sum(tail)."""
    from chowforge.chern import standard_context
    from chowforge.scenarios import scenario_I_g1, scenario_R2, scenario_Wn

    pres = {
        "ctx": lambda: standard_context().presentation,
        "i_g1": lambda: scenario_I_g1().final_presentation,
        "w_n(3)": lambda: scenario_Wn(3).final_presentation,
        "r2(3)": lambda: scenario_R2(3).final_presentation,
        "r2(5) at g=2": lambda: _scenario_presentation("r2", 5, 2),
    }[name]()
    ring = pres.ring
    assert len(pres._reducers) == len(pres.groebner_basis)
    for (lead, tail), element in zip(pres._reducers, pres.groebner_basis):
        mono = ring.element({ring.unpack(lead): 1})
        rewritten = ring.element({ring.unpack(m): c for m, c in tail})
        assert pres.normal_form(mono) == rewritten
        assert element == mono - rewritten


def _scenario_presentation(scenario, n, genus):
    from chowforge.scenarios import (
        scenario_A1_vanishing, scenario_I_g0, scenario_I_g1, scenario_R2, scenario_Wn,
    )

    report = {
        "a1_vanishing": lambda: scenario_A1_vanishing(n, genus),
        "i_g0": lambda: scenario_I_g0(genus),
        "i_g1": lambda: scenario_I_g1(genus),
        "w_n": lambda: scenario_Wn(n, genus),
        "r2": lambda: scenario_R2(n, genus),
    }[scenario]()
    if scenario in ("r2", "w_n"):  # completed at n points, not read from 3 points
        return RingPresentation(report.derived_relations[0].ring, report.derived_relations)
    return report.final_presentation


def _needs_pairs_presentation(name):
    """Small ideals whose completion adds S-polynomials; the scenarios'
    presentations above complete by reducing their inputs alone.  Cyclic-4
    and katsura-3 are homogenized by a fifth generator h."""
    from chowforge.rationals import genus_poly
    from chowforge.scenarios import _core_classes

    if name == "i_g0 elimination":  # scenario_I_g0's presentation in (c1, c2)
        ratio = _core_classes(genus_poly("symbolic"))[5]
        ring = PolyRing([Generator("c1", 1), Generator("c2", 2)])
        c1, c2 = ring.gen("c1"), ring.gen("c2")
        return RingPresentation(ring, [c2 - (c1 * c1).scale(ratio), c1**3])
    ring = PolyRing([Generator(v) for v in "xyzth"])
    x, y, z, t, h = (ring.gen(v) for v in "xyzth")
    return RingPresentation(ring, {
        "symbolic cubic": [x * x - (y * z).scale(G), x * y - z * z + t * t,
                           y**3 - (x * z * t).scale(2 * G + 1)],
        "cyclic-4": [x + y + z + t, x * y + y * z + z * t + t * x,
                     x * y * z + y * z * t + z * t * x + t * x * y, x * y * z * t - h**4],
        "katsura-3": [x + (y + z + t).scale(2) - h, x * x + (y * y + z * z + t * t).scale(2) - x * h,
                      (x * y + y * z + z * t).scale(2) - y * h, y * y + (x * z + y * t).scale(2) - z * h],
        # Each has a pair whose lcm equals its first (cubics 1) or its second
        # (cubics 2) element's lcm with a newer element: the edge case of
        # Gebauer-Moeller criterion B, which completion does not use.
        "cubics 1": [(y**3).scale(2) + y * z * z, x * y * y + (z**3).scale(2),
                     y**3 + (y * z * z).scale(2), x * y * y + x * z * z],
        "cubics 2": [x**3 + z**3, y**3 - (x * y * z).scale(2), y**3 - (x * x * z).scale(2)],
    }[name])


@pytest.mark.parametrize("scenario,n,genus", [
    ("r2", 3, "symbolic"), ("r2", 4, "symbolic"), ("r2", 5, 2), ("r2", 8, 2),
    ("w_n", 5, "symbolic"), ("i_g0", None, "symbolic"), ("i_g1", None, "symbolic"),
    ("i_g0 elimination", None, None), ("symbolic cubic", None, None),
    ("cyclic-4", None, None), ("katsura-3", None, None), ("cubics 1", None, None),
    ("cubics 2", None, None),
])
def test_completion_is_confluent(monkeypatch, scenario, n, genus):
    """Checked on the returned basis alone, whatever pairs completion pruned:
    every input reduces to 0, the S-polynomial of every pair of basis
    elements reduces to 0, and no leading monomial divides a term of another
    element.  Each small ideal pushes an S-pair (heap items (lcm, i, j) with
    i >= 0), as r2 pushes none, and pops its heap in nondecreasing degree:
    an element's pairs, of degree > its lead's, are built before any item of
    a degree above theirs is popped."""
    if genus is None:
        with monkeypatch.context() as m:
            pairs = _record(m, heapq, "heappush", lambda heap, item: item[1] >= 0)
            popped = _record(m, heapq, "heappop", lambda heap: heap[0][0])
            pres = _needs_pairs_presentation(scenario)
        assert any(pairs)
        degrees = [key >> pres.ring._top for key in popped]
        assert degrees == sorted(degrees)
        _assert_confluent(pres)
    else:
        _assert_confluent(_scenario_presentation(scenario, n, genus))


def _assert_confluent(pres):
    ring, basis = pres.ring, pres.groebner_basis
    assert all(pres.is_zero(r) for r in pres.relations)
    leads = [f.leading_exponent() for f in basis]

    def shifted(f, lead, lcm):
        return ring.element({tuple(a - b for a, b in zip(lcm, lead)): 1}) * f.monic()

    for a, (f, lf) in enumerate(zip(basis, leads)):
        for g, lg in zip(basis[a + 1 :], leads[a + 1 :]):
            lcm = tuple(map(max, lf, lg))
            assert pres.is_zero(shifted(f, lf, lcm) - shifted(g, lg, lcm))
        for g in basis[:a] + basis[a + 1 :]:
            assert not any(all(x >= y for x, y in zip(term, lf)) for term in g.terms)


def _monomials(weights, d):
    """Exponent tuples of weighted degree d over generators of these weights."""
    if not weights:
        return [()] if d == 0 else []
    return [(e,) + rest for e in range(d // weights[0] + 1)
            for rest in _monomials(weights[1:], d - e * weights[0])]


def _macaulay_bound(pres, d, g0, p):
    """The monomial count of degree d less the F_p rank of the degree-d
    Macaulay matrix (rows m*rel, deg m = d - deg rel) at g = g0.  Specializing
    and reducing mod p can only lower the rank over Q(g), so this bounds
    dim_d from above without the engine's basis."""
    weights = [gen.degree for gen in pres.ring.generators]
    columns = {m: k for k, m in enumerate(_monomials(weights, d))}
    rows = []
    for rel in pres.relations:
        values = {e: c(g0) for e, c in rel.terms.items()}
        if any(v.denominator % p == 0 for v in values.values()):
            pytest.skip(f"{p} divides a denominator at g = {g0}")
        for m in _monomials(weights, d - max(sum(map(mul, e, weights)) for e in rel.terms)):
            row = [0] * len(columns)
            for e, v in values.items():
                row[columns[tuple(map(add, m, e))]] = v.numerator * pow(v.denominator, -1, p) % p
            rows.append(row)
    return len(columns) - _rank_mod(rows, p)


# Each scenario's dimension claims by degree; r2's degree-2 claim is "at most 1".
MACAULAY_CLAIMS = {"r2": {2: 1, 3: 0}, "w_n": {1: 0, 2: 0, 3: 0}, "a1_vanishing": {1: 0},
                   "i_g1": {0: 1, 1: 2, 2: 1, 3: 0}}


@pytest.mark.parametrize("scenario,n,g0", [
    *((scenario, n, g0) for g0 in (2, 3, 5, 101)
      for scenario, n in (("r2", 2), ("r2", 3), ("r2", 4), ("w_n", 3), ("a1_vanishing", 3),
                          ("i_g1", None))),
    # r2 at the paper's bound n = 2g0+6.  At g0 = 5 (n = 16) the degree-3
    # matrix takes seconds to eliminate; at g0 = 101 it has 10^6 columns.
    ("r2", 10, 2), ("r2", 12, 3),
])
def test_macaulay_bound_mod_p(scenario, n, g0):
    """Every dimension claim of a symbolic presentation, bounded from above
    by elimination mod p: the engine's dim <= the bound <= the claim."""
    pres = _scenario_presentation(scenario, n, "symbolic")
    for d, claim in MACAULAY_CLAIMS[scenario].items():
        assert pres.graded_component_dim(d) <= _macaulay_bound(pres, d, g0, 1000003) <= claim


@pytest.mark.parametrize("name,size", [
    ("cyclic-4", 7), ("katsura-3", 7), ("cubics 1", 5), ("cubics 2", 7),
])
def test_completion_matches_sympy(name, size):
    """Outside oracle: the basis equals sympy's reduced grevlex basis, so the
    ideal of the basis lies in the ideal of the inputs, which the confluence
    test above does not show.  All generators have degree 1 and every
    coefficient is rational."""
    sympy = pytest.importorskip("sympy")
    pres = _needs_pairs_presentation(name)
    assert len(pres.groebner_basis) == size
    _assert_sympy_basis(sympy, pres)


def _assert_sympy_basis(sympy, pres):
    """The basis is sympy's reduced grevlex basis of the relations (weight-1
    generators and rational coefficients)."""
    gens = sympy.symbols([gen.name for gen in pres.ring.generators])

    def poly(e):
        return sympy.Poly(sum(sympy.Rational(c(0)) * sympy.Mul(*[v**k for v, k in zip(gens, exps)])
                              for exps, c in e.terms.items()), *gens, domain=sympy.QQ).monic()

    theirs = sympy.groebner([poly(r) for r in pres.relations], *gens, order="grevlex")
    assert {poly(b) for b in pres.groebner_basis} == {p.monic() for p in theirs.polys}


def _rank_over_q(rows):
    """The rank of sparse rational rows {column: int or Fraction} by exact
    elimination over Q, fraction-free: each row is scaled to integers, and a
    step cross-multiplies and divides out the row's gcd."""
    pivots = {}  # column -> the reduced row whose leading column it is
    for row in sorted(rows, key=len):  # monomial rows first, as they fill nothing in
        den = lcm(*(w.denominator for w in row.values()))
        row = {c: int(w * den) for c, w in row.items() if w}
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, b = pivot[col], row[col]
            row = {c: w for c in row.keys() | pivot.keys() if (w := a * row.get(c, 0) - b * pivot.get(c, 0))}
            g = gcd(*row.values())
            row = {c: w // g for c, w in row.items()}
    return len(pivots)


@st.composite
def _small_ideals(draw):
    """Weights, and relations as {exponent tuple: int}: 2-4 generators of
    weight 1-3, and 1-5 relations of 2-4 terms (1 where a degree has one
    monomial) of one weighted degree <= top = max(4, 2 * w_max + 1), with
    coefficients in -3..3.  Some draws add a pure power of degree <= top of
    every generator (an Artinian quotient) or of all but the first."""
    weights = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))

    def relation(d):
        monos = _monomials(weights, d)
        monos = draw(st.lists(st.sampled_from(monos), min_size=min(2, len(monos)), max_size=4, unique=True))
        return {m: draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1))) for m in monos}

    top = max(4, 2 * max(weights) + 1)
    degrees = [d for d in range(1, top + 1) if _monomials(weights, d)]
    rels = [relation(draw(st.sampled_from(degrees))) for _ in range(draw(st.integers(1, 5)))]
    powered = draw(st.sampled_from([range(len(weights)), range(1, len(weights)), range(0)]))
    for i in powered:
        rels.append({tuple(draw(st.integers(min(2, top // weights[i]), top // weights[i])) if j == i else 0
                           for j in range(len(weights))): 1})
    return weights, rels


@given(_small_ideals())
# Corners the draws seldom reach.  In y (2) and z (3), z^2 and y^3 leave
# degree 6 empty while the input y^2*z of degree 7 is queued.  In x, y, z,
# y^3 and z^3 complete the pure powers after the inputs of degree 2, whose
# S-pair of degree 3 is not built yet and gives x*z^2.  In x^2 + 2y^2, x^2,
# xy, x^2*z, yz + z^2, z^3 becomes a lead while pairs of degree 3 wait, and
# a completion that stops before building them misses x*z^2.
@example(([2, 3], [{(0, 2): 1}, {(3, 0): 1}, {(3, 0): 1, (0, 2): 1}, {(2, 1): 1}]))
@example(([1, 1, 1], [{(2, 0, 0): 1}, {(1, 1, 0): 1, (0, 0, 2): 1}, {(0, 3, 0): 1}, {(0, 0, 3): 1}]))
@example(([1, 1, 1], [{(2, 0, 0): 1, (0, 2, 0): 2}, {(2, 0, 0): 1}, {(1, 1, 0): 1},
                      {(2, 0, 1): 1}, {(0, 1, 1): 1, (0, 0, 2): 1}]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_completion_matches_outside_oracles(case):
    """Completion on random small ideals over Q against oracles that do not
    use its basis.  graded_component_dim(d) is the count of monomials of
    degree d less the rank of the degree-d Macaulay matrix (rows m * rel,
    Macaulay 1916), checked past the pure-power bound of its input powers
    plus w_max, where completion may stop; that needs no monomial order, so
    weights do not matter.  A weight-1 draw's basis is sympy's, and every
    basis is confluent."""
    weights, rels = case
    ring = PolyRing([Generator(f"x{i}", w) for i, w in enumerate(weights)])
    pres = RingPresentation(ring, [ring.element(r) for r in rels])
    degrees = [sum(map(mul, next(iter(r)), weights)) for r in rels]  # each relation is homogeneous
    _assert_confluent(pres)
    if set(weights) == {1}:
        try:
            import sympy
        except ImportError:
            pass
        else:
            _assert_sympy_basis(sympy, pres)
    powers = {m.index(max(m)): max(m) for r in rels if len(r) == 1 for m in r if sum(map(bool, m)) == 1}
    top = (sum((a - 1) * weights[i] for i, a in powers.items()) if len(powers) == len(weights)
           else max(degrees) + 2) + max(weights)
    for d in range(top + 1):
        rows = [{tuple(map(add, m, e)): c for e, c in r.items()}
                for r, dr in zip(rels, degrees) for m in _monomials(weights, d - dr)]
        assert pres.graded_component_dim(d) == len(_monomials(weights, d)) - _rank_over_q(rows), d


def _complete_counting_reductions(monkeypatch, ring, relations):
    """The presentation of relations, and the weighted degree of each item
    its completion reduces."""
    with monkeypatch.context() as m:
        degrees = _record(m, ring_module, "_reduce", lambda terms, *rest: max(terms, default=0) >> ring._top)
        return RingPresentation(ring, relations), degrees


@pytest.mark.parametrize("n,genus,calls", [
    (3, "symbolic", 20), (24, 9, 650), (30, "symbolic", 992), (40, "symbolic", 1722),
])
def test_completion_stops_where_the_quotient_vanishes(monkeypatch, n, genus, calls):
    """r2's quotient is 0 from degree 3 on.  Once delta^3 and each psi_i^2
    are leads, every queued S-pair reduces to 0, so completion reduces its
    inputs and autoreduces its basis and nothing more (40 and 5850 calls
    when every S-pair is reduced, 24,682 at n = 40), none of degree 4.
    Every S-pair has degree >= 3, and each element's pairs wait behind every
    input of degree 3, delta^3 among them, so none is built (22,960 at
    n = 40 when built at once)."""
    from chowforge.scenarios import scenario_R2

    rels = scenario_R2(n, genus).derived_relations
    pairs = _record(monkeypatch, heapq, "heappush", lambda heap, item: item[1] >= 0)
    pres, degrees = _complete_counting_reductions(monkeypatch, rels[0].ring, rels)
    assert len(degrees) == calls and max(degrees) == 3
    assert not any(pairs)
    assert [pres.graded_component_dim(d) for d in (2, 3)] == [1, 0]


def test_graded_dims_extend_the_levels_completion_built(monkeypatch):
    """Completing r2 at 3 points builds its standard monomials of degrees
    0..3 to stop, so the degree-2 and degree-3 queries build no level and
    degree 4 builds one."""
    from chowforge.scenarios import scenario_R2

    rels = scenario_R2(3).derived_relations
    pres = RingPresentation(rels[0].ring, rels)
    built = _record(monkeypatch, ring_module, "_standard_level")
    assert [pres.graded_component_dim(d) for d in (2, 3)] == [1, 0] and not built
    assert pres.graded_component_dim(4) == 0 and len(built) == 1


def test_completion_stop_needs_w_max_empty_degrees():
    """With weights, one empty degree does not make the quotient vanish
    above it: in x (1) and y (2), the leads y^2 and x leave degree 3 empty
    and degree 2 not.  In y (2) and z (3), once z^2 and y^3 are leads degree
    6 is empty, but degree 7 holds y^2*z: the third degree-6 input is still
    queued, so a one-degree check would stop before the input y^2*z."""
    ring = PolyRing([Generator("x"), Generator("y", 2)])
    x, y = ring.gen("x"), ring.gen("y")
    pres = RingPresentation(ring, [x, x * y, y**2])
    assert set(pres.groebner_basis) == {y**2, x}
    assert [pres.graded_component_dim(d) for d in range(6)] == [1, 0, 1, 0, 0, 0]
    ring = PolyRing([Generator("y", 2), Generator("z", 3)])
    y, z = ring.gen("y"), ring.gen("z")
    pres = RingPresentation(ring, [z**2, y**3, y**3 + z**2, y**2 * z])
    assert set(pres.groebner_basis) == {z**2, y**3, y**2 * z}
    assert [pres.graded_component_dim(d) for d in range(10)] == [1, 0, 1, 1, 1, 1, 0, 0, 0, 0]


def test_completion_stops_past_the_pure_power_bound(monkeypatch):
    """Leads x^2 and y^2 leave x*y standard, of degree (2 - 1) + (2 - 1) = 2,
    and every monomial of a higher degree has x^2 or y^2 as a factor.  So
    completion stops before x^3 + y^3 and builds no level to see it; it does
    not stop at degree 2, where x^2 + x*y adds the lead x*y."""
    ring = PolyRing([Generator("x"), Generator("y")])
    x, y = ring.gen("x"), ring.gen("y")
    pres = RingPresentation(ring, [y**2, x**2, x**2 + x * y])
    assert set(pres.groebner_basis) == {x**2, x * y, y**2}
    built = _record(monkeypatch, ring_module, "_standard_level")
    assert _complete_counting_reductions(monkeypatch, ring, [x**2, y**2, x**3 + y**3])[1] == [2, 2, 0, 0]
    assert not built


def test_completion_stop_check_builds_few_levels(monkeypatch):
    """The stop check builds a level only while its candidates number no
    more than the queued items.  x^8000, z^8000 and x^7999*z are queued at
    degree 8000: unbudgeted, the check would build 8000 levels of up to
    8000 monomials each.  Leads with no pure power of some generator build
    none, past the slot bound too."""
    built = _record(monkeypatch, ring_module, "_standard_level", lambda ring, levels, *rest: len(levels))
    ring = PolyRing([Generator("x"), Generator("z")])
    x, z = ring.gen("x"), ring.gen("z")
    assert len(RingPresentation(ring, [x**8000, z**8000, x**7999 * z]).groebner_basis) == 3
    assert len(built) <= 4, built
    built.clear()
    half = (1 << SLOT_BITS - 2) // 2
    RingPresentation(ring, [x ** (half - 1) * z, x * z ** (half - 1)])
    weighted = PolyRing([Generator("x"), Generator("y", 3)])
    RingPresentation(weighted, [weighted.gen("x") ** 3])
    assert not built


# sha256 of repr(groebner_basis).  A reduced Groebner basis is unique, so a
# change to how completion selects or prunes pairs leaves every digest as it is.
BASIS_DIGESTS = [
    ("i_g0", None, "symbolic", "3ba9577a7a740254d1a03eebbd2529ae8ff7329ed74125ebf00140a31b4ec96c"),
    ("i_g1", None, "symbolic", "edd8788185b4c98a668b0dff614c6bf7d9cad06bf5056841ab529cdaf9aabfea"),
    ("i_g1", None, 2, "d251fab2fc33dbb56de01780c3b03625f2505b3744a51d65bead2808b1893507"),
    ("i_g1", None, 3, "04a9d2fbdf4fd93266ff798005253428064eb27d60559658783f23f620030d21"),
    ("i_g1", None, 5, "28c991c0ab96eaa91c0b7a7d3e75a7591f0ef5b21d4fd749218c8fb1cb47cc76"),
] + [
    ("w_n", n, genus, digest)
    for n, digest in (
        (2, "ac7b5842d961dc8ff3ee36c96d949fa8ee11869118bbc28928018c47237b7275"),
        (3, "3c286e687ba847efad8b902a320ab39ec604d252c27b596b1747802ab0d143c2"),
        (5, "a549d28e106f0352fb555e90a0da86d66889011de4956c9b2ee69cb86fb2a6e5"),
    )
    for genus in ("symbolic", 2, 3, 5)  # the basis does not depend on the genus
] + [
    ("w_n", 8, "symbolic", "eb52779ac4802ef1a5df9f57358ea1d75a1e5f3ba60691d7a4e5fbcd33894478"),
    ("r2", 3, "symbolic", "3d5f839226f4a3fe88ebd712a2208654192cd30aa5ae6e16e5b2d050de0aaf03"),
    ("r2", 6, "symbolic", "fb10fb560dc35ffd4bc52ae50149f96a96f1817db8c79da9e41c3bf560fba057"),
    ("r2", 12, "symbolic", "976ac744f867b99ad17b2e475ea01692ea6473ac6a331a5a735efa1df4e3bb4c"),
    ("r2", 8, 2, "8729a6ca2ec0646655549c3c9ed3bd8fb79b1dd7a4c1711db2e20db515a13bf7"),
    ("r2", 10, 3, "538d9a1ecfe7dfade6ed43409a6bb733696fcc72911409a170f6362dff078bf3"),
    ("r2", 16, 5, "8e53f1ef4b526adec8514fdae1077993214c3666d8da3e16e9e8064de092432d"),
    ("r2", 2, 8, "370fac633be64c06244c2640ff012b088dc1177bc3b7a61f4b745eecaa27036d"),
]


@pytest.mark.parametrize("scenario,n,genus,digest", BASIS_DIGESTS)
def test_groebner_basis_digest(scenario, n, genus, digest):
    basis = _scenario_presentation(scenario, n, genus).groebner_basis
    assert hashlib.sha256(repr(basis).encode()).hexdigest() == digest


def test_completion_does_each_multiply_add_once(monkeypatch):
    """r2's relations are one pattern renamed over index pairs, so its
    reductions repeat a few coefficient multiply-adds; completion does each
    once.  From n = 6 to 12 the relations grow by 63, and the RatFunc
    products and sums of completion by at most two per relation, the monic
    scaling of each new element (without the memo they grow by 2752)."""
    counts = {}
    for n in (6, 12):
        pres = _scenario_presentation("r2", n, "symbolic")
        with monkeypatch.context() as m:
            products, sums = _record(m, RatFunc, "__mul__"), _record(m, RatFunc, "__add__")
            rebuilt = RingPresentation(pres.ring, pres.relations)
        assert rebuilt.groebner_basis == pres.groebner_basis
        counts[n] = len(products) + len(sums), len(pres.relations)
    (ops6, rels6), (ops12, rels12) = counts[6], counts[12]
    assert ops12 - ops6 <= 2 * (rels12 - rels6), counts


@pytest.mark.parametrize("scenario,n,genus", [
    ("ctx", None, None), ("i_g1", None, "symbolic"), ("w_n", 2, "symbolic"),
    ("r2", 2, "symbolic"),  # the c15 presentations
    ("i_g0 elimination", None, None),  # in (c1, c2), c2 of weight 2
] + [(s, n, "symbolic") for s in ("r2", "w_n") for n in range(3, 7)] + [("r2", 6, 2), ("w_n", 6, 2)])
def test_graded_dims_match_brute_force(scenario, n, genus):
    """graded_component_dim(d) counts the exponent tuples of weighted degree
    d that no leading exponent of groebner_basis divides, d = 0..4."""
    if scenario == "ctx":
        from chowforge.chern import standard_context

        pres = standard_context().presentation
    elif genus is None:
        pres = _needs_pairs_presentation(scenario)
    else:
        pres = _scenario_presentation(scenario, n, genus)
    weights = [gen.degree for gen in pres.ring.generators]
    leads = [f.leading_exponent() for f in pres.groebner_basis]
    for d in range(5):
        standard = [e for e in _monomials(weights, d)
                    if not any(all(x >= y for x, y in zip(e, lead)) for lead in leads)]
        assert pres.graded_component_dim(d) == len(standard), d
    assert pres.graded_component_dim(-1) == 0


def _random_element(rng, ring, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(ring.ngens))
        num = UniPoly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))])
        den = UniPoly([Fraction(rng.randint(1, 4)), Fraction(rng.randint(0, 2))])
        terms[exps] = terms.get(exps, RatFunc(0)) + RatFunc(num, den)
    return ring.element(terms)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_normal_form_idempotent_and_sound(case_seed):
    rng = random.Random(case_seed)
    ring, pres = pv_presentation() if case_seed % 2 else delta_presentation()
    e = _random_element(rng, ring)
    nf = pres.normal_form(e)
    assert pres.normal_form(nf) == nf
    # Soundness: e - nf(e) lies in the ideal.
    assert pres.is_zero(e - nf)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_normal_form_linear(case_seed):
    rng = random.Random(case_seed)
    ring, pres = pv_presentation()
    e1, e2 = _random_element(rng, ring), _random_element(rng, ring)
    a = RatFunc(UniPoly([Fraction(rng.randint(-3, 3))]))
    assert pres.normal_form(e1 + e2) == pres.normal_form(e1) + pres.normal_form(e2)
    assert pres.normal_form(e1.scale(a)) == pres.normal_form(e1).scale(a)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50, deadline=None)
def test_truncation_oracle(k, case_seed):
    """Q[x]/(x^k): the normal form must simply drop monomials of degree >= k."""
    rng = random.Random(case_seed)
    ring = PolyRing([Generator("x")])
    pres = RingPresentation(ring, [ring.gen("x") ** k])
    e = _random_element(rng, ring, max_exp=8)
    expected = ring.element({ex: c for ex, c in e.terms.items() if ex[0] < k})
    assert pres.normal_form(e) == expected


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_specialize_commutes_with_normal_form(g0, case_seed):
    rng = random.Random(case_seed)
    ring = PolyRing([Generator("z"), Generator("c1"), Generator("c2", 2)])
    z, c1, c2 = ring.gen("z"), ring.gen("c1"), ring.gen("c2")
    rel = z * z + (c1 * z).scale(2 * G + 1) + c2
    sym = RingPresentation(ring, [rel])
    num = RingPresentation(ring, [r.specialize(g0) for r in sym.relations])
    e = _random_element(rng, ring)
    try:
        e_num = e.specialize(g0)
        lhs = sym.normal_form(e).specialize(g0)
    except (ZeroDivisionError, PoleAtPoint):
        return
    assert lhs == num.normal_form(e_num)


# r2(40) is warm only: a cold case would complete it 300 times.
NF_TABLE_CASES = [(name, table) for name in ("ctx", "i_g1", "w_n", "r2", "r2(3) at g=2", "r2(3) at g=3",
                                             "i_g1 at g=2", "i_g1 at g=3")
                  for table in ("cold", "warm")] + [("r2(40)", "warm")]


def _nf_table_presentation(name):
    """The four c15 presentations, then r2 at 3 points and i_g1 at g = 2, 3,
    and the completion of r2's relations at 40 points (861 rules)."""
    from chowforge.chern import standard_context
    from chowforge.scenarios import scenario_I_g1, scenario_R2, scenario_Wn

    return {
        "ctx": lambda: standard_context().presentation,
        "i_g1": lambda: scenario_I_g1().final_presentation,
        "w_n": lambda: scenario_Wn(2).final_presentation,
        "r2": lambda: scenario_R2(2).final_presentation,
        "r2(3) at g=2": lambda: scenario_R2(3, 2).final_presentation,
        "r2(3) at g=3": lambda: scenario_R2(3, 3).final_presentation,
        "i_g1 at g=2": lambda: scenario_I_g1(2).final_presentation,
        "i_g1 at g=3": lambda: scenario_I_g1(3).final_presentation,
        "r2(40)": lambda: _scenario_presentation("r2", 40, "symbolic"),
    }[name]()


# Coefficient denominators: sums over g+2 and g+3 meet a common factor or none.
NF_TABLE_DENOMINATORS = [UniPoly([1]), UniPoly([2, 1]), UniPoly([3, 1]),
                         UniPoly([6, 5, 1]), UniPoly([4, 4, 1])]


def _element_over_g_plus_2_and_3(rng, ring, degree=None):
    """Up to 8 terms, each monomial with exponents 0..3, or given degree, a
    product of up to that many generators."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        if degree is None:
            exps = tuple(rng.randint(0, 3) for _ in range(ring.ngens))
        else:
            exps = [0] * ring.ngens
            for i in rng.choices(range(ring.ngens), k=rng.randint(0, degree)):
                exps[i] += 1
            exps = tuple(exps)
        num = UniPoly([rng.randint(-5, 5), rng.randint(-2, 2), rng.randint(-1, 1)])
        terms[exps] = RatFunc(num, rng.choice(NF_TABLE_DENOMINATORS))
    return ring.element(terms)


def _whole_reduction(pres, e, reduce=ring_module._reduce):
    """The normal form as completion reduces: the whole packed element at
    once, its coefficients carried along every rewrite.  reduce is bound
    here, so a test that wraps ring._reduce does not count these calls."""
    ring = pres.ring
    packed = {ring.pack(x): c for x, c in e.terms.items()}
    done = reduce(packed, pres._reducers, ring._guard, {})
    return ring.element({ring.unpack(m): c for m, c in done.items()})


@pytest.mark.parametrize("name,table", NF_TABLE_CASES)
def test_normal_form_matches_whole_element_reduction(monkeypatch, name, table):
    """normal_form sums c * NF(m) over the table of monomial normal forms;
    reducing the whole element is an independent path to the same form.
    A cold case queries a fresh presentation for each element; a warm one
    queries one presentation whose table 300 other elements have filled,
    then queries its elements again: each is a table hit, which reduces
    nothing and leaves the table as it was.  r2(40)'s elements have degree
    <= 3, where its quotient lives; most of their monomials miss the table
    and scan the 861 rules."""
    pres = _nf_table_presentation(name)
    ring = pres.ring
    rng = random.Random(f"nf-table:{name}")
    degree = 3 if name == "r2(40)" else None
    if table == "warm":
        for _ in range(300):
            pres.normal_form(_element_over_g_plus_2_and_3(rng, ring, degree))
        assert pres._nf
    forms = []
    for _ in range(300):
        e = _element_over_g_plus_2_and_3(rng, ring, degree)
        queried = RingPresentation(ring, pres.relations) if table == "cold" else pres
        forms.append((e, queried.normal_form(e)))
        assert forms[-1][1] == _whole_reduction(pres, e)
    if table == "warm":
        size, reduced = len(pres._nf), _record(monkeypatch, ring_module, "_reduce")
        assert all(pres.normal_form(e) == form for e, form in forms)
        assert not reduced and len(pres._nf) == size


def test_normal_form_reduces_each_monomial_once(monkeypatch):
    """normal_form calls _reduce once per monomial it has not seen, with
    coefficient 1, and multiplies no coefficient of a standard monomial."""
    ring, pres = pv_presentation()  # z^2 -> -c1*z - c2
    z, c1, c2 = ring.gen("z"), ring.gen("c1"), ring.gen("c2")
    calls = _record(monkeypatch, ring_module, "_reduce", lambda terms, *rest: dict(terms))
    products = _record(monkeypatch, RatFunc, "__mul__")
    a = RatFunc(UniPoly([1, 1]), UniPoly([2, 1]))  # (g+1)/(g+2)
    b = RatFunc(UniPoly([5]), UniPoly([3, 1]))  # 5/(g+3)

    assert pres.normal_form(ring.zero()).is_zero
    assert not calls and not pres._nf

    e = (z * z * c1).scale(a) + c2.scale(b)
    nf = pres.normal_form(e)
    assert calls == [{ring.pack(x): RatFunc(1)} for x in e.terms]
    assert nf == _whole_reduction(pres, e)

    standard = c2.scale(b)
    calls.clear()
    products.clear()
    assert pres.normal_form(standard) == standard
    assert not calls and not products  # c2 is standard: its coefficient passes through

    seen = (z * z * c1).scale(b) - c2.scale(a)
    assert pres.normal_form(seen) == _whole_reduction(pres, seen)
    assert not calls

    one_new = seen + (z * c1 * c1).scale(a)
    assert pres.normal_form(one_new) == _whole_reduction(pres, one_new)
    assert calls == [{ring.pack((1, 2, 0)): RatFunc(1)}]

    # The same generator names in another order: the element imports, then reduces.
    other = PolyRing([Generator("c2", 2), Generator("z"), Generator("c1")])
    foreign = (other.gen("z") ** 3).scale(b) + other.gen("c1").scale(a)
    native = ring.import_element(foreign)
    calls.clear()
    imported = pres.normal_form(foreign)
    assert imported.ring is ring
    assert imported == _whole_reduction(pres, native)
    assert calls == [{ring.pack(x): RatFunc(1)} for x in native.terms]
    with pytest.raises(UnknownGenerator):
        pres.normal_form(PolyRing([Generator("w")]).gen("w"))

    queried = [e, standard, seen, one_new, native]
    assert set(pres._nf) == {x for q in queried for x in q.terms}


def test_normal_form_table_hit_packs_and_copies_nothing(monkeypatch):
    """Once its monomials are in normal_form's table, a query packs none of
    them.  An element of the presentation's ring imports as itself, and one
    of an equal but distinct ring is re-homed with equal terms."""
    ring, pres = pv_presentation()  # z^2 -> -c1*z - c2
    z, c1, c2 = ring.gen("z"), ring.gen("c1"), ring.gen("c2")
    a = RatFunc(UniPoly([1, 1]), UniPoly([2, 1]))  # (g+1)/(g+2)
    pres.normal_form((z * z * c1).scale(a) + z * c1 - c2)  # fills the table
    hit = (z * c1).scale(a) - z * z * c1 + c2.scale(3)
    expected = _whole_reduction(pres, hit)
    twin = PolyRing(ring.generators)
    assert twin == ring and twin is not ring
    foreign = twin.element(hit.terms)
    packs = _record(monkeypatch, PolyRing, "pack")
    assert pres.normal_form(hit) == expected
    assert pres.normal_form(foreign) == expected
    assert not packs

    assert ring.import_element(hit) is hit
    rehomed = ring.import_element(foreign)
    assert rehomed.ring is ring and rehomed.terms == foreign.terms
