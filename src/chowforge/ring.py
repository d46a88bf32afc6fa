"""Sparse multivariate polynomials over RatFunc in named graded generators,
quotient-ring presentations with a Buchberger normal-form engine, and graded
component dimension queries.

Monomial order: graded-reverse-lexicographic, weighted by generator degrees,
over the declared generator order.  Presentations compute their basis eagerly
and are immutable afterwards; all queries are pure (normal_form keeps a table
of the monomial normal forms it has computed, which no query can observe).

Completion and reduction run on packed monomials (Monagan and Pearce 2007):
x^e in n generators is one int of 2n SLOT_BITS-bit slots.  The high slots
hold (wdeg, wdeg - e_n, wdeg - e_n - e_(n-1), ..., wdeg - e_n - ... - e_2),
so int order is weighted grevlex and a product is a sum; the low ones hold
e_1 ... e_n under zero guard bits G, so a | b iff ((b | G) - a) & G == G.
Tuples appear only in relations, groebner_basis and normal_form's input,
output and table keys.  No slot overflows: every slot is at most the
weighted degree; every packed value comes from PolyRing.pack (inputs, and
each S-pair's lcm), which raises MonomialOverflow once a weighted degree
reaches 2^(SLOT_BITS - 2), a spare bit below G; reduction never raises it.

A basis element is stored as a rewrite rule lead -> tail: the monic element
is x^lead - sum(tail), so a reduction step adds coeff * x^shift * tail and
never negates.  groebner_basis spells each rule out as the monic element.
Relations are weighted-homogeneous, so completion builds a degree's S-pairs
only when it reaches that degree, and stops where the quotient vanishes (see
_buchberger).
"""

from __future__ import annotations

import heapq
from operator import itemgetter, mul
from fractions import Fraction

from .rationals import RatFunc, _coerce_ratfunc, power, ratfunc_str


class UnknownGenerator(KeyError):
    """Raised when an element mentions a generator a ring does not declare."""


class NonterminatingHint(RuntimeError):
    """Raised when basis completion adds over MAX_BASIS elements to its input."""


class InhomogeneousRelations(ValueError):
    """Raised when a presentation's relation has terms of two weighted degrees."""


class MonomialOverflow(OverflowError):
    """Raised when a monomial's weighted degree does not fit a packed slot."""


MAX_BASIS = 200  # elements completion may add to its input; past that it looks pathological
SLOT_BITS = 16  # width of one slot of a packed monomial
_UNIT = RatFunc(1)  # the coefficient normal_form reduces a monomial with


# Records are plain classes: generating their methods at import added ~13 ms to each CLI run.
class Generator:
    """A named ring generator with a positive Chow grading."""

    __slots__ = ("name", "degree")

    def __init__(self, name: str, degree: int = 1):
        if degree < 1:
            raise ValueError("generator degree must be >= 1")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, name, value):
        raise AttributeError("Generator is immutable")

    def __eq__(self, other):
        return (isinstance(other, Generator)
                and (self.name, self.degree) == (other.name, other.degree))

    def __hash__(self):
        return hash((self.name, self.degree))


def _coerce_coeff(c) -> RatFunc:
    if (out := _coerce_ratfunc(c)) is not None:
        return out
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class PolyRing:
    """Free polynomial ring over RatFunc on an ordered list of generators."""

    __slots__ = ("generators", "_index", "_weights", "_units", "_top", "_guard")

    def __init__(self, generators):
        gens = tuple(generators)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_index", {g.name: i for i, g in enumerate(gens)})
        object.__setattr__(self, "_weights", tuple(g.degree for g in gens))
        n = len(gens)
        one = [1 << SLOT_BITS * t for t in range(2 * n)]  # the low bit of each slot, low to high
        # Generator i: its weight in each order slot, less 1 in the i slots
        # that subtract e_n ... e_(n-i+1), and 1 in the slot of e_(i+1).
        units = tuple(w * sum(one[n:]) - sum(one[n : n + i]) + one[n - 1 - i]
                      for i, w in enumerate(self._weights))
        object.__setattr__(self, "_units", units)
        object.__setattr__(self, "_top", SLOT_BITS * max(2 * n - 1, 0))
        object.__setattr__(self, "_guard", sum(one[:n]) << SLOT_BITS - 1)

    def __setattr__(self, name, value):
        raise AttributeError("PolyRing is immutable")

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGenerator(name) from None

    # -- element constructors ----------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def one(self) -> "RingElement":
        return self.const(1)

    def const(self, c) -> "RingElement":
        c = _coerce_coeff(c)
        if c.is_zero:
            return self.zero()
        return RingElement(self, {(0,) * self.ngens: c})

    def gen(self, name: str) -> "RingElement":
        i = self.index(name)
        exps = [0] * self.ngens
        exps[i] = 1
        return RingElement(self, {tuple(exps): RatFunc(1)})

    def element(self, terms: dict) -> "RingElement":
        """Build from {exponent tuple: coefficient}; zero coefficients dropped."""
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != self.ngens:
                raise ValueError("exponent tuple length mismatch")
            if not all(isinstance(x, int) and x >= 0 for x in exps):
                raise ValueError(f"exponents must be nonnegative ints, got {exps}")
            c = _coerce_coeff(c)
            if not c.is_zero:
                clean[exps] = c
        return RingElement(self, clean)

    def pack(self, exps) -> int:
        """The monomial with exponents exps as one int (module docstring): the
        sum of packed generators, as every slot is linear in the exponents."""
        m = sum(map(mul, exps, self._units))
        if m >> self._top >= 1 << SLOT_BITS - 2:  # below the bound, no slot carried
            raise MonomialOverflow(f"a weighted degree reached 2^{SLOT_BITS - 2}")
        return m

    def unpack(self, m: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        mask = (1 << SLOT_BITS) - 1
        return tuple(m >> SLOT_BITS * k & mask for k in range(self.ngens - 1, -1, -1))

    def import_element(self, e: "RingElement") -> "RingElement":
        """Re-express an element of a name-compatible ring in this ring."""
        if e.ring is self:
            return e  # elements are immutable
        if e.ring == self:
            return RingElement(self, e.terms)
        src = e.ring
        terms = {}
        for exps, c in e.terms.items():
            new = [0] * self.ngens
            for g, ex in zip(src.generators, exps):
                if ex:
                    j = self.index(g.name)
                    if self.generators[j].degree != g.degree:
                        raise UnknownGenerator(f"{g.name}: degree mismatch")
                    new[j] = ex
            terms[tuple(new)] = c
        return RingElement(self, terms)


class RingElement:
    """Sparse polynomial: map from exponent tuples to nonzero RatFunc
    coefficients; mixed-degree elements are allowed."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", dict(terms))

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps) -> RatFunc:
        return self.terms.get(tuple(exps), RatFunc(0))

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            return self.ring.import_element(other)
        if isinstance(other, (int, Fraction, RatFunc)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
            elif (s := s + c).is_zero:
                del terms[e]
            else:
                terms[e] = s
        return RingElement(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e)
                if s is None:
                    terms[e] = c1 * c2
                elif (s := s + c1 * c2).is_zero:
                    del terms[e]
                else:
                    terms[e] = s
        return RingElement(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, self.ring.one())

    def scale(self, c) -> "RingElement":
        c = _coerce_coeff(c)
        if c.is_zero:
            return self.ring.zero()
        return RingElement(self.ring, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        # A constant hashes as its coefficient, as it compares equal to it;
        # other elements by generator names, as they equal their imports.
        if not self.terms:
            return 0
        if len(self.terms) == 1 and not any(next(iter(self.terms))):
            return hash(next(iter(self.terms.values())))
        gens = self.ring.generators
        return hash(frozenset((frozenset((g.name, x) for g, x in zip(gens, exps) if x), c)
                              for exps, c in self.terms.items()))

    # -- structural operations ------------------------------------------------

    def substitute(self, mapping: dict, target: PolyRing) -> "RingElement":
        """Replace generators by elements of the target ring; unmapped
        generators must exist in the target ring under the same name."""
        acc = target.zero()
        for exps, c in self.terms.items():
            term = target.const(c)
            for i, ex in enumerate(exps):
                if ex == 0:
                    continue
                name = self.ring.generators[i].name
                if name in mapping:
                    rep = mapping[name]
                    if rep.ring is not target and rep.ring != target:
                        rep = target.import_element(rep)
                else:
                    rep = target.gen(name)
                term = term * rep**ex
            acc = acc + term
        return acc

    def specialize(self, g0) -> "RingElement":
        """Evaluate every coefficient at a concrete genus (exact)."""
        terms = {}
        for e, c in self.terms.items():
            v = c(g0)
            if v != 0:
                terms[e] = RatFunc(v)
        return RingElement(self.ring, terms)

    def leading_exponent(self):
        if self.is_zero:
            raise ValueError("zero element has no leading term")
        return max(self.terms, key=self.ring.pack)

    def monic(self) -> "RingElement":
        return self.scale(self.terms[self.leading_exponent()].invert())

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        return element_str(self)

    def __repr__(self):
        return f"RingElement({element_str(self)})"


def element_str(e: RingElement) -> str:
    """Canonical serialization, e.g. "(8*g^3+12*g^2+4*g)*c1^2+(-8*g^3+8*g)*c2".

    Terms in descending monomial order; coefficients involving g or a
    denominator are parenthesized; bare rational constants are inlined.
    """
    if e.is_zero:
        return "0"
    ring = e.ring
    parts = []
    for exps in sorted(e.terms, key=ring.pack, reverse=True):
        c = e.terms[exps]
        mono = "*".join(
            g.name if ex == 1 else f"{g.name}^{ex}"
            for g, ex in zip(ring.generators, exps)
            if ex > 0
        )
        s, bare = ratfunc_str(c), len(c.d) == 1 and len(c.n) <= 1
        if not mono:
            term = s if bare else f"({s})"
        elif bare and s == "1":
            term = mono
        elif bare and s == "-1":
            term = f"-{mono}"
        elif bare:
            term = f"{s}*{mono}"
        else:
            term = f"({s})*{mono}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += term if term.startswith("-") else "+" + term
    return out


def _monic(terms: dict) -> tuple:
    """A nonzero packed term dict as the rewrite rule (lead, tail) of its
    monic multiple x^lead - sum(tail); the tail is a tuple of (packed
    monomial, coefficient) pairs, the negated monic tail."""
    lead = max(terms)
    inv = -terms[lead].invert()
    return lead, tuple((e, inv * c) for e, c in terms.items() if e != lead)


def _subtract(work: dict, shift: int, tail, coeff: RatFunc, memo: dict) -> None:
    """work -= coeff * x^shift * (x^lead - sum(tail)) once the term
    coeff * x^(shift + lead) is popped: work += coeff * x^shift * tail,
    on packed monomials.

    memo maps the operands of a multiply-add w + coeff * c, or of coeff * c
    for a new term, to its result.  A key holds each RatFunc's two integer
    coefficient tuples: their form is canonical, so equal keys mean equal
    operands and a hit is the value the arithmetic would give.  r2's
    relations are one pattern renamed over index pairs, so its reductions
    repeat the same few."""
    ck = coeff.n, coeff.d
    for e, c in tail:
        e += shift
        w = work.get(e)
        key = (ck, c.n, c.d) if w is None else (ck, c.n, c.d, w.n, w.d)
        t = memo.get(key)
        if t is None:
            t = memo[key] = coeff * c if w is None else w + coeff * c
        if t.is_zero:
            del work[e]
        else:
            work[e] = t


def _reduce(terms: dict, reducers, guard: int, memo: dict) -> dict:
    """Full normal form of a packed term dict modulo rewrite rules (lead,
    tail), each x^lead -> sum(tail); guard holds the guard bits of the
    ring's exponent slots, and memo is _subtract's."""
    done: dict = {}
    work = dict(terms)
    while work:
        m = max(work)
        coeff = work.pop(m)
        mg = m | guard
        for lead, tail in reducers:
            if (mg - lead) & guard == guard:
                _subtract(work, m - lead, tail, coeff, memo)
                break
        else:
            done[m] = coeff
    return done


def _standard_level(ring: PolyRing, levels: list, leads: set, budget=float("inf")):
    """The standard monomials of weighted degree len(levels) > 0 under leads,
    given those below in levels, or None past budget candidates: m is standard
    iff it is no lead and each m / x_i is (a lead properly dividing m divides one)."""
    k, guard = len(levels), ring._guard
    below = [(unit, levels[k - w]) for w, unit in zip(ring._weights, ring._units) if w <= k]
    candidates = {m + unit for unit, ms in below for m in ms} - leads
    if len(candidates) > budget:
        return None
    return {m for m in candidates
            if all(m - unit in ms for unit, ms in below if ((m | guard) - unit) & guard == guard)}


def _buchberger(ring: PolyRing, relations: list[dict]) -> tuple[list, list]:
    """The reduced Groebner basis of homogeneous packed term dicts, as rewrite
    rules (lead, tail) in descending order of leading monomial, and the standard
    monomials of degrees 0, 1, ... as far as the stop check built them.

    Normal selection strategy (Giovini et al. 1991): a heap hands out the
    pair of smallest lcm first, and each input as a pair keyed by its
    leading monomial; as int order is weighted grevlex, completion goes
    degree by degree.  Each popped input or S-polynomial is reduced by the
    basis; a nonzero remainder becomes a new element.  Its lead has at least
    the degree of every older lead, so dividing one would make them equal,
    which reduction rules out: no element is ever superseded, and the basis
    may exceed the input count by at most MAX_BASIS.

    A new element k is paired with each older element once, and two deletion
    criteria of Gebauer and Moeller (1988) prune its pairs: criterion F keeps
    one pair per lcm, and the product criterion drops every pair of an lcm
    some pair of coprime leading monomials has.  Their criteria B and M are
    left out: on every presentation the scenarios build they prune no pair,
    and a criterion left out only adds pairs to reduce.  No older lead
    divides lk, so k's pairs have degree > dk = deg(lk) and wait: k joins the
    heap as one entry keyed above each monomial of degree dk + 1 and below
    those of degree dk + 2, and its pairs are built when that entry pops.

    Completion stops once the quotient vanishes from the heap's least degree
    d on (Traverso 1996): each queued item, built or not, then reduces to 0.
    It does if degrees d, ..., d + w_max - 1 hold no standard monomial (w_max
    the largest weight), as dropping factors one at a time brings a monomial
    of degree >= d into that window; with weights 1, 2 and leads x, y^3,
    degree 3 alone is empty.  It is checked once per change of d or of the
    basis, once each x_i has a lead x_i^a_i (else every window holds a
    power): past degree sum((a_i - 1) * w_i) at once, else on the standard
    monomials kept by degree (_standard_level; a new lead of degree k leaves
    level k and drops those above), building a level only while its
    candidates do not outnumber the heap's entries."""
    guard, minus_one, pack, top = ring._guard, RatFunc(-1), ring.pack, ring._top
    memo: dict = {}  # _subtract's, for this run
    low = guard >> SLOT_BITS - 1  # the lowest bit of each exponent slot
    inputs = [r for r in relations if r]
    n = len(inputs)
    heap = [(max(r), -1, r_index) for r_index, r in enumerate(inputs)]  # -1: an input, -2: an element's entry
    heapq.heapify(heap)
    basis, exps = [], []  # rules (lead, tail), oldest first, and each lead's exponent tuple
    powers, levels, seen = {}, [{0}], None  # powers: the degree of a pure-power lead by its exponent slot
    while heap:
        if len(powers) == ring.ngens and (d := heap[0][0] >> top, len(basis)) != seen:
            seen, w_max = (d, len(basis)), max(ring._weights, default=1)
            if d > sum(powers.values()) - sum(ring._weights):
                break  # each monomial of degree d has a pure-power lead x_i^a_i as a factor
            leads = {lead for lead, _ in basis}
            while len(levels) < d + w_max and not any(levels[d:]) and (
                    level := _standard_level(ring, levels, leads, len(heap))) is not None:
                levels.append(level)
            if len(levels) >= d + w_max and not any(levels[d : d + w_max]):
                break  # every queued item reduces to 0
        lcm, i, j = heapq.heappop(heap)
        if i == -2:  # element j's entry
            lj = basis[j][0]
            ljg = ((lj | guard) - low) & guard  # the guard bit of each exponent slot nonzero in lj
            # j's pairs by ascending lcm, of one lcm coprime leads first.  Of
            # coprime leads the lcm is the product, never reduced, only compared;
            # its slots stay below 2^(SLOT_BITS - 1), so none carries.
            new = sorted((pack(map(max, exps[i2], exps[j])), True, i2)
                         if ((basis[i2][0] | guard) - low) & ljg
                         else (basis[i2][0] + lj, False, i2) for i2 in range(j))
            for pos, (m, shares, i2) in enumerate(new):
                # Criterion F: the first pair of an lcm speaks for all; it is
                # dropped by the product criterion when its leads are coprime.
                if shares and not (pos and new[pos - 1][0] == m):
                    heapq.heappush(heap, (m, i2, j))
            continue
        if i < 0:
            s = inputs[j]
        else:
            # The negated S-polynomial: x^(lcm-li) * ti - x^(lcm-lj) * tj.
            (li, ti), (lj, tj) = basis[i], basis[j]
            s = {lcm - li + e: c for e, c in ti}
            _subtract(s, lcm - lj, tj, minus_one, memo)
        s = _reduce(s, basis, guard, memo)
        if not s:
            continue
        k = len(basis)
        basis.append(_monic(s))
        lk = basis[k][0]
        exps.append(ring.unpack(lk))
        if (dk := lk >> top) < len(levels):
            levels[dk].discard(lk)
            del levels[dk + 1 :]
        lkg = ((lk | guard) - low) & guard  # the guard bit of each exponent slot nonzero in lk
        if lkg and not lkg & lkg - 1:
            powers.setdefault(lkg, dk)  # lk is a pure power
        heapq.heappush(heap, ((dk + 2 << top) - 1, -2, k))  # top slot dk + 1, each lower bit set
        if len(basis) - n > MAX_BASIS:
            raise NonterminatingHint(
                f"completion grew past its {n} relations by over {MAX_BASIS} live elements")
    # Autoreduce each tail by all rules: a rule's own lead divides no monomial
    # below it, and reduction only lowers monomials, so it never fires.
    final = [(lead, tuple(_reduce(dict(t), basis, guard, memo).items())) for lead, t in basis]
    return sorted(final, key=itemgetter(0), reverse=True), levels


class RingPresentation:
    """Quotient-ring description: generators, relations, reduced basis.

    Each relation is weighted-homogeneous, as the Chow grading makes every
    relation the scenarios build; one with terms of two weighted degrees
    raises InhomogeneousRelations before any completion.  The basis is
    computed eagerly; normal forms are unique (confluence is certified by
    S-polynomial reduction during completion and re-checked by the test
    suite).
    """

    __slots__ = ("ring", "relations", "_reducers", "_levels", "_nf")

    def __init__(self, ring: PolyRing, relations):
        rels = [ring.import_element(r) for r in relations]
        packed = [{ring.pack(e): c for e, c in r.terms.items()} for r in rels]
        for r, p in zip(rels, packed):
            if len({m >> ring._top for m in p}) > 1:  # two weighted degrees (a packed monomial's top slot)
                raise InhomogeneousRelations(str(r))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "relations", tuple(rels))
        reducers, levels = _buchberger(ring, packed)
        object.__setattr__(self, "_reducers", reducers)
        object.__setattr__(self, "_levels", levels)  # graded_component_dim's
        object.__setattr__(self, "_nf", {})  # normal_form's table

    def __setattr__(self, name, value):
        raise AttributeError("RingPresentation is immutable")

    @property
    def groebner_basis(self) -> tuple:
        """The reduced basis, each rewrite rule spelled out as its monic element."""
        unpack = self.ring.unpack
        return tuple(RingElement(self.ring, {unpack(lead): _UNIT, **{unpack(m): -c for m, c in tail}})
                     for lead, tail in self._reducers)

    def normal_form(self, e: RingElement) -> RingElement:
        """The reduced representative of e modulo the relations.

        The normal form is Q(g)-linear, NF(sum c*m) = sum c*NF(m), and the
        presentation is immutable, so each monomial is reduced once, with
        coefficient 1 and a fresh memo, and its normal form's terms kept in a
        table keyed by its exponent tuple (a miss packs it).  A query then
        multiplies c into the terms of each NF(m), and keeps c itself where
        NF(m) is m; the table holds one entry per distinct monomial queried."""
        ring, table = self.ring, self._nf
        out: dict = {}
        for x, c in ring.import_element(e).terms.items():
            nf = table.get(x)
            if nf is None:
                done = _reduce({ring.pack(x): _UNIT}, self._reducers, ring._guard, {})
                nf = table[x] = tuple((ring.unpack(k), v) for k, v in done.items())
            for y, v in nf:
                t = c if v is _UNIT else c * v
                s = out.get(y)
                if s is None:
                    out[y] = t
                elif (s := s + t).is_zero:
                    del out[y]
                else:
                    out[y] = s
        return RingElement(ring, out)

    def is_zero(self, e: RingElement) -> bool:
        return self.normal_form(e).is_zero

    def graded_component_dim(self, d: int) -> int:
        """Dimension over the coefficient field of the degree-d component:
        the count of standard monomials of weighted degree d, built degree
        by degree (_standard_level) on the levels completion left."""
        if d < 0:
            return 0
        if d >= 1 << SLOT_BITS - 2:
            raise MonomialOverflow(f"a weighted degree reached 2^{SLOT_BITS - 2}")
        levels, leads = self._levels, {lead for lead, _ in self._reducers}
        while len(levels) <= d:
            levels.append(_standard_level(self.ring, levels, leads))
        return len(levels[d])
