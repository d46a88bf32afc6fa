"""Jet-bundle Chern classes and P^1-bundle pushforwards."""

import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowforge.chern import (
    JetSpec,
    NotReduced,
    ProjBundleCtx,
    jet_line_factors,
    jet_top_chern,
    pushforward_p1,
    section_pullbacks,
    standard_context,
    two_factor_context,
)
from chowforge.rationals import RatFunc, UniPoly
from chowforge.ring import RingPresentation

G = UniPoly.g()


def test_relative_cotangent_standard():
    ctx = standard_context()
    z, c1 = ctx.ring.gen("z"), ctx.ring.gen("c1")
    assert ctx.cotangent == -2 * z - c1
    # The class is g-free: specialization leaves it unchanged.
    assert ctx.cotangent.specialize(3) == ctx.cotangent


def test_jet_top_chern_order_zero():
    """At order 0 the jet bundle is the twist O(d) itself."""
    ctx = standard_context()
    z = ctx.ring.gen("z")
    assert jet_top_chern(JetSpec(2 * G + 2, 0), ctx) == z.scale(2 * G + 2)
    with pytest.raises(ValueError, match="jet order must be >= 0"):
        JetSpec(2 * G + 2, -1)


def test_jet_top_chern_order_one():
    ctx = standard_context()
    z, c1, c2 = ctx.ring.gen("z"), ctx.ring.gen("c1"), ctx.ring.gen("c2")
    expected = (c1 * z).scale(-4 * G**2 - 6 * G - 2) + c2.scale(-4 * G**2 - 4 * G)
    assert jet_top_chern(JetSpec(2 * G + 2, 1), ctx) == expected


def test_jet_top_chern_trivial_twist():
    ctx = standard_context()
    assert jet_top_chern(JetSpec(UniPoly.const(0), 0), ctx).is_zero


def test_jet_line_factors_unreduced_shapes():
    ctx = standard_context()
    z, c1 = ctx.ring.gen("z"), ctx.ring.gen("c1")
    factors = jet_line_factors(JetSpec(2 * G + 2, 2), ctx)
    assert factors[0] == z.scale(2 * G + 2)
    assert factors[1] == z.scale(2 * G) - c1
    assert factors[2] == z.scale(2 * G - 2) - 2 * c1


def test_pushforward_pinned_identities():
    ctx = standard_context()
    z, c1, c2 = ctx.ring.gen("z"), ctx.ring.gen("c1"), ctx.ring.gen("c2")
    c3 = jet_top_chern(JetSpec(2 * G + 2, 2), ctx)
    firstp = pushforward_p1(c3, ctx)
    assert firstp == (c1 * c1).scale(8 * G**3 + 12 * G**2 + 4 * G) + c2.scale(
        -8 * G**3 + 8 * G
    )
    secondp = pushforward_p1(ctx.presentation.normal_form(c3 * z), ctx)
    assert secondp == (c1**3).scale(-8 * G**3 - 12 * G**2 - 4 * G) + (c1 * c2).scale(
        16 * G**3 + 12 * G**2 - 8 * G - 4
    )


def test_pushforward_unit_and_fiber():
    ctx = standard_context()
    assert pushforward_p1(ctx.ring.one(), ctx).is_zero
    assert pushforward_p1(ctx.fiber(), ctx) == ctx.ring.one()


def test_pushforward_rejects_unreduced_fiber_power():
    # A context with no relations cannot reduce z^2 away.
    ctx0 = standard_context()
    free = RingPresentation(ctx0.ring, [])
    ctx = ProjBundleCtx(free, "z", ctx0.cotangent)
    with pytest.raises(NotReduced):
        pushforward_p1(ctx.fiber() ** 2, ctx)


def test_section_pullback_rules():
    horizontal, vertical = two_factor_context()
    ring = horizontal.ring
    rules = section_pullbacks(horizontal, vertical)
    assert rules["z"] == -ring.gen("c1")
    assert rules["w"] == -ring.gen("d1")

    def pull_back(e):
        return e.substitute(rules, target=ring)

    e = ring.gen("z").scale(G + 1) + ring.gen("w").scale(UniPoly.const(2))
    assert pull_back(e) == -ring.gen("c1").scale(G + 1) - ring.gen("d1").scale(
        UniPoly.const(2)
    )
    base_only = ring.gen("c1") * ring.gen("d1")
    assert pull_back(base_only) == base_only
    assert pull_back(ring.gen("z") * ring.gen("w")) == base_only


def test_two_factor_cotangents():
    horizontal, vertical = two_factor_context()
    assert horizontal.presentation is vertical.presentation
    assert horizontal.cotangent == -2 * horizontal.ring.gen("z")
    assert vertical.cotangent == -2 * vertical.ring.gen("w")


def test_whitney_order_one():
    """For a rank-2 filtered bundle, the top Chern class is L0*L1."""
    ctx = standard_context()
    spec = JetSpec(2 * G + 2, 1)
    f0, f1 = jet_line_factors(spec, ctx)
    assert jet_top_chern(spec, ctx) == ctx.presentation.normal_form(f0 * f1)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_projection_formula(case_seed):
    rng = random.Random(case_seed)
    ctx = standard_context()
    ring, pres = ctx.ring, ctx.presentation
    zi = ring.index("z")

    def random_elem(allow_fiber):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [rng.randint(0, 2) for _ in range(ring.ngens)]
            if not allow_fiber:
                exps[zi] = 0
            coeff = RatFunc(UniPoly([rng.randint(-4, 4), rng.randint(-2, 2)]))
            if not coeff.is_zero:
                terms[tuple(exps)] = coeff
        return ring.element(terms)

    x = random_elem(allow_fiber=False)  # pulled back from the base
    e = random_elem(allow_fiber=True)
    lhs = pres.normal_form(pushforward_p1(pres.normal_form(x * e), ctx))
    rhs = pres.normal_form(x * pushforward_p1(e, ctx))
    assert lhs == rhs


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_filtration_order_invariance(order, d0, d1, rng):
    ctx = standard_context()
    spec = JetSpec(UniPoly([d0, d1]), order)
    factors = jet_line_factors(spec, ctx)
    shuffled = list(factors)
    rng.shuffle(shuffled)
    prod = ctx.ring.one()
    for f in shuffled:
        prod = prod * f
    assert ctx.presentation.normal_form(prod) == jet_top_chern(spec, ctx)


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=-4, max_value=4))
@settings(max_examples=40, deadline=None)
def test_top_chern_degree_bookkeeping(order, d0):
    ctx = standard_context()
    top = jet_top_chern(JetSpec(UniPoly.const(d0) + G, order), ctx)
    if not top.is_zero:
        weights = [gen.degree for gen in top.ring.generators]
        assert {sum(map(mul, e, weights)) for e in top.terms} == {order + 1}
