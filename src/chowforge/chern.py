"""Chern-class operations on rank-2 projective-bundle contexts: relative
cotangent classes, principal-parts (jet) bundle Chern classes via the
filtration of a jet bundle by line bundles, and pushforward along a P^1
factor in the subspace convention.

Conventions (validated by the test suite against the pinned pushforward
identities): the fiber class z satisfies z^2 = -c1*z - c2, pi_*(z) = 1,
pi_*(1) = 0, so pushforward extracts the z-linear coefficient of a reduced
element.
"""

from __future__ import annotations

from .rationals import UniPoly
from .ring import Generator, PolyRing, RingElement, RingPresentation


class NotReduced(ValueError):
    """Raised when a pushforward input still has fiber exponent > 1."""


class JetSpec:
    """A principal-parts bundle P^e of a twist O(d) along the fiber.

    twist_degree is the fiber degree d as a polynomial in g (e.g. 2g+2 or
    g+1); order is the jet order e >= 0.
    """

    __slots__ = ("twist_degree", "order")

    def __init__(self, twist_degree: UniPoly, order: int):
        if order < 0:
            raise ValueError("jet order must be >= 0")
        self.twist_degree, self.order = twist_degree, order


class ProjBundleCtx:
    """A P^1-bundle context: quotient presentation, the fiber hyperplane
    class name, and the relative cotangent class (set at construction, since
    it depends on how the bundle is presented)."""

    __slots__ = ("presentation", "fiber_class", "cotangent")

    def __init__(self, presentation: RingPresentation, fiber_class: str, cotangent: RingElement):
        self.presentation, self.fiber_class, self.cotangent = presentation, fiber_class, cotangent

    @property
    def ring(self) -> PolyRing:
        return self.presentation.ring

    def fiber(self) -> RingElement:
        return self.ring.gen(self.fiber_class)


def standard_context() -> ProjBundleCtx:
    """The rank-2 bundle over the classifying base: generators (c1, c2, z),
    relation z^2 + c1*z + c2, relative cotangent -2z - c1 (Euler sequence)."""
    # Fiber class first: in grevlex this makes z^2 the leading monomial of
    # the quadratic relation, so normal forms are z-linear (as pushforward needs).
    ring = PolyRing([Generator("z", 1), Generator("c1", 1), Generator("c2", 2)])
    z = ring.gen("z")
    rel = z * z + ring.gen("c1") * z + ring.gen("c2")
    pres = RingPresentation(ring, [rel])
    cot = -2 * z - ring.gen("c1")
    return ProjBundleCtx(pres, "z", pres.normal_form(cot))


def two_factor_context() -> tuple[ProjBundleCtx, ProjBundleCtx]:
    """A product of two P^1-bundles over a base with degree-1 classes c1 and
    d1, as its (horizontal, vertical) pair of contexts on one presentation:
    generators (z, w, c1, c2, d1, d2) with independent quadratic relations
    z^2 + c1*z + c2 and w^2 + d1*w + d2.  Each relative cotangent is the
    degree -2 line bundle on its factor (the bundles are presented so that
    the cotangent carries no base twist): -2z horizontally, -2w vertically."""
    ring = PolyRing(
        [
            Generator("z", 1),
            Generator("w", 1),
            Generator("c1", 1),
            Generator("c2", 2),
            Generator("d1", 1),
            Generator("d2", 2),
        ]
    )
    z, w = ring.gen("z"), ring.gen("w")
    rels = [
        z * z + ring.gen("c1") * z + ring.gen("c2"),
        w * w + ring.gen("d1") * w + ring.gen("d2"),
    ]
    pres = RingPresentation(ring, rels)
    horizontal = ProjBundleCtx(pres, "z", pres.normal_form(-2 * z))
    vertical = ProjBundleCtx(pres, "w", pres.normal_form(-2 * w))
    return horizontal, vertical


def jet_line_factors(spec: JetSpec, ctx: ProjBundleCtx):
    """The filtration line classes c1(O(d) tensor Omega^k), k = 0..e, where
    c1(O(d)) is d times the fiber class."""
    base = ctx.fiber().scale(spec.twist_degree)
    cot = ctx.cotangent
    return [base + cot.scale(k) for k in range(spec.order + 1)]


def jet_top_chern(spec: JetSpec, ctx: ProjBundleCtx) -> RingElement:
    """Top Chern class (degree e+1 part of the total class), reduced."""
    acc = ctx.ring.one()
    for f in jet_line_factors(spec, ctx):
        acc = acc * f
    return ctx.presentation.normal_form(acc)


def pushforward_p1(e: RingElement, ctx: ProjBundleCtx) -> RingElement:
    """Pushforward along the context's P^1 fiber: with e = a + b*z reduced,
    returns b.  Satisfies pi_*(1) = 0 and pi_*(z) = 1."""
    e = ctx.presentation.normal_form(e)
    fi = ctx.ring.index(ctx.fiber_class)
    out = {}
    for exps, c in e.terms.items():
        k = exps[fi]
        if k > 1:
            raise NotReduced(f"fiber exponent {k} > 1 in pushforward input")
        if k == 1:
            new = list(exps)
            new[fi] = 0
            out[tuple(new)] = c
    return RingElement(ctx.ring, out)


def section_pullbacks(horizontal: ProjBundleCtx, vertical: ProjBundleCtx) -> dict:
    """Substitution rules for restricting along the universal section of a
    two-factor context, derived from the pushforward identity
    sigma^* O(1) = pi_*(c1(O(1))^2): z -> -c1, w -> -d1."""
    z, w = horizontal.fiber(), vertical.fiber()
    return {
        "z": pushforward_p1(z * z, horizontal),
        "w": pushforward_p1(w * w, vertical),
    }
