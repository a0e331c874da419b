"""The partial order on infinitely near points used by the recovery walk.

Every point q has a *defining free point*: the last free point on its chain
(q itself when q is free).  The position of q among the satellites of its
defining free point p is pinned down by one exact fraction,

    weight of the unibranch chain of q at p  /  weight at the origin,

which lies in (0, 1]; for a free point it is 1/n_p, with n_p the origin
weight of its own chain.  Distinct points sharing the same defining free
point always get distinct fractions: walking from p into the satellite tree
refines the fraction like a mediant (Stern-Brocot) search, one side per
step.

A point q1 with defining free point p1 is *smaller* than q2 (written q1 < q2
here, "prec" in code) when p1 lies on the chain of q2's defining free point
and the fraction of q1 at p1 does not exceed the fraction of q2 measured at
p1.  Restricted to one free point and its satellites this is a total order;
across unrelated free points it is only partial, and ``Incomparable`` is a
first-class outcome rather than an error.

Navigation: every free point p (proximate to p') has exactly one satellite
in its first neighbourhood, namely the point proximate to p and p'; it is
called the first satellite of p and sits strictly between p' and p.  A
satellite q proximate to a and b with a < b has exactly two satellites in
its first neighbourhood: the *first* satellite (proximate to q and a, below
q) and the *second* satellite (proximate to q and b, above q).  The
functions here find the requested neighbour in the arena, creating it when
it does not exist yet (find-or-create), since the recovery walk routinely
visits points that carry no weight in the input cluster.

The defining free point, the fraction within its cone and a satellite's
ordered proximities are fixed when a point is appended, so they are read
from the arena's :class:`~enriques.arena.PointFacts`.  :func:`fraction_at`
rebuilds a fraction from the whole chain; it measures a point at any free
point of its chain and serves as the reference for the cached facts.

All comparisons use exact integer cross-multiplication; no floats anywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .arena import ArenaTree, PointFacts, PointId
from .cluster import WeightedCluster, WeightKind, unibranch_chain
from .errors import (
    EmptySet,
    NotComparable,
    NotUnibranch,
    OriginHasNoSatellite,
    SecondSatelliteOfFreePoint,
)


class PrecComparison(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class SatelliteQuotient:
    """Defining free point of a point plus its exact position fraction."""

    defining_free_point: PointId
    fraction: Fraction


def defining_free_point(tree: ArenaTree, q: PointId) -> PointId:
    """The last free point on the chain of ``q`` (``q`` itself when free)."""
    return tree.facts(q).defining_free_point


def fraction_at(tree: ArenaTree, p: PointId, q: PointId) -> Fraction:
    """Chain weight of ``q`` at ``p`` over its origin weight.

    ``p`` must lie on the chain of ``q``.
    """
    chain = unibranch_chain(tree, q)
    return Fraction(chain[p], chain[tree.origin])


def satellite_quotient(tree: ArenaTree, q: PointId) -> SatelliteQuotient:
    facts = tree.facts(q)
    return SatelliteQuotient(
        facts.defining_free_point, Fraction(facts.k, facts.n))


def _below(f1: PointFacts, f2: PointFacts) -> bool:
    """Whether the first fraction k/n is at most the second."""
    return f1.k * f2.n <= f2.k * f1.n


def prec_compare(tree: ArenaTree, q1: PointId, q2: PointId) -> PrecComparison:
    """Compare two points, allowing ``INCOMPARABLE``.

    ``EQUAL`` only for identical ids.  Otherwise q1 is smaller exactly when
    the defining free point p1 of q1 precedes that of q2 and the fraction of
    q1 at p1 is at most the fraction of q2 measured at p1 (and symmetrically
    for greater).
    """
    f1, f2 = tree.facts(q1), tree.facts(q2)
    if q1 == q2:
        return PrecComparison.EQUAL
    p1, p2 = f1.defining_free_point, f2.defining_free_point
    if p1 == p2:
        return PrecComparison.LESS if _below(f1, f2) else PrecComparison.GREATER
    if tree.precedes(p1, p2):
        if fraction_at(tree, p1, q1) <= fraction_at(tree, p1, q2):
            return PrecComparison.LESS
    if tree.precedes(p2, p1):
        if fraction_at(tree, p2, q2) <= fraction_at(tree, p2, q1):
            return PrecComparison.GREATER
    return PrecComparison.INCOMPARABLE


def _find_or_create(tree: ArenaTree, parent: PointId, second: PointId) -> PointId:
    existing = tree.find_satellite(parent, second)
    if existing is not None:
        return existing
    return tree.add_point(parent=parent, second_proximity=second)


def first_satellite(tree: ArenaTree, q: PointId) -> PointId:
    """The smaller satellite in the first neighbourhood of ``q``.

    For a free point this is its only first-neighbourhood satellite.  The
    point is created if the arena does not contain it yet.
    """
    parent = tree.record(q).parent
    if parent is None:
        raise OriginHasNoSatellite("the origin has no satellite points")
    pair = tree.facts(q).ordered_proximities
    return _find_or_create(tree, q, parent if pair is None else pair[0])


def second_satellite(tree: ArenaTree, q: PointId) -> PointId:
    """The bigger satellite in the first neighbourhood of a satellite ``q``."""
    pair = tree.facts(q).ordered_proximities
    if pair is None:
        raise SecondSatelliteOfFreePoint(
            f"point {q} is free; only satellites have a second satellite")
    return _find_or_create(tree, q, pair[1])


def max_under_prec(tree: ArenaTree, points: Iterable[PointId]) -> PointId:
    """The biggest of a set of points sharing one defining free point."""
    pts = list(points)
    if not pts:
        raise EmptySet("cannot take the maximum of no points")
    best = pts[0]
    best_facts = tree.facts(best)
    for q in pts[1:]:
        facts = tree.facts(q)
        if facts.defining_free_point != best_facts.defining_free_point:
            raise NotComparable(
                f"points {best} and {q} have different defining free points")
        if not _below(facts, best_facts):
            best, best_facts = q, facts
    return best


def compare_point_to_branch(
    tree: ArenaTree, q: PointId, branch: WeightedCluster
) -> bool:
    """Whether ``q`` is smaller than the branch described by ``branch``.

    ``branch`` must be a unibranch multiplicity cluster (a chain).  True
    exactly when the defining free point p of q lies on the branch and the
    fraction of q at p is strictly below the branch's own multiplicity
    ratio e_p / e_origin.
    """
    branch.require_kind(WeightKind.MULTIPLICITY)
    for p in branch.points:
        in_cluster = [c for c in branch.tree.child_list(p) if c in branch]
        if len(in_cluster) > 1:
            raise NotUnibranch(
                f"branch cluster forks at point {p}")
    p = defining_free_point(tree, q)
    if p not in branch:
        return False
    return fraction_at(tree, p, q) < Fraction(
        branch[p], branch[branch.tree.origin])
