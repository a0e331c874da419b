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
:func:`satellite_proximity` names the point, besides q, that the first or
second satellite of q is proximate to; the recovery walk reads it to
append a whole run of equal moves at once.

The defining free point, the fraction within its cone and a satellite's
ordered proximities are fixed when a point is appended, so they are read
from the arena's facts columns.  So is the fraction of q at any free
point p of its chain: it is the k/n of the last point r of q's chain in
the cone of p.  The chain point after r is a free child of r, and every
later one is proximate only to r or to later points, so the chain weights
of q at and below r are a multiple of r's own.  :func:`fraction_at`
rebuilds a fraction from the whole chain; it is the definition that the
tests compare these facts with.

All comparisons use exact integer cross-multiplication; no floats anywhere.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Optional

from .arena import ArenaTree, PointId
from .cluster import WeightedCluster, WeightKind, unibranch_chain
from .errors import (
    EmptySet,
    NotComparable,
    NotUnibranch,
    OriginHasNoSatellite,
    SecondSatelliteOfFreePoint,
    UnknownPoint,
)


class PrecComparison(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def defining_free_point(tree: ArenaTree, q: PointId) -> PointId:
    """The last free point on the chain of ``q`` (``q`` itself when free)."""
    return tree.facts(q).defining_free_point


def fraction_at(tree: ArenaTree, p: PointId, q: PointId) -> Fraction:
    """Chain weight of ``q`` at ``p`` over its origin weight.

    ``p`` must lie on the chain of ``q``.  The chain-built definition.
    """
    chain = unibranch_chain(tree, q)
    return Fraction(chain[p], chain[tree.origin])


def _cone_exit(tree: ArenaTree, p: PointId, q: PointId) -> Optional[PointId]:
    """The last point of q's chain in the cone of the free point ``p``
    (whose k/n is the fraction of q at p), or None when p is not on the
    chain.  One walk down the parent links."""
    free_points, parents = tree.free_points, tree.parents
    while q > p and free_points[q] != p:
        q = parents[q]
    return q if free_points[q] == p else None


def prec_compare(tree: ArenaTree, q1: PointId, q2: PointId) -> PrecComparison:
    """Compare two points, allowing ``INCOMPARABLE``.

    ``EQUAL`` only for identical ids.  Otherwise q1 is smaller exactly when
    the defining free point p1 of q1 lies on the chain of q2 and the
    fraction of q1 at p1 is at most that of q2 (and symmetrically for
    greater).  Both are k/n facts: q1's own, and that of the last point of
    q2's chain in the cone of p1 (q2 itself when both share p1).
    """
    tree.facts(q1), tree.facts(q2)  # check both points
    if q1 == q2:
        return PrecComparison.EQUAL
    free_points, ks, ns = tree.free_points, tree.ks, tree.ns
    for a, b, result in ((q1, q2, PrecComparison.LESS),
                         (q2, q1, PrecComparison.GREATER)):
        r = _cone_exit(tree, free_points[a], b)
        if r is not None and ks[a] * ns[r] <= ks[r] * ns[a]:
            return result
    return PrecComparison.INCOMPARABLE


def satellite_proximity(tree: ArenaTree, q: PointId, second: bool) -> PointId:
    """The point that the first (or second) satellite of ``q`` is also
    proximate to, besides ``q``.

    That is the smaller of a satellite's ordered proximities for the first
    satellite and the bigger for the second; a free point's first satellite
    is also proximate to its parent.  ``q`` must be an arena point.
    Every later satellite on the same side keeps this proximity, so a run
    of equal moves in the satellite cone shares it.
    """
    pair = tree.pairs[q]
    if second:
        if pair is None:
            raise SecondSatelliteOfFreePoint(
                f"point {q} is free; only satellites have a second satellite")
        return pair[1]
    s = tree.parents[q] if pair is None else pair[0]
    if s is None:
        raise OriginHasNoSatellite("the origin has no satellite points")
    return s


def _neighbour(tree: ArenaTree, q: PointId, second: bool) -> PointId:
    """Find or create the first (or second) satellite of ``q``."""
    tree.facts(q)  # checks q
    s = satellite_proximity(tree, q, second)
    found = tree.find_satellite(q, s)
    return tree.add_point(q, s) if found is None else found


def first_satellite(tree: ArenaTree, q: PointId) -> PointId:
    """The smaller satellite in the first neighbourhood of ``q``.

    For a free point this is its only first-neighbourhood satellite.  The
    point is created if the arena does not contain it yet.
    """
    return _neighbour(tree, q, False)


def second_satellite(tree: ArenaTree, q: PointId) -> PointId:
    """The bigger satellite in the first neighbourhood of a satellite ``q``."""
    return _neighbour(tree, q, True)


def max_under_prec(tree: ArenaTree, points: Iterable[PointId]) -> PointId:
    """The biggest of a set of points sharing one defining free point."""
    pts = list(points)
    if not pts:
        raise EmptySet("cannot take the maximum of no points")
    free_points, ns, ks = tree.free_points, tree.ns, tree.ks
    for q in pts:
        if q not in tree:
            raise UnknownPoint(f"no point with id {q}")
    best = pts[0]
    for q in pts[1:]:
        if free_points[q] != free_points[best]:
            raise NotComparable(
                f"points {best} and {q} have different defining free points")
        if ks[q] * ns[best] > ks[best] * ns[q]:
            best = q
    return best


def compare_point_to_branch(
    tree: ArenaTree, q: PointId, branch: WeightedCluster
) -> bool:
    """Whether ``q`` is smaller than the branch described by ``branch``.

    ``branch`` must be a unibranch multiplicity cluster (a chain).  True
    exactly when the defining free point p of q lies on the branch and the
    fraction of q at p, which is q's own k/n, is strictly below the
    branch's own multiplicity ratio e_p / e_origin.
    """
    branch.require_kind(WeightKind.MULTIPLICITY)
    for p in branch.points:
        if sum(c in branch for c in branch.tree.child_list(p)) > 1:
            raise NotUnibranch(f"branch cluster forks at point {p}")
    p = defining_free_point(tree, q)
    if p not in branch:
        return False
    return tree.ks[q] * branch[branch.tree.origin] < branch[p] * tree.ns[q]
