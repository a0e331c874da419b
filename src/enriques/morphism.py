"""Multiplicities and heights attached to a cluster of polar base points.

Fix a consistent virtual cluster ``bp`` (the shared points of the polar
curves of some singular curve, weighted with their virtual multiplicities).
Pairing the curve's equation with a generic transversal coordinate gives,
at every point p of the cluster and at every satellite above it, a pair of
positive integers:

* ``n_p`` -- the multiplicity of the composite map at p, and
* ``m_p`` -- the height at which the images of generic arcs through p split.

Only the recursion producing them survives into this artifact:

    n at the origin is 1,   m at the origin is (origin weight of bp) + 1,
    for p free proximate to p':      n_p = n_p',
                                     m_p = m_p' + w_p + 1,
    for p satellite proximate to p', p'':
                                     n_p = n_p' + n_p'',
                                     m_p = m_p' + m_p'' + w_p,

where w_p is the bp-weight of p, taken as 0 for points outside the cluster
(a generic polar is non-singular away from its base points, which is also
why created satellites never carry weight).  The n recursion depends on
the arena alone, so n is read from the arena's ``ns`` column; m is
tabulated here as a list indexed by point id, like the arena's columns.
:func:`compute` fills it over the whole arena in id order, which is
topological, and it grows over the points appended later (the satellites
the recovery walk creates), so a lookup is a bounds check and two list
reads.

The m recursion is linear in the weights.  With all weights 0 it gives
``m0``, which the arena caches next to n; the weights add to it, at p,
their pairing with the unibranch chain cluster of p (the value of bp along
that chain, by Noether's formula), so

    m_p = m0_p + pairing(bp, chain cluster of p).

``m_p/n_p`` is the *height quotient*; its comparisons against dicritical
invariants, made by integer cross-multiplication, drive the satellite walk
of the recovery algorithm.
"""

from __future__ import annotations

from fractions import Fraction

from .arena import ArenaTree, PointId
from .cluster import WeightedCluster, WeightKind, excesses
from .errors import InconsistentCluster, UnknownPoint


class MorphismInvariants:
    """Table of m_p over an arena, a list indexed by point id.

    n_p comes from the arena's ``ns`` column.  The table covers every
    arena point when it is built, and :meth:`extend_to` tabulates the
    points appended since; the recovery walk extends ``m`` itself over
    each run it appends, so its table never falls behind.  Extension
    follows the exclusive-writer contract of the arena.  ``bp`` must be a
    virtual cluster, as in :func:`compute`, which also requires it to be
    consistent.
    """

    def __init__(self, bp: WeightedCluster):
        bp.require_kind(WeightKind.VIRTUAL)
        self.bp = bp
        self.m: list[int] = []
        self._grow()

    @property
    def tree(self) -> ArenaTree:
        return self.bp.tree

    def _grow(self) -> None:
        """Tabulate m on the points appended since the last call."""
        tree, weight, m = self.bp.tree, self.bp.weight, self.m
        parents, seconds = tree.parents, tree.seconds
        for p in range(len(m), len(parents)):
            a, s = parents[p], seconds[p]
            if a is None:
                m.append(weight.get(p, 0) + 1)
            elif s is None:
                m.append(m[a] + weight.get(p, 0) + 1)
            else:
                m.append(m[a] + m[s] + weight.get(p, 0))

    def extend_to(self, p: PointId) -> tuple[int, int]:
        """Ensure m is defined at ``p``; return its (n, m)."""
        m = self.m
        if not (type(p) is int and 0 <= p < len(m)):
            if p not in self.bp.tree:
                raise UnknownPoint(f"no point with id {p}")
            self._grow()
        return self.bp.tree.ns[p], m[p]

    def height_quotient(self, p: PointId) -> Fraction:
        n, m = self.extend_to(p)
        return Fraction(m, n)


def require_base_points(bp: WeightedCluster, excess: dict[PointId, int]) -> None:
    """Reject a cluster that cannot be the base points of polars.

    ``excess`` is :func:`~enriques.cluster.excesses` of ``bp``, passed in
    so that a caller which needs the excesses anyway counts them once.
    """
    bp.require_kind(WeightKind.VIRTUAL)
    origin = bp.tree.origin
    if origin is None or bp.get(origin, 0) < 1:
        raise InconsistentCluster(
            "base-point cluster must weight the origin with at least 1")
    if min(excess.values(), default=0) < 0:
        raise InconsistentCluster(
            "base-point cluster has a point of negative excess")


def compute(bp: WeightedCluster) -> MorphismInvariants:
    """Build the (n, m) table on every point of a base-point cluster's arena.

    The cluster must be virtual, consistent, and give the origin weight at
    least 1 (the polar of a singular curve is itself a curve through the
    origin).
    """
    require_base_points(bp, excesses(bp))
    return MorphismInvariants(bp)
