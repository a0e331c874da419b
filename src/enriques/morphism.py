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
the arena alone, so n is read from the arena's cached point facts; m is
tabulated here, and the table grows lazily: asking for a point outside the
current domain extends it along the point's chain.  Each lookup reads the
point's arena record once, and a point already in the table costs one
facts read.

The m recursion is linear in the weights.  With all weights 0 it gives
``m0``, which the arena caches next to n; the weights add to it, at p,
their pairing with the unibranch chain cluster of p (the value of bp along
that chain, by Noether's formula), so

    m_p = m0_p + pairing(bp, chain cluster of p).

``m_p/n_p`` is the *height quotient*; its comparisons against dicritical
invariants, made by integer cross-multiplication, drive the satellite walk
of the recovery algorithm.  As an
internal cross-check, :meth:`MorphismInvariants.jacobian_multiplicity_check`
recomputes the cluster weight at any domain point from m and n alone.
"""

from __future__ import annotations

from fractions import Fraction

from .arena import ArenaTree, PointId, PointRecord
from .cluster import WeightedCluster, WeightKind, is_consistent
from .errors import InconsistentCluster


class MorphismInvariants:
    """Lazily extendable table of m_p over an arena; n_p comes from the arena.

    Created by :func:`compute`; reads are cheap dict lookups, extension
    follows the exclusive-writer contract of the arena.
    """

    def __init__(self, bp: WeightedCluster):
        self.bp = bp
        self.m: dict[PointId, int] = {}

    @property
    def tree(self) -> ArenaTree:
        return self.bp.tree

    def _compute_point(self, r: PointRecord) -> None:
        m = self.m
        w = self.bp.get(r.id, 0)
        if r.parent is None:
            m[r.id] = w + 1
        elif r.second_proximity is None:
            m[r.id] = m[r.parent] + w + 1
        else:
            m[r.id] = m[r.parent] + m[r.second_proximity] + w

    def extend_to(self, p: PointId) -> tuple[int, int]:
        """Ensure m is defined on the chain of ``p``; return its (n, m)."""
        tree = self.tree
        if p not in self.m:
            missing = []
            q = p
            while q is not None and q not in self.m:
                r = tree.record(q)
                missing.append(r)
                q = r.parent
            # the domain holds whole chains, so it holds each second proximity
            for r in reversed(missing):
                self._compute_point(r)
        return tree.facts(p).n, self.m[p]

    def height_quotient(self, p: PointId) -> Fraction:
        n, m = self.extend_to(p)
        return Fraction(m, n)

    def jacobian_multiplicity_check(self, p: PointId) -> int:
        """Recompute the expected cluster weight at ``p`` from m and n.

        Returns m+n-2 at the origin, m+n-m'-n'-1 at free points and
        m+n-m'-n'-m''-n'' at satellites; on every point this must equal the
        bp-weight of ``p`` (0 outside the cluster).
        """
        n, m = self.extend_to(p)
        tree = self.tree
        parent = tree.parent(p)
        if parent is None:
            return m + n - 2
        np_, mp_ = self.extend_to(parent)
        second = tree.second_proximity(p)
        if second is None:
            return m + n - mp_ - np_ - 1
        np2, mp2 = self.extend_to(second)
        return m + n - mp_ - np_ - mp2 - np2


def compute(bp: WeightedCluster) -> MorphismInvariants:
    """Build the (n, m) table on every point of a base-point cluster.

    The cluster must be virtual, consistent, and give the origin weight at
    least 1 (the polar of a singular curve is itself a curve through the
    origin).
    """
    bp.require_kind(WeightKind.VIRTUAL)
    origin = bp.tree.origin
    if origin is None or bp.get(origin, 0) < 1:
        raise InconsistentCluster(
            "base-point cluster must weight the origin with at least 1")
    if not is_consistent(bp):
        raise InconsistentCluster(
            "base-point cluster has a point of negative excess")
    inv = MorphismInvariants(bp)
    for p in bp.ordered_points():
        inv._compute_point(bp.tree.record(p))
    return inv
