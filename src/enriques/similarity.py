"""Canonical forms for weighted clusters.

Two weighted clusters are similar when some bijection between their points
preserves the order, the proximity relations and the weights; two curves
are equisingular exactly when their singular clusters (weighted with
multiplicities) are similar.  Deciding this reduces to rooted-tree
isomorphism with two attributes per point:

* its weight, and
* a role tag saying how the point sits over its parent: free, satellite
  through the grandparent, or satellite through the parent's own second
  proximity.  The tag captures the proximity relation without mentioning
  ids, so relabelings and sibling reorderings cannot change it.

Each point is encoded as ``tag : weight ( sorted child encodings )`` in
bytes, children sorted lexicographically; the origin's encoding is the
canonical form.  Equal forms hold exactly for similar clusters, and the
byte strings are totally ordered, which keeps golden outputs stable.
"""

from __future__ import annotations

import hashlib

from .arena import ArenaTree, PointId
from .cluster import WeightedCluster, WeightKind

_FREE = b"f"
_VIA_GRANDPARENT = b"g"
_VIA_SECOND = b"s"


def _role_tag(tree: ArenaTree, p: PointId) -> bytes:
    second = tree.seconds[p]
    if second is None:
        return _FREE
    if second == tree.parents[tree.parents[p]]:
        return _VIA_GRANDPARENT
    return _VIA_SECOND


def _encode(cluster: WeightedCluster, origin: PointId) -> bytes:
    """Encode every point after its children, so depth costs no recursion.

    Arena ids are topologically sorted, so descending ids visit children
    first; each child's encoding is dropped once its parent has used it.
    """
    tree, weight = cluster.tree, cluster.weight
    encoded: dict[PointId, bytes] = {}
    for p in sorted(weight, reverse=True):
        children = sorted(
            encoded.pop(c) for c in tree.children[p] if c in weight)
        encoded[p] = b"%b:%d(%b)" % (
            _role_tag(tree, p), weight[p], b"".join(children))
    return encoded[origin]


def canonical_form(cluster: WeightedCluster) -> bytes:
    """Deterministic byte string, equal exactly for similar clusters.

    Independent of arena insertion order and of labels.  The weight kind is
    not encoded: similarity compares weights, whatever they count.
    """
    origin = cluster.tree.origin
    if origin is None or origin not in cluster:
        return b""
    return _encode(cluster, origin)


def canonical_digest(cluster: WeightedCluster) -> str:
    """Lowercase hex digest of the canonical form."""
    return hashlib.sha256(canonical_form(cluster)).hexdigest()


def are_similar(a: WeightedCluster, b: WeightedCluster) -> bool:
    return canonical_form(a) == canonical_form(b)


def are_equisingular(curve_a: WeightedCluster, curve_b: WeightedCluster) -> bool:
    """Similarity of two multiplicity-weighted singular clusters."""
    curve_a.require_kind(WeightKind.MULTIPLICITY)
    curve_b.require_kind(WeightKind.MULTIPLICITY)
    return are_similar(curve_a, curve_b)
