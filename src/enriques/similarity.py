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

Down a chain, where each point has one cluster child, a point's encoding
is its head ``tag:weight(``, its child's encoding and ``)``.  So the
encoder holds an encoding as a run: the inner bytes where the chain ends
(an empty leaf, or the sorted children of a branching point), then the
chain's heads from the bottom up.  The run's bytes are its heads read top
down, the inner bytes and one ``)`` per head.  A point with one cluster
child appends its head to that child's run and copies no bytes; runs are
joined into bytes only where two or more siblings must be sorted, and once
at the origin.  A byte is therefore copied once per branching point above
it, not once per ancestor: the form is linear in the length of a chain,
and sorting happens only at branchings.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from .arena import PointId
from .cluster import WeightedCluster, WeightKind

_FREE = b"f"
_VIA_GRANDPARENT = b"g"
_VIA_SECOND = b"s"


def _encode(cluster: WeightedCluster) -> bytes:
    """Encode every point after its children, so depth costs no recursion.

    Arena ids are topologically sorted, so descending ids visit children
    first and the origin last.  Each point hands its encoding to its
    parent as a run ``[inner bytes, deepest head, ..., top head]`` (see
    the module docstring).
    """
    tree, weight = cluster.tree, cluster.weight
    parents, seconds = tree.parents, tree.seconds
    pending: dict[Optional[PointId], list[list[bytes]]] = {}
    for p in sorted(weight, reverse=True):
        s, a = seconds[p], parents[p]
        head = b"%b:%d(" % (
            _FREE if s is None
            else _VIA_GRANDPARENT if s == parents[a]
            else _VIA_SECOND,
            weight[p])
        kids = pending.pop(p, None)
        if kids is None:
            run = [b"", head]
        elif len(kids) == 1:
            run = kids[0]
            run.append(head)
        else:
            run = [b"".join(sorted(map(_join, kids))), head]
        pending.setdefault(a, []).append(run)
    return _join(run)


def _join(run: list[bytes]) -> bytes:
    """The bytes of a run: its heads from the top down, its inner bytes
    and one ``)`` per head."""
    return b"".join(run[:0:-1]) + run[0] + b")" * (len(run) - 1)


def canonical_form(cluster: WeightedCluster) -> bytes:
    """Deterministic byte string, equal exactly for similar clusters.

    Independent of arena insertion order and of labels.  The weight kind is
    not encoded: similarity compares weights, whatever they count.
    """
    origin = cluster.tree.origin
    if origin is None or origin not in cluster:
        return b""
    return _encode(cluster)


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
