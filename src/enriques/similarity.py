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

A point whose head repeats costs no formatting, and a point down a chain
one map operation.  Each distinct head is formatted once per encoding, in
a table per tag keyed by weight.  The last point's run is held until the
next point, which takes it if it is the parent; else it enters a map
keyed by parent, where a parent's entry is its one child's run until a
second child makes it a list of sibling runs.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from .arena import PointId
from .cluster import WeightedCluster
from .errors import NumberTooLong


def _encode(cluster: WeightedCluster) -> bytes:
    """Encode every point after its children, so depth costs no recursion.

    Arena ids are topologically sorted, so descending ids visit children
    first and the origin last.  Each point hands its encoding to its
    parent as a run ``[inner bytes, deepest head, ..., top head]`` (see
    the module docstring).
    """
    tree, weight = cluster.tree, cluster.weight
    parents, seconds = tree.parents, tree.seconds
    free, via_g, via_s = {}, {}, {}  # heads by weight, one table per tag
    pending: dict[Optional[PointId], list] = {}  # see _add
    held = held_by = None  # the last point's run and its parent
    for p in sorted(weight, reverse=True):
        s, a, w = seconds[p], parents[p], weight[p]
        if s is None:
            head = free.get(w) or free.setdefault(w, b"f:%d(" % w)
        elif s == parents[a]:
            head = via_g.get(w) or via_g.setdefault(w, b"g:%d(" % w)
        else:
            head = via_s.get(w) or via_s.setdefault(w, b"s:%d(" % w)
        run = pending.pop(p, None)
        if held_by == p:
            run = held if run is None else _add(run, held)
        elif held is not None:
            kids = pending.setdefault(held_by, held)
            if kids is not held:
                pending[held_by] = _add(kids, held)
        if run is None:
            run = [b"", head]
        elif run[0] is None:
            run = [b"".join(sorted(map(_join, run[1:]))), head]
        else:
            run.append(head)
        held, held_by = run, a
    return _join(held)


def _add(kids: list, run: list[bytes]) -> list:
    """The children ``kids``, a run or ``[None, run, ...]``, and ``run``."""
    if kids[0] is None:
        kids.append(run)
        return kids
    return [None, kids, run]


def _join(run: list[bytes]) -> bytes:
    """The bytes of a run: its heads from the top down, its inner bytes
    and one ``)`` per head."""
    return b"".join(run[:0:-1]) + run[0] + b")" * (len(run) - 1)


def canonical_form(cluster: WeightedCluster) -> bytes:
    """Deterministic byte string, equal exactly for similar clusters.

    Independent of arena insertion order and of labels.  The weight kind is
    not encoded: similarity compares weights, whatever they count.  A
    weight that Python would refuse to write as text raises
    :class:`~enriques.errors.NumberTooLong`.
    """
    origin = cluster.tree.origin
    if origin is None or origin not in cluster:
        return b""
    try:
        return _encode(cluster)
    except ValueError:  # a weight past Python's int-to-text digit limit
        raise NumberTooLong(max(cluster.weight.values())) from None


def form_digest(form: bytes) -> str:
    """Lowercase hex digest of a canonical form."""
    return hashlib.sha256(form).hexdigest()


def canonical_digest(cluster: WeightedCluster) -> str:
    """Lowercase hex digest of the canonical form."""
    return form_digest(canonical_form(cluster))


def are_similar(a: WeightedCluster, b: WeightedCluster) -> bool:
    return canonical_form(a) == canonical_form(b)
