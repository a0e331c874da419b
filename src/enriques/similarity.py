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

A run of satellites that the arena records (by the index rule of
:mod:`~enriques.arena`, whoever wrote it; see
:meth:`~enriques.arena.ArenaTree._run_of`) is a chain whose heads all
carry the tag ``s``, so the encoder appends a piece of it to a run in one
step, with no visit per point.  The form reads only the arena's columns,
its run record and the cluster's weights, so it stays an independent
check on :mod:`~enriques.recovery`.
"""

from __future__ import annotations

import hashlib
from itertools import islice
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

    The run step.  The cluster is ancestor-closed, so it holds a prefix
    f..e of a recorded run f..last, and these ids, being consecutive, are
    visited in a row, e first.  Each point r of f+1..last is the child of
    r - 1 with the run's second proximity s, which is neither r - 1 nor
    r - 1's parent, so r's head is ``s:w(``.  Once a point p of f+1..e is
    visited, every cluster child of p-1..f+1 but the next run point has a
    larger id than e, so it is visited already, and its run waits in
    ``pending`` under its parent.  Let lo be the highest point of f+1..p-1
    with a pending run, or f.  Then each of p-1..lo+1 has one cluster
    child, the next run point, and the point-by-point visits would append
    its head to the held run in turn; the step appends them at once,
    formatting each distinct weight once, skips their visits and goes on
    at lo, which takes the held run as its child's.  So the bytes are the
    same.  The search for lo stops at the first pending run it meets, and
    the next step starts below it, so no step rescans the run.  An arena
    that records no run takes no lookup.
    """
    tree, weight = cluster.tree, cluster.weight
    parents, seconds = tree.parents, tree.seconds
    run_of = tree._run_of if tree._runs else None
    free, via_g, via_s = {}, {}, {}  # heads by weight, one table per tag
    pending: dict[Optional[PointId], list] = {}  # see _add
    held = held_by = None  # the last point's run and its parent
    visits = iter(sorted(weight, reverse=True))
    for p in visits:
        run = pending.pop(p, None)
        if held_by == p:
            run = held if run is None else _add(run, held)
        elif held is not None:
            kids = pending.setdefault(held_by, held)
            if kids is not held:
                pending[held_by] = _add(kids, held)
        if run is None:
            run = [b""]
        elif run[0] is None:
            run = [b"".join(sorted(map(_join, run[1:])))]
        s, a, w = seconds[p], parents[p], weight[p]
        if s is None:
            run.append(free.get(w) or free.setdefault(w, b"f:%d(" % w))
        elif s == parents[a]:
            run.append(via_g.get(w) or via_g.setdefault(w, b"g:%d(" % w))
        else:
            run.append(via_s.get(w) or via_s.setdefault(w, b"s:%d(" % w))
            if run_of is not None and (f := run_of(p)) is not None:
                # p follows f in a recorded run, and each of p-1..lo+1
                # has one cluster child and an s: head
                lo = next(filter(pending.__contains__, range(p - 1, f, -1)), f)
                ws = [*map(weight.__getitem__, range(p - 1, lo, -1))]
                for v in set(ws).difference(via_s):
                    via_s[v] = b"s:%d(" % v
                run += map(via_s.__getitem__, ws)
                a = lo
                next(islice(visits, p - 1 - lo, p - 1 - lo), None)
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
    if origin not in cluster:
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
