"""Forward computations from a curve's own singular cluster.

Everything here starts from the answer -- a curve's weighted cluster of
singular points with effective multiplicities -- and derives the quantities
the recovery algorithm reconstructs from polar base points: rupture points,
invariant quotients.  Past the types, it shares with
:mod:`~enriques.recovery` only what the arena records: its columns, facts
included, its run record, read through
:meth:`~enriques.arena.ArenaTree._run_of`, and its point-id check.
Recovery counts its excesses in its own height pass, while the oracle
reads :func:`excesses`, and the two take a recorded run by different
arguments, so agreement between them is a meaningful check.  The run
record is a fact about the arena like the columns: every write sets
both, by the index rule of :mod:`~enriques.arena`, and the record only
names ranges of points whose columns say they form a run.  A function
that counts a curve's points or branches raises
:class:`~enriques.errors.WrongKind` on another kind of cluster.
Every cluster is sound by construction (see
:class:`~enriques.cluster.WeightedCluster`): it is ancestor-closed, and
its points, like every arena point, keep the arena rules, so the sweeps
here read each point's links without a check of their own.  Only a
point taken from the arena rather than the curve, as in
:func:`invariant_quotient`, is checked where it enters.

A multiplicity cluster describes an actual curve exactly when it is
consistent (no negative excess) and *singular-saturated*: every point is
multiple, or satellite, or an ancestor of a satellite point of the
cluster.  The excess at a point then counts the branches of the curve
that leave the cluster there, each through its own free simple point in
the first neighbourhood.  Hence the number of free points of the curve in
the first neighbourhood of p is

    (free cluster children of p)  +  excess at p,

and p is a rupture point when this count reaches 2 for free p, or 1 for
satellite p.

The invariant quotient at p is pairing(curve, chain cluster of p) divided
by the chain's origin weight; the polar invariants of the curve are the
values of :func:`rupture_quotients`, the invariant quotients at its
rupture points (with a base point, at those equal to or satellite of it).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from .arena import PointId
from .cluster import WeightedCluster, WeightKind, excesses
from .errors import NegativeResidual


def rupture_points(curve: WeightedCluster) -> set[PointId]:
    """Points with >= 2 curve-free points after them (>= 1 for satellites).

    One pass counts every excess, as :func:`excesses` does, and one sweep
    adds each free cluster point to its parent's count, so each count is
    the free-point count of the module docstring.  Raises
    :class:`NegativeResidual` when some excess is negative.
    """
    curve.require_kind(WeightKind.MULTIPLICITY)
    counts = excesses(curve)
    negative = [p for p, r in counts.items() if r < 0]
    if negative:
        raise NegativeResidual(
            f"multiplicity bookkeeping at point {min(negative)} is negative")
    parents, seconds = curve.tree.parents, curve.tree.seconds
    for q in counts:
        if seconds[q] is None and parents[q] is not None:
            counts[parents[q]] += 1
    return {p for p, c in counts.items()
            if c >= (2 if seconds[p] is None else 1)}


def invariant_quotient(curve: WeightedCluster, p: PointId) -> Fraction:
    """pairing(curve, chain of p) / origin weight of the chain.

    ``p`` may lie outside the curve cluster; chain points the curve does
    not weight simply contribute nothing (multiplicity 0), which makes the
    result a lower bound rather than the true quotient in that case.

    One sweep from p down the parent links, building no chain cluster.
    The chain weight of a point is the sum of the chain weights of the
    chain points proximate to it, and 1 at p.  A point's parent and second
    proximity both lie further down the chain, so a point's weight is
    final when the sweep reaches it: the sweep adds weight times
    multiplicity to the pairing there, and passes the weight on to the
    parent, which the sweep visits next, and to the second proximity,
    through a small dict of weights owed to points further down.
    :func:`~enriques.cluster.unibranch_chain` and
    :func:`~enriques.cluster.noether_pairing` are the definition.  A ``p``
    that is no arena point raises :class:`~enriques.errors.UnknownPoint`.

    The run step.  A point proximate to x makes every chain point between
    x and it proximate to x, so when the sweep reaches a point q, the only
    points owed a weight are q's parent and q's second proximity.  Let q
    lie in a recorded run f..last, f < q <= last, with second proximity s.
    Each point of f+1..q is the child of the one before, with second
    proximity s < f, so when q's parent is owed nothing, no point of
    f..q-1 is owed anything, and the chain weight w stays constant from q
    down to f.  The sweep then adds w times the multiplicities of f..q in
    one ``sum``, owes w once per point of f..q to s, and goes on from f's
    parent: the point-by-point sweep's arithmetic, so the quotient is the
    same ``Fraction``.  When q's parent is owed, the sweep takes one
    ordinary step, and the next point owes nothing to its parent, so no
    run costs more than two steps.  An arena that records no run takes no
    lookup.
    """
    tree = curve.tree
    tree._check(p)
    parents, seconds, weight = tree.parents, tree.seconds, curve.weight
    run_of = tree._run_of if tree._runs else None
    owed: dict[PointId, int] = {}
    pairing, w, q = 0, 1, p
    while True:
        pairing += w * weight.get(q, 0)
        a, s = parents[q], seconds[q]
        if a is None:
            return Fraction(pairing, w)
        if s is not None:
            if run_of is None or a in owed or (f := run_of(q)) is None:
                owed[s] = owed.get(s, 0) + w
            else:  # w stays on f..q, a piece of a recorded run
                pairing += w * sum(map(weight.get, range(f, q), repeat(0)))
                owed[s] = owed.get(s, 0) + w * (q - f + 1)
                a = parents[f]
        w += owed.pop(a, 0)
        q = a


def rupture_quotients(
    curve: WeightedCluster, base: PointId | None = None,
) -> dict[PointId, Fraction]:
    """The invariant quotient at each rupture point of the curve.

    With ``base``, only the rupture points equal to ``base`` or satellite
    of it.  One ascending sweep over the curve points, in place of one
    :func:`invariant_quotient` sweep per rupture point: the chain weight
    of p at q counts the paths from p down to q through parent and second
    proximity links, so the pairing of the curve with p's chain is

        v_p = e_p + v_parent + v_second,

    and the chain's origin weight is n_p.  A curve is ancestor-closed, so
    both links of a curve point lie in the curve and come earlier in the
    sweep.  The sweep reads only the arena columns and the curve weights,
    sharing no code with the conversions of :mod:`~enriques.cluster` or
    with :mod:`~enriques.recovery`, so that the oracle stays an
    independent check on them.  A ``base`` that is no arena point raises
    :class:`~enriques.errors.UnknownPoint`, as in :func:`invariant_quotient`.
    """
    curve.require_kind(WeightKind.MULTIPLICITY)
    tree, weight = curve.tree, curve.weight
    if base is not None:
        tree._check(base)
    parents, seconds = tree.parents, tree.seconds
    v: dict[PointId, int] = {}
    for q in sorted(weight):
        a, s = parents[q], seconds[q]
        v[q] = (weight[q] + (0 if a is None else v[a])
                + (0 if s is None else v[s]))
    ns, free_points = tree.ns, tree.free_points
    return {q: Fraction(v[q], ns[q]) for q in sorted(rupture_points(curve))
            if base is None or q == base or free_points[q] == base}
