"""Forward computations from a curve's own singular cluster.

Everything here starts from the answer -- a curve's weighted cluster of
singular points with effective multiplicities -- and derives the quantities
the recovery algorithm reconstructs from polar base points: rupture points,
invariant quotients.  Past the types, it shares with
:mod:`~enriques.recovery` only the arena's columns, facts included, and
:func:`excess` and :func:`excesses` (each reads its own function of
:mod:`~enriques.ordering`), so agreement between them is a meaningful
check.  A function that counts a curve's points or branches raises
:class:`WrongKind` on another kind of cluster.  Every cluster is sound by
construction (see :class:`~enriques.cluster.WeightedCluster`): it is
ancestor-closed, and its points, like every arena point, keep the arena
rules, so the sweeps here read each point's links without a check of
their own.  Only a point taken from the arena rather than the curve, as
in :func:`invariant_quotient`, is checked where it enters.

A multiplicity cluster describes an actual curve exactly when it is
consistent (no negative excess) and *singular-saturated*: every point is
multiple, or satellite, or precedes a satellite point of the cluster.  The
excess at a point then counts the branches of the curve that leave the
cluster there, each through its own free simple point in the first
neighbourhood.  Hence the number of free points of the curve in the first
neighbourhood of p is

    (free cluster children of p)  +  excess at p,

and p is a rupture point when this count reaches 2 for free p, or 1 for
satellite p.

Branches are never materialized, not even as chain clusters: whether one
is bigger than a point q reads the k/n facts of the curve points of q's
cone where a branch leaves that cone (see :func:`has_bigger_branch`).

The invariant quotient at p is pairing(curve, chain cluster of p) divided
by the chain's origin weight; the polar invariants of the curve are the
values of :func:`rupture_quotients`, the invariant quotients at its
rupture points (with a base point, at those equal to or satellite of it).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .arena import PointId
from .cluster import WeightedCluster, WeightKind, excess, excesses
from .errors import (
    Diagnostic, NegativeResidual, OracleError, UnknownPoint)
from .ordering import defining_free_point


def validate_curve_cluster(curve: WeightedCluster) -> list[Diagnostic]:
    """Diagnostics for the curve-cluster invariants (empty = valid)."""
    out: list[Diagnostic] = []
    curve.require_kind(WeightKind.MULTIPLICITY)
    tree = curve.tree
    rho = excesses(curve)
    for p, r in rho.items():
        if r < 0:
            out.append(Diagnostic(
                "Inconsistent", p, f"excess {r} is negative"))
    has_satellite = {p: tree.is_satellite(p) for p in curve.points}
    for p in sorted(curve.points, reverse=True):
        parent = tree.parent(p)
        if has_satellite[p] and parent in has_satellite:
            has_satellite[parent] = True
    for p in curve.points:
        if curve.weight[p] == 1 and not has_satellite[p]:
            out.append(Diagnostic(
                "NotSaturated", p,
                "simple free point with no satellite above it"))
    origin = tree.origin
    if origin is not None and origin in curve:
        if curve.weight[origin] < 2 and not has_satellite[origin]:
            out.append(Diagnostic(
                "NotSingular", origin,
                "cluster describes a smooth curve"))
    return out


def free_count_first_neighbourhood(curve: WeightedCluster, p: PointId) -> int:
    """Number of free points of the curve in the first neighbourhood of p.

    Free cluster children of p plus the excess at p; the excess counts the
    branches continuing to free non-singular points outside the cluster.
    Both read only p's children and the satellites proximate to p (see
    :func:`excess`), so the cost does not grow with the curve.

    Raises :class:`UnknownPoint` when p is not a point of the curve and
    :class:`NegativeResidual` when the excess at p is negative.
    """
    curve.require_kind(WeightKind.MULTIPLICITY)
    if p not in curve:
        raise UnknownPoint(f"point {p} is not in the curve cluster")
    residual = excess(curve, p)
    if residual < 0:
        raise NegativeResidual(
            f"multiplicity bookkeeping at point {p} is negative")
    weight, seconds = curve.weight, curve.tree.seconds
    free_children = sum(
        1 for c in curve.tree.children[p]
        if c in weight and seconds[c] is None)
    return free_children + residual


def rupture_points(curve: WeightedCluster) -> set[PointId]:
    """Points with >= 2 curve-free points after them (>= 1 for satellites).

    One pass counts every excess, as :func:`excesses` does, and one sweep
    adds each free cluster point to its parent's count, so the result is
    :func:`free_count_first_neighbourhood` at every point.  Raises
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
    that is no arena point raises :class:`UnknownPoint`.
    """
    tree = curve.tree
    if p not in tree:
        raise UnknownPoint(f"no point with id {p}")
    parents, seconds, weight = tree.parents, tree.seconds, curve.weight
    owed: dict[PointId, int] = {}
    pairing, w, q = 0, 1, p
    while True:
        pairing += w * weight.get(q, 0)
        a, s = parents[q], seconds[q]
        if a is None:
            return Fraction(pairing, w)
        if s is not None:
            owed[s] = owed.get(s, 0) + w
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
    sharing no code with the conversions of :mod:`~enriques.cluster`, with
    :mod:`~enriques.morphism` or with :mod:`~enriques.recovery`, so that
    the oracle stays an independent check on them.  A ``base`` that is no
    arena point raises :class:`UnknownPoint`, as in
    :func:`invariant_quotient`.
    """
    curve.require_kind(WeightKind.MULTIPLICITY)
    tree, weight = curve.tree, curve.weight
    if base is not None and base not in tree:
        raise UnknownPoint(f"no point with id {base}")
    parents, seconds = tree.parents, tree.seconds
    v: dict[PointId, int] = {}
    for q in sorted(weight):
        a, s = parents[q], seconds[q]
        v[q] = (weight[q] + (0 if a is None else v[a])
                + (0 if s is None else v[s]))
    ns, free_points = tree.ns, tree.free_points
    return {q: Fraction(v[q], ns[q]) for q in sorted(rupture_points(curve))
            if base is None or q == base or free_points[q] == base}


def has_bigger_branch(curve: WeightedCluster, q: PointId) -> bool:
    """Whether some branch of the curve is bigger than the point ``q``.

    A branch leaving the cluster at t is bigger than q when q's defining
    free point p is on t's chain and q's k/n is below that of the last
    point r of t's chain in p's cone (see :mod:`~enriques.ordering`).  Such
    an r is a curve point of p's cone with positive excess (r = t) or with
    a free cluster child, and weights of at least 1 put a point of positive
    excess above every free child.  This branch side reads arena facts and
    the local :func:`excess` only; it shares no code with
    :func:`invariant_quotient`.
    """
    curve.require_kind(WeightKind.MULTIPLICITY)
    tree = curve.tree
    p = defining_free_point(tree, q)
    ks, ns, seconds = tree.ks, tree.ns, tree.seconds
    cone = [p] if p in curve else []
    for r in cone:
        kids = [c for c in tree.children[r] if c in curve]
        cone += [c for c in kids if tree.free_points[c] == p]
        if ks[q] * ns[r] < ks[r] * ns[q] and (
                excess(curve, r) > 0 or any(seconds[c] is None for c in kids)):
            return True
    return False


def check_growth(
    curve: WeightedCluster,
    samples: Iterable[tuple[PointId, PointId]],
) -> list[str]:
    """Check monotonicity of invariant quotients on sampled pairs.

    Each sample (q1, q2) must have q1 satellite, q2 equal to or satellite
    of the same free point p, and q1 smaller than q2.  With p' the point p
    is proximate to, the checks are

        I(p') <= I(q1),  equality iff p is not on the curve, and
        I(q1) <= I(q2),  equality iff no branch of the curve is bigger
                         than q1.

    Returns a description of every violated check (expected: none).  A
    sample outside that precondition is no fact about the curve: it raises
    :class:`OracleError`, a free q1 first.
    """
    tree = curve.tree
    ks, ns = tree.ks, tree.ns
    violations = []
    for q1, q2 in samples:
        if tree.second_proximity(q1) is None:
            raise OracleError(f"sample ({q1}, {q2}): {q1} is not a satellite")
        p = defining_free_point(tree, q1)
        if not (defining_free_point(tree, q2) == p
                and ks[q1] * ns[q2] < ks[q2] * ns[q1]):
            raise OracleError(
                f"sample ({q1}, {q2}): {q2} is not bigger than {q1}"
                f" in the cone of {p}")
        p_prev = tree.parent(p)
        i_prev = invariant_quotient(curve, p_prev)
        i_q1 = invariant_quotient(curve, q1)
        i_q2 = invariant_quotient(curve, q2)
        if not i_prev <= i_q1:
            violations.append(f"I({p_prev}) > I({q1})")
        if (i_prev == i_q1) != (p not in curve):
            violations.append(
                f"equality I({p_prev}) = I({q1}) disagrees with"
                f" membership of {p}")
        if not i_q1 <= i_q2:
            violations.append(f"I({q1}) > I({q2})")
        if (i_q1 == i_q2) != (not has_bigger_branch(curve, q1)):
            violations.append(
                f"equality I({q1}) = I({q2}) disagrees with branches"
                f" bigger than {q1}")
    return violations
