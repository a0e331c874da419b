"""Statements from the paper that ``recover`` does not run, kept as the
definitions the suites build inputs with and check the library against.

Satellite navigation.  Every free point p (proximate to p') has exactly one
satellite in its first neighbourhood, the point proximate to p and p'; it
is the first satellite of p and sits strictly between p' and p in the
order of :mod:`chain_reference`.  A satellite q proximate to a and b, with
a smaller than b, has exactly two satellites in its first neighbourhood:
the first (proximate to q and a, below q) and the second (proximate to q
and b, above q).  :func:`first_satellite` and :func:`second_satellite`
find the requested neighbour in the arena and create it when the arena
does not hold it yet.  They read the arena's ``pairs`` and ``parents``
columns, not the recovery walk, and raise the walk's errors where a
satellite does not exist.

Curve clusters.  A multiplicity cluster describes an actual curve exactly
when it is consistent (no negative excess) and *singular-saturated*: every
point is multiple, or satellite, or precedes a satellite point of the
cluster (:func:`validate_curve_cluster`).  A free singular point of a
recovered curve is where a branch passes and is non-singular right after
exactly when it is a rupture point or its value is off the line through
the biggest rupture point of its cone (:func:`classify_free_points`).

Values.  The value at a point is its multiplicity plus the values at the
points it is proximate to (:func:`values_from_multiplicities`), the sweep
that ``enriques.multiplicities_from_values`` inverts.  The number of free
points of a curve in the first neighbourhood of p is its free cluster
children plus the excess at p (:func:`free_count_first_neighbourhood`);
``enriques.rupture_points`` is where it reaches 2 for free p and 1 for
satellite p.

Heights.  The m and n recursions of :mod:`enriques.morphism` can be
solved for the base-point weight at a point from m and n alone
(:func:`jacobian_multiplicity_check`).
"""

from enriques import WeightKind, WeightedCluster, excesses
from enriques.errors import (
    Diagnostic, NegativeResidual, OriginHasNoSatellite,
    SecondSatelliteOfFreePoint)

from chain_reference import max_by_fraction


def child_list(tree, p):
    """The children of ``p`` in arena order, by one scan of the arena's
    ``parents`` column; an id the arena does not hold raises its
    :class:`~enriques.errors.UnknownPoint`."""
    tree._check(p)
    return [c for c, a in enumerate(tree.parents) if a == p]


def _find_or_create(tree, q, s):
    found = tree.find_satellite(q, s)
    return tree.add_point(q, s) if found is None else found


def first_satellite(tree, q):
    """The smaller satellite in the first neighbourhood of ``q``, proximate
    to q and to q's parent (free q) or q's smaller proximity (satellite q).
    The point is created if the arena does not contain it yet."""
    pair = tree.pairs[q]
    s = tree.parents[q] if pair is None else pair[0]
    if s is None:
        raise OriginHasNoSatellite("the origin has no satellite points")
    return _find_or_create(tree, q, s)


def second_satellite(tree, q):
    """The bigger satellite in the first neighbourhood of a satellite ``q``,
    proximate to q and to q's bigger proximity."""
    pair = tree.pairs[q]
    if pair is None:
        raise SecondSatelliteOfFreePoint(
            f"point {q} is free; only satellites have a second satellite")
    return _find_or_create(tree, q, pair[1])


def validate_curve_cluster(curve):
    """Diagnostics for the curve-cluster invariants (empty = valid)."""
    out = []
    curve.require_kind(WeightKind.MULTIPLICITY)
    tree = curve.tree
    rho = excesses(curve)
    for p, r in rho.items():
        if r < 0:
            out.append(Diagnostic(
                "Inconsistent", p, f"excess {r} is negative"))
    has_satellite = {p: tree.seconds[p] is not None for p in curve.points}
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


def values_from_multiplicities(cluster):
    """Total-transform values from effective multiplicities, in one sweep
    in topological order: both proximities of a point come before it."""
    cluster.require_kind(WeightKind.MULTIPLICITY)
    tree = cluster.tree
    values = {}
    for p in cluster.ordered_points():
        a, s = tree.parents[p], tree.seconds[p]
        values[p] = (cluster.weight[p] + (0 if a is None else values[a])
                     + (0 if s is None else values[s]))
    return WeightedCluster(tree, WeightKind.VALUE, values)


def free_count_first_neighbourhood(curve, p):
    """Free cluster children of ``p`` plus the excess at ``p``, by one scan
    over the curve's points; a negative excess raises
    :class:`~enriques.errors.NegativeResidual`."""
    curve.require_kind(WeightKind.MULTIPLICITY)
    parents, seconds = curve.tree.parents, curve.tree.seconds
    residual, free_children = curve[p], 0
    for q, w in curve.weight.items():
        if p in (parents[q], seconds[q]):
            residual -= w
            free_children += seconds[q] is None
    if residual < 0:
        raise NegativeResidual(
            f"multiplicity bookkeeping at point {p} is negative")
    return free_children + residual


def classify_free_points(result):
    """For each free singular point of a recovery result: does a branch
    leave the curve there?

    True when the point is a rupture point, or when its recovered value
    differs from (n_p/n_q) m_q for q the biggest rupture point of its
    satellite cone (a rupture point's value is its m) -- exactly the
    points where some branch of the curve passes and is non-singular
    immediately after.
    """
    tree, values = result.values.tree, result.values
    cones = {}
    for q in result.rupture:
        cones.setdefault(tree.free_points[q], []).append(q)
    ns, seconds = tree.ns, tree.seconds
    out = {}
    for p in result.singular:
        if seconds[p] is None:
            q = max_by_fraction(tree, cones[p]) if p in cones else None
            out[p] = p in result.rupture or (
                q is not None and values[p] * ns[q] != ns[p] * values[q])
    return out


def jacobian_multiplicity_check(inv, p):
    """The base-point weight at ``p`` recomputed from the (n, m) table
    ``inv`` alone.

    Returns m+n-2 at the origin, m+n-m'-n'-1 at free points and
    m+n-m'-n'-m''-n'' at satellites, with ' and '' the point's proximities;
    on every point this must equal the bp-weight of ``p`` (0 outside the
    cluster).
    """
    n, m = inv.extend_to(p)
    tree = inv.tree
    parent = tree.parent(p)
    if parent is None:
        return m + n - 2
    np_, mp_ = inv.extend_to(parent)
    second = tree.second_proximity(p)
    if second is None:
        return m + n - mp_ - np_ - 1
    np2, mp2 = inv.extend_to(second)
    return m + n - mp_ - np_ - mp2 - np2
