"""Recovery of a curve's singular cluster from its polar base points.

Input: a consistent virtual cluster ``bp`` over an arena -- the weighted
cluster of points shared by the polar curves of an unknown reduced singular
curve.  Output: the curve's rupture points, its full weighted cluster of
singular points (values and multiplicities), and, per dicritical point of
``bp``, the exact invariant that identified the associated rupture point.

The run proceeds in two parts.

Part one, topology.  Every dicritical point d of ``bp`` (positive excess)
contributes one rupture point:

1. its *dicritical invariant* is I_d = pairing(bp, chain cluster of d) / n_d
   + 1, an exact rational.  The pairing is the part of m_d that the bp
   weights add to m0_d, the height over the empty cluster that the arena
   caches (see :mod:`~enriques.morphism`), so I_d = (m_d - m0_d + n_d) / n_d
   costs O(1) and builds no chain cluster;
2. the last link (p', p) of d's chain with p free and m_{p'}/n_{p'} < I_d
   names the free point p below the rupture point.  The scan runs from d
   down to the origin and stops at the first qualifying link;
3. from p, a bisection walk moves to the first satellite while the height
   quotient m/n exceeds I_d and to the second satellite while it falls
   short, stopping at the unique point q_d with m/n = I_d.  The walk makes
   at most numerator + denominator of I_d moves in one loop.  Each pass
   moves to the next point when the arena holds it, or else appends a run
   of equal moves at once: the points of a run share their second
   proximity, so the run's length is one division.

Steps 2 and 3 compare m/n with I_d = a/b as m*b against a*n, so no step
builds a fraction.

The singular set S is the downward closure of the rupture set R.

Part two, values.  Rupture points take v = m.  A free non-rupture point p
of S takes v = m when a free point of S lies in its first neighbourhood;
otherwise v is the unique integer in [ (n_p/n_q) m_q, (n_p/n_q) m_q + 1 )
for q the biggest rupture point at or above p's satellite cone.  A
satellite non-rupture point p with defining free point p' takes
v = (n_p/n_{p'}) v_{p'} when p is bigger than the cone's biggest rupture
point q and v_{p'} n_q = n_{p'} m_q both hold, else v = m_p.  Multiplicities
follow by the value/multiplicity conversion, and the result is checked for
consistency.

:func:`recover_grouped` is the same run with another schedule:
it visits dicriticals by descending invariant and walks once per distinct
(base free point, invariant) pair, reusing that walk's rupture point for
every dicritical that repeats the pair.  The walk is deterministic and
finds the points an earlier walk created, so its result equals
:func:`recover` exactly.

The invariant, the walk and the value rules read each point's parent,
defining free point, chain weights, m0 and ordered proximities from the
arena's columns and m from the list table of :mod:`~enriques.morphism`,
so none of them rebuilds a unibranch chain or builds a per-point object.
A full run counts the excesses of ``bp`` once: they give both the
consistency check and the dicritical points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .arena import ArenaTree, PointId
from .cluster import (
    WeightedCluster,
    WeightKind,
    excess,
    excesses,
    multiplicities_from_values,
    is_consistent,
)
from .errors import (
    EmptyRuptureSet,
    EnriquesError,
    InconsistentCluster,
    NoQualifyingPair,
    NonIntegralValue,
    NotDicritical,
    RecoveryError,
    UnknownPoint,
    WalkDiverged,
)
from .morphism import MorphismInvariants, require_base_points
from .ordering import max_under_prec, satellite_proximity

#: One line of walk trace: (point, m, n, decision), decision in
#: {"first", "second", "stop"}.
TraceEntry = tuple[PointId, int, int, str]


@dataclass(frozen=True)
class DicriticalAssociation:
    """What one dicritical point contributed to the recovery."""

    invariant: Fraction
    base_free_point: PointId
    rupture_point: PointId


@dataclass(frozen=True)
class RecoveryResult:
    rupture: frozenset[PointId]
    singular: frozenset[PointId]
    values: WeightedCluster
    multiplicities: WeightedCluster
    association: dict[PointId, DicriticalAssociation]
    created: frozenset[PointId]

    def same_result(self, other: "RecoveryResult") -> bool:
        """Mathematical equality, ignoring which run created arena points."""
        return (
            self.rupture == other.rupture
            and self.singular == other.singular
            and self.values == other.values
            and self.multiplicities == other.multiplicities
            and self.association == other.association
        )


# -- part one: topology ------------------------------------------------------


def dicritical_invariant(
    bp: WeightedCluster, inv: MorphismInvariants, d: PointId
) -> Fraction:
    """Exact invariant pairing(bp, chain of d) / n_d + 1.

    The pairing equals m_d - m0_d (see :mod:`~enriques.morphism`), so the
    invariant is (m_d - m0_d + n_d) / n_d, read in O(1) from the m table
    and the arena's columns.
    """
    if d not in bp.tree:
        raise UnknownPoint(f"no point with id {d}")
    if d not in bp or excess(bp, d) <= 0:
        raise NotDicritical(f"point {d} has no positive excess")
    return _invariant(bp.tree, inv, d)


def _invariant(tree: ArenaTree, inv: MorphismInvariants, d: PointId) -> Fraction:
    n_d, m_d = inv.extend_to(d)
    return Fraction(m_d - tree.m0s[d] + n_d, n_d)


def base_free_point(
    bp: WeightedCluster, inv: MorphismInvariants, d: PointId, invariant: Fraction
) -> tuple[PointId, PointId]:
    """Locate the free point whose satellite cone holds the rupture point.

    Returns the last chain link (p', p) of d, in order from the origin,
    with p free and the height quotient at p' below the invariant.  The
    scan runs from d down to the origin, so it stops at the first such
    link it meets.
    """
    inv.extend_to(d)  # checks d; the table then covers d's whole chain
    tree = bp.tree
    parents, seconds, ns, m = tree.parents, tree.seconds, tree.ns, inv.m
    num, den = invariant.numerator, invariant.denominator
    p, a = d, parents[d]
    while a is not None:
        if seconds[p] is None and m[a] * den < num * ns[a]:
            return a, p
        p, a = a, parents[a]
    raise NoQualifyingPair(
        f"no chain link of point {d} qualifies for invariant {invariant}")


def satellite_walk(
    tree: ArenaTree,
    inv: MorphismInvariants,
    p: PointId,
    invariant: Fraction,
    trace: Optional[Callable[[TraceEntry], None]] = None,
) -> PointId:
    """Bisect the satellite cone of ``p`` down to height quotient = invariant.

    Moves to the first satellite while m/n is too big, to the second while
    too small, creating points as needed.  The number of moves is capped at
    numerator + denominator of the invariant; exceeding the cap means the
    input was not a genuine cluster of polar base points.

    Each pass names the proximity s of the next move.  A point the arena
    already holds may carry weight, so the walk moves there alone.  Where
    the arena holds no such point, the walk appends a run of weightless
    points: every point of a run shares s, so the gap m*b - a*n to
    I = a/b changes by the same delta = m_s*b - a*n_s at each move, and
    the run's length is the least t that makes the gap change sign or
    vanish, one division.  A run whose delta cannot change the gap's
    sign, or whose end lies beyond the cap, raises :class:`WalkDiverged`
    before appending anything.  ``trace`` still sees one entry per
    visited point.
    """
    extend_to = inv.extend_to
    n, m = extend_to(p)  # checks p; every later point comes from the arena
    num, den = invariant.numerator, invariant.denominator
    cap = num + den
    find, ns, table = tree.find_satellite, tree.ns, inv.m
    q, moves = p, 0
    while True:
        gap = m * den - num * n
        if gap == 0:
            if trace:
                trace((q, m, n, "stop"))
            return q
        second = gap < 0
        word = "second" if second else "first"
        if trace:
            trace((q, m, n, word))
        s = satellite_proximity(tree, q, second)
        found = find(q, s)
        if found is not None:  # a point the arena holds: a run of one
            moves += 1
            if moves > cap:
                raise _diverged(invariant, cap, p)
            q = found
            n, m = extend_to(q)
            continue
        n_s, m_s = ns[s], table[s]
        delta = m_s * den - num * n_s
        if gap * delta >= 0:  # the run would never close the gap
            raise _diverged(invariant, cap, p)
        t = -(gap // delta)  # the least t with gap + t*delta at or past 0
        moves += t
        if moves > cap:
            raise _diverged(invariant, cap, p)
        q = inv.append_chain(q, s, t)
        if trace:
            for i in range(1, t):
                trace((q - t + i, m + i * m_s, n + i * n_s, word))
        n += t * n_s
        m += t * m_s


def _diverged(invariant: Fraction, cap: int, p: PointId) -> WalkDiverged:
    return WalkDiverged(
        f"no height quotient equal to {invariant} within"
        f" {cap} steps below point {p}")


def _biggest_rupture_by_cone(
    tree: ArenaTree, rupture: frozenset[PointId]
) -> dict[PointId, PointId]:
    """For each defining free point, the biggest rupture point of its cone."""
    free_points = tree.free_points
    cones: dict[PointId, list[PointId]] = {}
    for q in rupture:
        cones.setdefault(free_points[q], []).append(q)
    return {p: max_under_prec(tree, cone) for p, cone in cones.items()}


def _downward_closure(tree: ArenaTree, points) -> frozenset[PointId]:
    """The points with their ancestors; each chain stops at a closed point."""
    parents = tree.parents
    closed: set[PointId] = set()
    for p in points:
        while p is not None and p not in closed:
            closed.add(p)
            p = parents[p]
    return frozenset(closed)


def _by_descending_invariant(schedule: list[tuple[Fraction, PointId]]) -> None:
    """Sort (invariant, d) pairs, given in ascending d, by descending
    invariant, in place.

    Each invariant a/b is keyed by the integer a * (L // b), L the lcm of
    the denominators, so the sort compares no fractions; it is stable, so
    equal invariants keep ascending d.
    """
    lcm = math.lcm(*(i.denominator for i, _ in schedule))
    schedule.sort(key=lambda pair: -pair[0].numerator * (
        lcm // pair[0].denominator))


# -- part two: values ---------------------------------------------------------


def _only_integer_in_unit_interval(num: int, den: int) -> int:
    """The single integer in [x, x+1) for x = num/den, den > 0: ceil(x)."""
    return -(-num // den)


def recover_values(
    bp: WeightedCluster,
    inv: MorphismInvariants,
    rupture: frozenset[PointId],
    singular: frozenset[PointId],
) -> WeightedCluster:
    """Values of the unknown curve on its singular points.

    Processes rupture points, then free points, then satellite points; the
    satellite rule consumes the already-recovered value at the defining
    free point.  ``singular`` must hold ``rupture``, as the topology's
    downward closure does.
    """
    tree = bp.tree
    if singular:
        if min(singular) < 0:
            raise UnknownPoint(f"no point with id {min(singular)}")
        inv.extend_to(max(singular))  # checks, and covers every point
    m = inv.m
    seconds, children = tree.seconds, tree.children
    free_points, ns, ks = tree.free_points, tree.ns, tree.ks
    values: dict[PointId, int] = {q: m[q] for q in rupture}
    free_rest: list[PointId] = []
    satellite_rest: list[PointId] = []
    for p in singular:
        if p not in rupture:
            if seconds[p] is None:
                free_rest.append(p)
            else:
                satellite_rest.append(p)
    biggest_rupture = _biggest_rupture_by_cone(tree, rupture)

    for p in free_rest:
        if any(c in singular and seconds[c] is None for c in children[p]):
            values[p] = m[p]
            continue
        q = biggest_rupture.get(p)
        if q is None:
            raise EmptyRuptureSet(
                f"free singular point {p} has no rupture point in its"
                " satellite cone")
        values[p] = _only_integer_in_unit_interval(ns[p] * m[q], ns[q])
    for p in satellite_rest:
        p_free = free_points[p]
        q = biggest_rupture.get(p_free)
        if q is None:
            raise EmptyRuptureSet(
                f"satellite point {p} has no rupture point in the cone"
                f" of its defining free point {p_free}")
        n_q, m_q, n_pf = ns[q], m[q], ns[p_free]
        v_pf = values[p_free]
        # p and q share a cone, so p > q compares their fractions k/n
        if ks[p] * n_q > ks[q] * ns[p] and v_pf * n_q == n_pf * m_q:
            numerator = ns[p] * v_pf
            if numerator % n_pf:
                raise NonIntegralValue(
                    f"value at satellite {p} would be {numerator}/{n_pf}")
            values[p] = numerator // n_pf
        else:
            values[p] = m[p]
    return WeightedCluster(tree, WeightKind.VALUE, values)


# -- full runs ----------------------------------------------------------------


def _recover(
    bp: WeightedCluster,
    trace: Optional[Callable[[TraceEntry], None]],
    grouped: bool,
) -> RecoveryResult:
    """A full run under either schedule.

    The basic schedule walks every dicritical in ascending id.  The grouped
    schedule visits them by descending invariant and walks each
    (base free point, invariant) pair once.  An error raised once the input
    is known to be base points carries the partial association.
    """
    tree = bp.tree
    before = len(tree)
    rho = excesses(bp)
    require_base_points(bp, rho)
    association: dict[PointId, DicriticalAssociation] = {}
    try:
        inv = MorphismInvariants(bp)
        dicriticals = sorted(p for p, r in rho.items() if r > 0)
        origin = tree.origin
        if dicriticals and dicriticals[0] == origin:
            association[origin] = DicriticalAssociation(
                _invariant(tree, inv, origin), origin, origin)
            dicriticals = dicriticals[1:]
        schedule = [(_invariant(tree, inv, d), d) for d in dicriticals]
        walked: dict[tuple[PointId, int, int], PointId] = {}
        if grouped:
            _by_descending_invariant(schedule)
        for invariant, d in schedule:
            _, p = base_free_point(bp, inv, d, invariant)
            if grouped:
                key = (p, invariant.numerator, invariant.denominator)
                q = walked.get(key)
                if q is None:
                    q = walked[key] = satellite_walk(
                        tree, inv, p, invariant, trace)
            else:
                q = satellite_walk(tree, inv, p, invariant, trace)
            association[d] = DicriticalAssociation(invariant, p, q)
        rupture = frozenset(a.rupture_point for a in association.values())
        singular = _downward_closure(tree, rupture)
        values = recover_values(bp, inv, rupture, singular)
        multiplicities = multiplicities_from_values(values)
        if not is_consistent(multiplicities):
            raise InconsistentCluster(
                "recovered multiplicities are not consistent; the input is"
                " not a cluster of polar base points")
        for d, assoc in association.items():
            if inv.height_quotient(assoc.rupture_point) != assoc.invariant:
                raise RecoveryError(
                    f"height quotient at {assoc.rupture_point} does not"
                    f" match the invariant of dicritical {d}")
    except EnriquesError as err:
        err.association = dict(association)
        raise
    return RecoveryResult(
        rupture=rupture,
        singular=singular,
        values=values,
        multiplicities=multiplicities,
        association=association,
        created=frozenset(range(before, len(tree))),
    )


def recover(
    bp: WeightedCluster,
    trace: Optional[Callable[[TraceEntry], None]] = None,
) -> RecoveryResult:
    """Full recovery, one walk per dicritical point."""
    return _recover(bp, trace, grouped=False)


def recover_grouped(
    bp: WeightedCluster,
    trace: Optional[Callable[[TraceEntry], None]] = None,
) -> RecoveryResult:
    """Full recovery with the descending-invariant scheduling.

    Walks once per distinct (base free point, invariant) pair, so ``trace``
    sees one ``stop`` entry per walk rather than per dicritical.
    """
    return _recover(bp, trace, grouped=True)


def classify_free_points(result: RecoveryResult) -> dict[PointId, bool]:
    """For each free singular point: does a branch leave the curve there?

    True when the point is a rupture point, or when its recovered value
    differs from (n_p/n_q) m_q for q the biggest rupture point of its
    satellite cone -- exactly the points where some branch of the curve
    passes and is non-singular immediately after.
    """
    tree = result.values.tree
    biggest_rupture = _biggest_rupture_by_cone(tree, result.rupture)
    out: dict[PointId, bool] = {}
    ns, seconds = tree.ns, tree.seconds
    for p in result.singular:
        if seconds[p] is not None:
            continue
        if p in result.rupture:
            out[p] = True
            continue
        q = biggest_rupture.get(p)
        if q is None:
            out[p] = False
            continue
        n_p, n_q = ns[p], ns[q]
        m_q = result.values[q]  # value equals height at rupture points
        out[p] = result.values[p] * n_q != n_p * m_q
    return out
