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
   short, stopping at the unique point q_d with m/n = I_d, in at most
   numerator + denominator of I_d moves (see :func:`satellite_walk`).

Steps 2 and 3 compare m/n with I_d = a/b as m*b against a*n, so no step
builds a fraction.  A run builds one :class:`Fraction` per distinct
(m_d - m0_d + n_d, n_d), read from the m table and the arena's ``ns`` and
``m0s`` columns, and every dicritical that repeats the pair shares it (a
fan of chains repeats a few invariants over many dicriticals).  Each
dicritical reads a and b from it once; the scan, the walk and the walk
memo's key take them as integers.  Each dicritical's
:class:`DicriticalAssociation` is a named tuple.  The public
:func:`base_free_point` and :func:`satellite_walk` check their point and
hand a and b to the same bodies.  All four public steps, these two,
:func:`dicritical_invariant` and :func:`recover_values`, raise
:class:`~enriques.errors.ArenaMismatch` on an m table built for another
cluster or arena.  The singular set S is the downward closure of the
rupture set R.

Part two, values and multiplicities, in one sweep over S in ascending id.
Ids are topological, so the parent, the second proximity and the defining
free point of a point come before it, and every value a rule reads is
already set.  One pass over R first keeps, per defining free point, the
biggest rupture point of its cone under the order ≺ that
:func:`_biggest_rupture_by_cone` states, by k/n facts.  Rupture points take
v = m.  A free non-rupture point p of S takes v = m when a free point of
S lies in its first neighbourhood; otherwise v is the unique integer in
[ (n_p/n_q) m_q, (n_p/n_q) m_q + 1 ) for q the biggest rupture point at or
above p's satellite cone.  A satellite non-rupture point p with defining
free point p' takes v = (n_p/n_{p'}) v_{p'} when p is bigger than the
cone's biggest rupture point q and v_{p'} n_q = n_{p'} m_q both hold, else
v = m_p.  The
multiplicity at p is v_p minus the values at the points p is proximate to,
and the sweep subtracts it from their excesses at once; a negative excess
makes the result inconsistent.  The sweep's two dicts then become the
result's clusters as they are: the sweep has established everything that
:class:`~enriques.cluster.WeightedCluster` checks, so they are neither
copied nor checked again.

Each rupture point's m/n equals its dicritical's invariant by
construction, so no run checks it: the walk returns only at gap
m*b - a*n = 0, a memo hit returns the point an earlier walk found for the
same (p, a, b), and the origin's invariant is m_O/1 with n_O = 1.

A run visits the dicriticals in ascending id in one loop, each one's
invariant and then its walk, and walks once per distinct (base free
point, invariant) pair, reusing that walk's rupture point for
every dicritical that repeats the pair.  The walk is deterministic and
finds the points an earlier walk created, so the order of the visits
carries no mathematics; :func:`recover_grouped` is another name for the
same run and returns exactly the result of :func:`recover`.

The invariant, the walk and the sweep read each point's facts from the
arena's columns and m from the list table of :mod:`~enriques.morphism`,
so none of them rebuilds a unibranch chain or builds a per-point object.
The walk appends each run it creates through the arena's private
``ArenaTree._append_run``, whose precondition it has proved, and extends
the table over the run itself, so the table keeps covering the arena.
A full run counts the excesses of ``bp`` once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .arena import ArenaTree, PointId
from .cluster import WeightedCluster, WeightKind, excess, excesses
from .errors import (
    ArenaMismatch, EmptyRuptureSet, EnriquesError, InconsistentCluster,
    NoQualifyingPair, NonPositiveMultiplicity, NotDicritical,
    NotDownwardClosed, RecoveryError, OriginHasNoSatellite,
    SecondSatelliteOfFreePoint, UnknownPoint, WalkDiverged)
from .morphism import MorphismInvariants, require_base_points

#: One line of walk trace: (point, m, n, decision), decision in
#: {"first", "second", "stop"}.
TraceEntry = tuple[PointId, int, int, str]


class DicriticalAssociation(NamedTuple):
    """What one dicritical point contributed to the recovery.

    A tuple, so it also equals a plain tuple of the same three values.
    """

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


def _require_table(bp: WeightedCluster, inv: MorphismInvariants) -> None:
    """Refuse an m table built for another cluster or arena.  A caller
    that passes the cluster object the table was built for, as a run
    does, pays one identity check; an equal cluster is compared."""
    if inv.bp is not bp and inv.bp != bp:
        raise ArenaMismatch("the m table was built for another cluster")


def dicritical_invariant(
    bp: WeightedCluster, inv: MorphismInvariants, d: PointId
) -> Fraction:
    """Exact invariant pairing(bp, chain of d) / n_d + 1.

    The pairing equals m_d - m0_d (see :mod:`~enriques.morphism`), so the
    invariant is (m_d - m0_d + n_d) / n_d, read in O(1) from the m table
    and the arena's columns.
    """
    _require_table(bp, inv)
    if d not in bp.tree:
        raise UnknownPoint(f"no point with id {d}")
    if d not in bp or excess(bp, d) <= 0:
        raise NotDicritical(f"point {d} has no positive excess")
    n_d, m_d = inv.extend_to(d)
    return Fraction(m_d - bp.tree.m0s[d] + n_d, n_d)


def base_free_point(
    bp: WeightedCluster, inv: MorphismInvariants, d: PointId, invariant: Fraction
) -> tuple[PointId, PointId]:
    """Locate the free point whose satellite cone holds the rupture point.

    Returns the last chain link (p', p) of d, in order from the origin,
    with p free and the height quotient at p' below the invariant.  The
    scan runs from d down to the origin, so it stops at the first such
    link it meets.
    """
    _require_table(bp, inv)
    inv.extend_to(d)  # checks d; the table then covers d's whole chain
    return _base_free_point(
        bp.tree, inv.m, d, invariant.numerator, invariant.denominator)


def _base_free_point(tree: ArenaTree, m: list, d: PointId, num: int,
                     den: int) -> tuple[PointId, PointId]:
    """:func:`base_free_point` for num/den, on a table m covering d's chain.

    With d's own invariant, as :func:`recover` passes it, the scan always
    stops, so :class:`NoQualifyingPair` is reached only through
    :func:`base_free_point` with another invariant.  Let d be a dicritical
    other than the origin O, and p1 the point after O on d's chain.  The
    link (O, p1) qualifies: p1 is free, since O has no proximity for a
    satellite to share, and m_O = w_O + 1 with n_O = 1.  The pairing of
    bp with d's chain cluster weights O by n_d and d by 1, and every other
    term is at least 0, so it is at least n_d w_O + w_d; and w_d >= 1,
    since d's excess is positive and no virtual weight is negative.  So
    I_d >= w_O + 1/n_d + 1 > m_O / n_O, and the scan stops by that link.
    """
    parents, seconds, ns = tree.parents, tree.seconds, tree.ns
    p, a = d, parents[d]
    while a is not None:
        if seconds[p] is None and m[a] * den < num * ns[a]:
            return a, p
        p, a = a, parents[a]
    raise NoQualifyingPair(
        f"no chain link of point {d} qualifies for invariant"
        f" {Fraction(num, den)}")


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
    visited point.  A table built over another arena raises
    :class:`~enriques.errors.ArenaMismatch`.
    """
    if inv.tree is not tree:
        raise ArenaMismatch("the m table was built over another arena")
    inv._grow()  # the walk reads m at any point of the arena it finds
    inv.extend_to(p)  # checks p
    return _satellite_walk(tree, inv.m, p, invariant.numerator,
                           invariant.denominator, trace)


def _satellite_walk(tree: ArenaTree, table: list, p: PointId,
                    num: int, den: int, trace) -> PointId:
    """:func:`satellite_walk` for num/den, on an m table covering the
    arena.  Each run it creates goes in through
    :meth:`~enriques.arena.ArenaTree._append_run`, whose precondition the
    checks before the call establish, and the next line extends the table
    over the run: m grows by m_s from point to point, starting from the
    run parent's m, since the new points lie outside the cluster."""
    find, ns = tree.find_satellite, tree.ns
    n, m = ns[p], table[p]
    cap = num + den
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
        s = _satellite_proximity(tree, q, second)
        found = find(q, s)
        if found is not None:  # a point the arena holds: a run of one
            moves += 1
            if moves > cap:
                raise _diverged(num, den, cap, p)
            q = found
            n, m = ns[q], table[q]
            continue
        n_s, m_s = ns[s], table[s]
        delta = m_s * den - num * n_s
        if gap * delta >= 0:  # the run would never close the gap
            raise _diverged(num, den, cap, p)
        t = -(gap // delta)  # the least t with gap + t*delta at or past 0
        moves += t
        if moves > cap:
            raise _diverged(num, den, cap, p)
        q = tree._append_run(q, s, t)
        table.extend(range(m + m_s, m + (t + 1) * m_s, m_s))
        if trace:
            for i in range(1, t):
                trace((q - t + i, m + i * m_s, n + i * n_s, word))
        n += t * n_s
        m += t * m_s


def _satellite_proximity(tree: ArenaTree, q: PointId, second: bool) -> PointId:
    """The point that the first (or second) satellite of ``q`` is also
    proximate to, besides ``q``.

    A free point p proximate to p' has one satellite in its first
    neighbourhood, its first satellite, proximate to p and p'.  A satellite
    q with ordered proximities (a, b) has two: the first, proximate to q
    and a, and the second, proximate to q and b.  So this is a free point's
    parent, a satellite's smaller proximity for the first satellite and
    its bigger one for the second.  Every later satellite on the same side
    keeps this proximity, so a run of equal moves in the satellite cone
    shares it.
    """
    pair = tree.pairs[q]
    if second:
        if pair is None:
            raise SecondSatelliteOfFreePoint(
                f"point {q} is free; only satellites have a second satellite")
        return pair[1]
    s = tree.parents[q] if pair is None else pair[0]
    if s is None:
        raise OriginHasNoSatellite("the origin has no satellite points")
    return s


def _diverged(num: int, den: int, cap: int, p: PointId) -> WalkDiverged:
    return WalkDiverged(
        f"no height quotient equal to {Fraction(num, den)} within"
        f" {cap} steps below point {p}")


def _biggest_rupture_by_cone(
    tree: ArenaTree, rupture: frozenset[PointId]
) -> dict[PointId, PointId]:
    """For each defining free point, the biggest rupture point of its cone.

    The defining free point of q is the last free point on q's chain (q
    itself when q is free), and q lies in that point's satellite cone at
    the fraction k/n: the weight of q's unibranch chain at the defining
    free point over its weight at the origin, in (0, 1], fixed on append
    (see :class:`~enriques.arena.PointFacts`).  The paper's order puts
    q1 below q2 (q1 ≺ q2) when q1's defining free point p lies on q2's
    chain and q1's fraction at p does not exceed q2's.  Within one cone
    that compares k/n alone, and distinct points of a cone have distinct
    fractions, since each move into the cone refines the fraction like a
    mediant search; so ≺ totally orders a cone, and this is the only
    place where the recovery takes a maximum under it.  One pass keeps a
    running maximum per cone, comparing k1 n2 with k2 n1."""
    free_points, ns, ks = tree.free_points, tree.ns, tree.ks
    biggest: dict[PointId, PointId] = {}
    for q in rupture:
        p = free_points[q]
        b = biggest.get(p)
        if b is None or ks[q] * ns[b] > ks[b] * ns[q]:
            biggest[p] = q
    return biggest


def _downward_closure(tree: ArenaTree, points) -> frozenset[PointId]:
    """The points with their ancestors; each chain stops at a closed point."""
    parents = tree.parents
    closed: set[PointId] = set()
    for p in points:
        while p is not None and p not in closed:
            closed.add(p)
            p = parents[p]
    return frozenset(closed)


# -- part two: values ---------------------------------------------------------


def recover_values(
    bp: WeightedCluster,
    inv: MorphismInvariants,
    rupture: frozenset[PointId],
    singular: frozenset[PointId],
) -> WeightedCluster:
    """Values of the unknown curve on its singular points, by the sweep of
    :func:`_second_half`.  ``singular`` must be downward closed and hold
    ``rupture``, as the topology's downward closure is.  ``recover`` never
    passes a bad point or a gap, so the checks live here, not in the sweep."""
    _require_table(bp, inv)
    tree = bp.tree
    for p in rupture | singular:
        if p not in tree:
            raise UnknownPoint(f"no point with id {p}")
    missing = rupture - singular
    if missing:
        raise NotDownwardClosed(
            f"rupture point {min(missing)} is not in the singular set")
    inv._grow()  # the sweep reads m at every point of the set
    try:
        values, _, _ = _second_half(tree, inv.m, rupture, singular)
    except KeyError:  # a point's parent, second or free point is missing
        raise NotDownwardClosed(
            "the singular set is not downward closed") from None
    return WeightedCluster(tree, WeightKind.VALUE, values)


def _second_half(
    tree: ArenaTree,
    m: list,
    rupture: frozenset[PointId],
    singular: frozenset[PointId],
) -> tuple[dict[PointId, int], dict[PointId, int], Optional[EnriquesError]]:
    """Values, multiplicities and their excesses in one ascending sweep.

    Returns the values, the multiplicities and, for the caller to raise,
    :class:`NonPositiveMultiplicity` at the first multiplicity below 1, else
    :class:`InconsistentCluster`, else None.  A value rule's error is
    raised, a satellite's only once every free point's rule has run.  The
    points are arena points, downward closed, in the m table ``m``."""
    parents, seconds, children = tree.parents, tree.seconds, tree.children
    free_points, ns, ks = tree.free_points, tree.ns, tree.ks
    biggest_rupture = _biggest_rupture_by_cone(tree, rupture)
    values, mults, rho = {}, {}, {}  # each by point id
    failed: Optional[RecoveryError] = None  # a satellite rule's first error
    rejected: Optional[EnriquesError] = None
    for p in sorted(singular):
        s = seconds[p]
        if p in rupture:
            v = m[p]
        elif s is None:
            for c in children[p]:
                if seconds[c] is None and c in singular:
                    v = m[p]
                    break
            else:
                q = biggest_rupture.get(p)
                if q is None:
                    raise EmptyRuptureSet(
                        f"free singular point {p} has no rupture point in"
                        " its satellite cone")
                # the single integer in [x, x + 1), x = n_p m_q / n_q
                v = -(-ns[p] * m[q] // ns[q])
        else:
            v = m[p]
            p_free = free_points[p]
            q = biggest_rupture.get(p_free)
            if q is None:
                failed = failed or EmptyRuptureSet(
                    f"satellite point {p} has no rupture point in the cone"
                    f" of its defining free point {p_free}")
            # p and q share a cone, so p > q compares their k/n
            elif (ks[p] * ns[q] > ks[q] * ns[p]
                    and values[p_free] * ns[q] == ns[p_free] * m[q]):
                # exact: every n after p_free in its cone sums two
                # n's that are multiples of n_{p_free}
                v = ns[p] * values[p_free] // ns[p_free]
        values[p] = v
        a = parents[p]
        if a is not None:  # v becomes the multiplicity at p
            v -= values[a]
            if s is not None:
                v -= values[s]
                rho[s] -= v
            rho[a] -= v
        if v < 1 and rejected is None:
            rejected = NonPositiveMultiplicity(
                f"values force multiplicity {v} at point {p}")
        mults[p] = rho[p] = v
    if failed is not None:
        raise failed
    if rejected is None and min(rho.values(), default=0) < 0:
        rejected = InconsistentCluster(
            "recovered multiplicities are not consistent; the input is"
            " not a cluster of polar base points")
    return values, mults, rejected


# -- full runs ----------------------------------------------------------------


def recover(
    bp: WeightedCluster,
    trace: Optional[Callable[[TraceEntry], None]] = None,
) -> RecoveryResult:
    """Full recovery: dicriticals in ascending id, one walk per distinct
    (base free point, invariant) pair, so ``trace`` sees one ``stop`` entry
    per walk rather than per dicritical.  An error raised once the input is
    known to be base points carries the partial association."""
    tree = bp.tree
    before = len(tree)
    rho = excesses(bp)
    require_base_points(bp, rho)
    association: dict[PointId, DicriticalAssociation] = {}
    try:
        # the arena is complete, so the table covers every point, and the
        # walk extends it over every run it appends, which keeps it so
        m, ns, m0s = MorphismInvariants(bp).m, tree.ns, tree.m0s
        origin = tree.origin
        walked: dict[tuple[PointId, int, int], PointId] = {}
        invariants: dict[tuple[int, int], Fraction] = {}  # by (m-m0+n, n)
        for d in sorted(p for p, r in rho.items() if r > 0):
            n_d = ns[d]
            key = (m[d] - m0s[d] + n_d, n_d)
            invariant = invariants.get(key)
            if invariant is None:
                invariant = invariants[key] = Fraction(*key)
            num, den = invariant.numerator, invariant.denominator
            p = q = d
            if d != origin:
                _, p = _base_free_point(tree, m, d, num, den)
                key = (p, num, den)
                q = walked.get(key)
                if q is None:
                    q = walked[key] = _satellite_walk(
                        tree, m, p, num, den, trace)
            association[d] = DicriticalAssociation(invariant, p, q)
        rupture = frozenset(a.rupture_point for a in association.values())
        singular = _downward_closure(tree, rupture)
        values, mults, rejected = _second_half(tree, m, rupture, singular)
        if rejected is not None:
            raise rejected
        # the sweep established every property the constructor checks
        values = WeightedCluster._adopt(tree, WeightKind.VALUE, values)
        multiplicities = WeightedCluster._adopt(
            tree, WeightKind.MULTIPLICITY, mults)
    except EnriquesError as err:
        err.association = dict(association)
        raise
    return RecoveryResult(rupture, singular, values, multiplicities,
                          association, frozenset(range(before, len(tree))))


#: Another name for :func:`recover`, kept because the benchmark under
#: ``perfbench/`` imports it.
recover_grouped = recover
