"""Recovery of a curve's singular cluster from its polar base points.

Input: a consistent virtual cluster ``bp`` over an arena -- the weighted
cluster of points shared by the polar curves of an unknown reduced singular
curve.  Output: the curve's rupture points, its full weighted cluster of
singular points (values and multiplicities), and, per dicritical point of
``bp``, the exact invariant that identified the associated rupture point.

Heights.  Fix a consistent virtual cluster ``bp`` (the shared points of
the polar curves of some singular curve, weighted with their virtual
multiplicities).  Pairing the curve's equation with a generic transversal
coordinate gives, at every point p of the cluster and at every satellite
above it, a pair of positive integers:

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
the arena alone, so n is read from the arena's ``ns`` column; m is
tabulated in id order, which is topological, as a list indexed by point
id (:class:`MorphismInvariants`).

The m recursion is linear in the weights.  With all weights 0 it gives
``m0``, which the arena caches next to n; the weights add to it, at p,
their pairing with the unibranch chain cluster of p (the value of bp along
that chain, by Noether's formula), so

    m_p = m0_p + pairing(bp, chain cluster of p).

``m_p/n_p`` is the *height quotient*; its comparisons against dicritical
invariants, made by integer cross-multiplication, drive the satellite walk.

The parts, each argued in its own docstring:

* topology, per dicritical point d of ``bp`` (positive excess): d's
  invariant I_d (:func:`dicritical_invariant`), the free point p whose
  satellite cone holds d's rupture point (:func:`base_free_point`), and
  the walk from p down to m/n = I_d (:func:`satellite_walk`; the proof
  of its bracket is in ``_satellite_walk``'s docstring); the singular set
  S is the downward closure of the rupture set (:func:`_downward_closure`);
* values and multiplicities, in one sweep over S in ascending id
  (:func:`_second_half`, with the value rules), which extends the value
  the rules gave a recorded run's second point over a piece of the run
  by a constant step, argued in the same docstring;
* the polar identity (:func:`_check_polar`), which refuses multiplicities
  that no curve with these polar base points has, once the sweep's own
  verdict is clean.

:func:`recover` runs both parts in one call.  No part rebuilds a
unibranch chain or builds a per-point object: each reads a point's facts
from the arena's columns and m from the table.  The four public steps
raise :class:`~enriques.errors.ArenaMismatch` on an m table built for
another cluster or arena.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from typing import Callable, NamedTuple, Optional

from .arena import ArenaTree, PointId
from .cluster import WeightedCluster, WeightKind
from .errors import (
    ArenaMismatch, EmptyRuptureSet, EnriquesError, InconsistentCluster,
    NoQualifyingPair, NonPositiveMultiplicity, NotDicritical,
    NotDownwardClosed, NotPolarBasePoints, WalkDiverged, describe_number)

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


# -- heights -----------------------------------------------------------------


class MorphismInvariants:
    """Table of m_p over an arena, a list indexed by point id.

    n_p comes from the arena's ``ns`` column.  The table covers every
    arena point when it is built, and :meth:`extend_to` tabulates the
    points appended since; the recovery walk extends ``m`` itself over
    each run it appends, so its table never falls behind.  Extension
    follows the exclusive-writer contract of the arena.  ``bp`` must be a
    virtual cluster; any virtual cluster has heights, and :func:`compute`
    also requires the base points of polars.  The table counts the
    excesses of ``bp`` in its m pass, when it is built, and keeps them in
    ``_excess`` for :func:`dicritical_invariant` and :func:`recover`:
    they start as the weights, and the pass takes each weighted point's
    weight off its parent and its second proximity, which are members of
    ``bp`` since a cluster is ancestor-closed.  Every point of ``bp`` is
    in the arena when the table is built, so later passes meet only
    created points, which carry no weight.  The table holds m and the
    excesses and nothing else: every number it keeps has a reader among
    the heights or the dicriticals, and the polar identity reads the
    weights themselves (:func:`_check_polar`).
    """

    def __init__(self, bp: WeightedCluster):
        bp.require_kind(WeightKind.VIRTUAL)
        self.bp = bp
        self.m: list[int] = []
        self._excess = dict(bp.weight)
        self._grow()

    def _grow(self) -> None:
        """Tabulate m on the points appended since the last call, and take
        each weighted one's weight off the excesses of its proximities."""
        tree, weight, m = self.bp.tree, self.bp.weight, self.m
        parents, seconds, excess = tree.parents, tree.seconds, self._excess
        for p in range(len(m), len(parents)):
            a, s = parents[p], seconds[p]
            w = weight.get(p, 0)
            if a is None:
                m.append(w + 1)
            elif s is None:
                m.append(m[a] + w + 1)
                if w:
                    excess[a] -= w
            else:
                m.append(m[a] + m[s] + w)
                if w:
                    excess[a] -= w
                    excess[s] -= w

    def extend_to(self, p: PointId) -> tuple[int, int]:
        """Ensure m is defined at ``p``; return its (n, m)."""
        m = self.m
        if not (type(p) is int and 0 <= p < len(m)):
            self.bp.tree._check(p)
            self._grow()
        return self.bp.tree.ns[p], m[p]

    def height_quotient(self, p: PointId) -> Fraction:
        n, m = self.extend_to(p)
        return Fraction(m, n)


def compute(bp: WeightedCluster) -> MorphismInvariants:
    """Build the (n, m) table on every point of a base-point cluster's arena.

    The cluster must be virtual, consistent, and give the origin weight at
    least 1 (the polar of a singular curve is itself a curve through the
    origin); the checks read the excesses the table keeps.
    """
    inv = MorphismInvariants(bp)
    # the origin is point 0 of any arena that has one
    if bp.weight.get(0, 0) < 1:
        raise InconsistentCluster(
            "base-point cluster must weight the origin with at least 1")
    if min(inv._excess.values(), default=0) < 0:
        raise InconsistentCluster(
            "base-point cluster has a point of negative excess")
    return inv


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

    The pairing equals m_d - m0_d (see :mod:`~enriques.recovery`), so the
    invariant is (m_d - m0_d + n_d) / n_d, read in O(1) from the m table
    and the arena's columns.  Reading d's row is the check that d is an
    arena point, and the check that d is dicritical then reads the
    excesses the table counted when it was built.
    """
    _require_table(bp, inv)
    n_d, m_d = inv.extend_to(d)  # checks d
    if d not in bp or inv._excess[d] <= 0:
        raise NotDicritical(f"point {d} has no positive excess")
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
        f" {describe_number(Fraction(num, den))}")


def satellite_walk(
    tree: ArenaTree,
    inv: MorphismInvariants,
    p: PointId,
    invariant: Fraction,
    trace: Optional[Callable[[TraceEntry], None]] = None,
) -> PointId:
    """Bisect the satellite cone of ``p`` down to height quotient = invariant.

    Moves to the first satellite while m/n is too big, to the second while
    too small, creating points as needed, in at most numerator +
    denominator of the invariant moves; exceeding that cap means the input
    was not a genuine cluster of polar base points.  The start must be
    bracketed: unless m/n at ``p`` equals the invariant, the point that
    the first move's satellite is also proximate to must exist and lie
    strictly across the invariant; ``_satellite_walk``'s docstring proves
    that every later point is then bracketed.  Any other start, such as a
    free point below the invariant or the origin, raises
    :class:`WalkDiverged` before anything is traced or appended, and a run
    of created points that would end past the cap or take the arena past
    ``sys.maxsize`` points raises it before the run is appended.
    ``trace`` sees one entry per visited point.  A table built over
    another arena raises :class:`~enriques.errors.ArenaMismatch`.
    """
    if inv.bp.tree is not tree:
        raise ArenaMismatch("the m table was built over another arena")
    inv._grow()  # the walk reads m at any point of the arena it finds
    inv.extend_to(p)  # checks p
    return _satellite_walk(tree, inv.m, p, invariant.numerator,
                           invariant.denominator, trace)


def _satellite_walk(tree: ArenaTree, table: list, p: PointId,
                    num: int, den: int, trace) -> PointId:
    """:func:`satellite_walk` for num/den, on an m table covering the
    arena.  Every move is a run of t points that share the proximity s
    it goes towards.  t = 1 when ``tree._find``, bound once per walk and
    trusting its ids (q and s are arena points the walk holds), finds the
    next point, which may carry weight.  Else t is the least that closes
    the gap (below), and the walk appends the run through
    ``tree._append_run``, whose precondition the bracket below proves, and
    extends the table over it: m grows by m_s from point to point, from
    the run parent's m, since the new points lie outside the cluster.
    After its first append the walk's point is the arena's last, which
    has no satellite, so the walk looks nothing up from then on: only the
    moves up to its first append pay a lookup.

    The bracket.  Write I = num/den and gap = m*den - num*n at a point.
    The walk carries its point's ordered proximities (lo, hi), set at the
    start p to (p's parent, None) for a free p and to p's
    ``ordered_proximities`` for a satellite p (only the public walk
    starts at one: :func:`recover` starts at a base free point), and
    their gaps g_lo and g_hi (see the gaps, below).  A first move goes
    towards s = lo and a second towards s = hi; hi is None at a free
    point, which has no second satellite, and lo too at the origin, which
    has none at all.  The walk checks its start p once, before it
    traces or appends anything: unless p's gap is 0, the s of its first
    move (first above I, second below it) must exist and lie strictly
    across I from p, that is delta = m_s*den - num*n_s must have the sign
    opposite to the gap's; otherwise it raises :class:`WalkDiverged`.  A
    move of t points from q towards s reaches a point r whose parent q'
    is r - 1 for t > 1 and q for t = 1.  Each point of a run is the
    satellite towards s of the one before, so by the induction in
    :class:`~enriques.arena.PointFacts` r's pair is (s, q') after a first
    move and (q', s) after a second one, whatever r's weight, and the
    walk carries it on, reading q' from ``parents``.  Claim: at every
    point after the start, m/n is strictly below I at lo and strictly
    above I at hi.  After a first move q' lies above I and s below it,
    after a second q' below and s above: for s by the start check at the
    first move and by the claim at q at a later one, and for q' because
    the gap at q' is q's plus t - 1 deltas.  Hence, at every point after
    the start with gap != 0, the walk moves first from above I towards
    lo, below it, or second from below I towards hi, above it: s exists,
    since the point is a satellite, and delta is not 0 and has the sign
    opposite to the gap's.  A run the walk creates is weightless, so the
    gap changes by delta at each of its points, and t = -(gap // delta),
    the least t that takes gap + t*delta to 0 or past it, is at least 1,
    since gap and delta are nonzero integers of opposite signs.  The
    pair (q, s) is not held, since the lookup missed or q is the arena's
    last point, and s is a proximity of q, so the run keeps the writer's
    precondition.  Each created point is the mediant of q and s, a step
    of the Stern-Brocot descent (Graham, Knuth and Patashnik, *Concrete
    Mathematics*, 4.5), so its gap is the sum of the gaps at its lo and
    hi; past the last held point the walk runs the subtractive Euclidean
    algorithm on the two gaps' sizes, so it ends.

    The gaps.  The start pays products for its gap and its delta, and
    every later move takes delta from the gap it carries at s.  A created
    run of t points is weightless, so r has the gap gap + t*delta and its
    parent q' has gap + (t - 1)*delta.  A held r may carry weight, so its
    gap takes products of its m and n, and q' = q keeps q's gap.  So
    products are paid at the start and at held points only.

    The cap.  It bounds the moves by num + den, and so the points a walk
    creates: a memory bound for the public :func:`satellite_walk` on an
    inconsistent cluster, where a bracketed walk may need more moves.
    ``test_satellite_walk_cap_cuts_a_closing_run`` (weight 7) reaches it
    from a bracketed start.  :func:`recover` has never reached it, nor
    been refused at a start, in 53,154 walks on seeds 1-3 of the three
    benchmark pools and the inputs of ``test_recovery._sweep_inputs``.
    The ``sys.maxsize`` guard refuses a run longer than a list holds."""
    find, ns, parents = tree._find, tree.ns, tree.parents
    n, m = ns[p], table[p]
    cap = num + den
    gap = m * den - num * n
    if gap:  # the start's bracket, which every later point then keeps
        lo, hi = ((parents[p], None) if tree.seconds[p] is None
                  else tree.facts(p).ordered_proximities)
        s = hi if gap < 0 else lo
        # the gap at s, 0 when there is no s; the other end's is read only
        # after a move sets it
        g_lo = g_hi = 0 if s is None else table[s] * den - num * ns[s]
        if gap * g_lo >= 0:
            raise _diverged(num, den, cap, p)
    q, moves, created = p, 0, False
    while gap:
        second = gap < 0
        if trace:
            word = "second" if second else "first"
            trace((q, m, n, word))
        if second:
            s, delta = hi, g_hi
        else:
            s, delta = lo, g_lo
        # a held point, a run of one, or else the least run that closes
        # the gap; past the walk's first append q is the arena's last point
        last = None if created else find(q, s)
        t = -(gap // delta) if last is None else 1
        moves += t
        if moves > cap:
            raise _diverged(num, den, cap, p)
        if last is None:  # append the run of t new points
            if len(parents) + t > sys.maxsize:  # more than a list holds
                raise WalkDiverged(
                    f"the run below point {q} would take the arena past"
                    f" {sys.maxsize} points")
            last = tree._append_run(q, s, t)
            created = True
            m_s = table[s]
            if t == 1:
                table.append(m + m_s)
            else:
                table.extend(range(m + m_s, m + (t + 1) * m_s, m_s))
                if trace:
                    for i in range(1, t):
                        trace((last - t + i, m + i * m_s, n + i * ns[s],
                               word))
            g_parent = gap + (t - 1) * delta
            gap = g_parent + delta
            n, m = ns[last], table[last]
        else:  # a held point may carry weight: its gap takes products
            n, m = ns[last], table[last]
            g_parent, gap = gap, m * den - num * n
        q = last
        if second:  # the move went towards hi, which stays
            lo, g_lo = parents[q], g_parent
        else:
            hi, g_hi = parents[q], g_parent
    if trace:
        trace((q, m, n, "stop"))
    return q


def _diverged(num: int, den: int, cap: int, p: PointId) -> WalkDiverged:
    return WalkDiverged(
        f"no height quotient equal to {describe_number(Fraction(num, den))}"
        f" within {describe_number(cap)} steps below point {p}")


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


def _downward_closure(
    tree: ArenaTree, points
) -> tuple[frozenset[PointId], set[Optional[PointId]]]:
    """The points with their ancestors, and the parents of the free points
    among them: the points with a free point of the closure in their first
    neighbourhood, and None when the closure holds the origin.  Each chain
    stops at a closed point.

    A point p after the first point f of a recorded run has f..p-1 below
    it, the run's ids in order, so the chain adds f..p as one range and
    goes on from f's parent; :meth:`~enriques.arena.ArenaTree._run_of`
    finds f.  On an arena without recorded runs the chain goes point by
    point with no lookup.  Every point a range adds is a satellite, so
    every free point is added on its own, and its parent is recorded
    there."""
    parents, seconds = tree.parents, tree.seconds
    run_of = tree._run_of if tree._runs else None
    closed: set[PointId] = set()
    branching: set[Optional[PointId]] = set()
    for p in points:
        while p is not None and p not in closed:
            if run_of is not None and (f := run_of(p)) is not None:
                closed.update(range(f, p + 1))
                p = parents[f]
                continue
            closed.add(p)
            a = parents[p]
            if seconds[p] is None:
                branching.add(a)
            p = a
    return frozenset(closed), branching


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
    passes a bad point or a gap, so the checks live here, not in the sweep,
    which trusts S to hold a prefix of every run it meets.  Each is made
    once: the ids, then that S holds R, then one :func:`_downward_closure`
    of S.  The closure holds S, and equals it exactly when S is downward
    closed; else the least point it added, the lowest ancestor S lacks,
    is named.  The closure's branching points are the sweep's.  It raises
    the sweep's verdict as :func:`recover` does,
    :class:`NonPositiveMultiplicity` or :class:`InconsistentCluster`, since
    no curve has values that force either, and then
    :class:`NotPolarBasePoints` by :func:`_check_polar`; values that pass
    are adopted unchecked, as :class:`~enriques.cluster.WeightedCluster`
    argues."""
    _require_table(bp, inv)
    tree = bp.tree
    for p in rupture | singular:
        tree._check(p)
    missing = rupture - singular
    if missing:
        raise NotDownwardClosed(
            f"rupture point {min(missing)} is not in the singular set")
    closed, branching = _downward_closure(tree, singular)
    if len(closed) > len(singular):
        raise NotDownwardClosed(
            f"the singular set is not downward closed: it lacks point"
            f" {min(closed - singular)}")
    inv._grow()  # the sweep reads m at every point of the set
    values, mults, rejected = _second_half(tree, inv.m, rupture, singular,
                                           branching)
    if rejected is not None:
        raise rejected
    _check_polar(bp.weight, mults)
    return WeightedCluster._adopt(tree, WeightKind.VALUE, values)


def _second_half(
    tree: ArenaTree,
    m: list,
    rupture: frozenset[PointId],
    singular: frozenset[PointId],
    branching: set[Optional[PointId]],
) -> tuple[dict[PointId, int], dict[PointId, int], Optional[EnriquesError]]:
    """Values, multiplicities and their excesses in one ascending sweep.

    Returns the values, the multiplicities and, for the caller to raise,
    :class:`NonPositiveMultiplicity` at the first multiplicity below 1, else
    :class:`InconsistentCluster`, else None.  It raises
    :class:`EmptyRuptureSet` at the first point whose value rule meets it.
    The points are arena points, downward closed, in the m table ``m``,
    and ``branching`` holds the points with a free point of S in their
    first neighbourhood, as :func:`_downward_closure` returns them with S.

    The value rules, read in id order, which is topological: a rupture
    point takes v = m; a free point p, m when a free point of S lies in
    its first neighbourhood, else the unique integer in
    [ (n_p/n_q) m_q, (n_p/n_q) m_q + 1 ) for q the biggest rupture point
    of its cone (:func:`_biggest_rupture_by_cone`); a satellite p of that
    cone, (n_p/n_{p'}) v_{p'} when p is bigger than q and
    v_{p'} n_q = n_{p'} m_q for p' the cone's free point, else m.
    The multiplicity at p, v_p less the values at the points p is
    proximate to, comes off their excesses at once.  The excesses ``rho``
    are a list over the whole arena, zero outside S and until a point's
    visit sets its multiplicity there.  Only later points are proximate
    to p, so its excess is set before anything comes off it, and while
    no multiplicity is below 1 it only decreases after that; a set
    excess below 0 is a multiplicity below 1.  So, when no multiplicity
    is below 1, an excess ends negative exactly when a write that takes
    something off it makes it negative, and the sweep checks there.

    Run pieces.  The sweep looks the parent of each satellite it visits up
    in the arena's run record, and reads the record nowhere else, so it
    looks up points of S only.  Once the rules have given the second point
    b = f+1 of a recorded run f..last its value, the sweep extends that
    value over one piece b+1..c of the run by a constant step and skips
    it; the points after c are visited as usual.  The run's ids are the
    range f..last and S is downward closed, so S holds a prefix f..e of
    the run, and e is the last point of the sorted S up to ``last``, one
    bisect.  Only a prefix that bp leaves unweighted after b is taken; the
    sweep visits the points of any other run.  With s the run's second
    proximity, m grows by m_s + w from point to point, w the bp weight, so
    m_e - m_b = (e - b) m_s holds exactly when no point after b carries
    weight, since no virtual weight is negative.

    Every point of the run is a satellite proximate to its predecessor
    and to s (Casas-Alvero, *Singularities of Plane Curves*, on proximity
    along satellite chains), in the cone of f's defining free point F,
    and n, m and k grow by fixed steps along it.  The cone has a biggest
    rupture point q: b is a visited satellite, so either b is in R or its
    visit read q, since the satellite rule raises
    :class:`EmptyRuptureSet` at a cone without one.  The satellite rule
    gives v = m except on the points bigger than q, where it gives
    n V_F / n_F once V_F n_q = n_F m_q; a rupture point of the run is not
    bigger than q, so it takes m like its neighbours.  The order test
    k_p n_q > k_q n_p reads the sign of g(p) = k_p n_q - k_q n_p, which is
    linear along the run, so c, the last point of b..e on b's side of the
    test, is one floor division.
    On b..c, v grows by d = m_s, or by n_s V_F / n_F when b took the
    scaled value, so every multiplicity after b is rest = d - v_s, and
    the excess of a point inside the piece, its multiplicity less its
    successor's, is 0, the zero-filled ``rho`` list's entry already: only
    b's, s's and c's excesses are written, and s's is checked as the
    visits' writes are.  So the piece's first multiplicity below 1, if any,
    is at b+1.  c = b when the test flips at b+1, and the empty piece is
    skipped: its writes would set b's excess to rest.  b's excess needs no
    check: the piece leaves it at b's multiplicity less rest, w_b >= 0 when
    neither f nor b takes the scaled value and 0 when both do; when one
    does, rest is 0 and a negative excess is a multiplicity below 1 at b,
    unless s is the parent of F and a scaled satellite of its own cone, and
    then s's multiplicity is 0, or s's satellite towards its smaller
    proximity lies in S and s's excess ends negative."""
    parents, seconds = tree.parents, tree.seconds
    free_points, ns, ks = tree.free_points, tree.ns, tree.ks
    runs = tree._runs  # last point by first point; often empty
    biggest_rupture = _biggest_rupture_by_cone(tree, rupture)
    values, mults = {}, {}  # each by point id
    rho = [0] * len(parents)  # the excesses, a list indexed by point id
    negative = False  # whether a write took an excess below 0
    low: Optional[PointId] = None  # the first point of multiplicity below 1
    points = sorted(singular)
    visits = iter(points)
    for p in visits:
        s = seconds[p]
        if p in rupture or (s is None and p in branching):
            v = m[p]
        elif s is None:
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
                raise EmptyRuptureSet(
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
                if rho[s] < 0:
                    negative = True
            rho[a] -= v
            if rho[a] < 0:
                negative = True
        if v < 1 and low is None:
            low = p
        mults[p] = rho[p] = v
        if s is None or a not in runs or p - 1 != a:
            continue
        # p is the second point b of a recorded run: extend its value
        e = points[bisect_right(points, runs[a]) - 1]
        if e == p or m[e] - m[p] != (e - p) * m[s]:
            continue
        free = free_points[p]
        q = biggest_rupture[free]
        c, d = e, m[s]
        if values[free] * ns[q] == ns[free] * m[q]:
            n_q, k_q = ns[q], ks[q]
            g = ks[p] * n_q - k_q * ns[p]
            step = (ks[p] - ks[a]) * n_q - k_q * ns[s]  # g's change per point
            if g > 0:  # p took the scaled value; exact, as in the rule
                d = ns[s] * values[free] // ns[free]
                if step < 0:
                    c = min(e, p + (g - 1) // -step)
            elif step > 0:
                c = min(e, p + (-g) // step)
        if c == p:
            continue
        rest = d - values[s]  # the multiplicity at each point of p+1..c
        if low is None and rest < 1:
            low = p + 1
        v = values[p]
        values.update(zip(range(p + 1, c + 1),
                          range(v + d, v + (c - p + 1) * d, d)))
        mults.update(zip(range(p + 1, c + 1), repeat(rest)))
        rho[p] -= rest
        rho[s] -= (c - p) * rest
        if rho[s] < 0:
            negative = True
        rho[c] = rest
        next(islice(visits, c - p, c - p), None)  # skip p+1..c
    rejected: Optional[EnriquesError] = None
    if low is not None:
        rejected = NonPositiveMultiplicity(
            f"values force multiplicity {describe_number(mults[low])}"
            f" at point {low}")
    elif negative:
        rejected = InconsistentCluster(
            "recovered multiplicities are not consistent; the input is"
            " not a cluster of polar base points")
    return values, mults, rejected


def _check_polar(weight: dict[PointId, int],
                 mults: dict[PointId, int]) -> None:
    """Raise :class:`NotPolarBasePoints` unless the multiplicities e of a
    sweep that rejected nothing keep, with the weights w of bp, the
    identity

        sum over p in bp of e_p w_p = sum over p in bp of w_p^2 + e_O - 1,

    e_p taken as 0 at a point of bp outside S.  Both sides are the
    intersection number (C.P) of the curve C with a generic polar P.  P
    goes through bp with multiplicities w, and its other points are free
    and generic, so Noether's formula gives the left side.  Teissier's
    lemma gives (C.P) = mu + e_O - 1 (B. Teissier, *Cycles evanescents,
    sections planes et conditions de Whitney*, Asterisque 7-8, 1973),
    and mu = (P.P') = the sum of w^2 (Casas-Alvero, *Singularities of
    Plane Curves*), the right side.  Reading e as 0 off S is not proven:
    the tests check the pairing against each curve they know, the Euclid
    curves, the equations of ``polynomial_reference`` and the fixtures.
    The sweep's own verdict passes some inputs that no curve has, whose
    rupture set the oracle does not find again; the identity refuses
    them.

    Both sums run over bp, since a point of S outside bp has w = 0 and
    adds nothing to the pairing, so the check moves the squares to the
    left, in exact integers:

        sum over p in bp of w_p (e_p - w_p) = e_O - 1.

    One pass over bp's weights, reading e where S has it, decides this
    form; nothing is summed ahead of the check, and the sum of squares is
    formed only to word the refusal in the first form.  An empty S has
    e_O = 0."""
    total = 0
    for p, w in weight.items():  # add w (e - w), with e = 0 off S
        total -= w * (w - mults[p] if p in mults else w)
    e_origin = mults.get(0, 0)
    if total != e_origin - 1:
        squares = sum(w * w for w in weight.values())
        raise NotPolarBasePoints(
            "recovered multiplicities pair with bp to"
            f" {describe_number(total + squares)}, not to sum w^2 + e_O - 1 ="
            f" {describe_number(squares + e_origin - 1)}; the input is not a"
            " cluster of polar base points")


# -- full runs ----------------------------------------------------------------


def recover(
    bp: WeightedCluster,
    trace: Optional[Callable[[TraceEntry], None]] = None,
) -> RecoveryResult:
    """Full recovery: dicriticals in ascending id, each one's invariant
    and then its walk, one walk per distinct (base free point, invariant)
    pair, so ``trace`` sees one ``stop`` entry per walk rather than per
    dicritical.  The walk is deterministic and finds the points an earlier
    walk created, so the order of the visits carries no mathematics.  An
    error raised once the input is known to be base points carries the
    partial association.

    One :class:`Fraction` a/b is built per distinct (m_d - m0_d + n_d,
    n_d), shared by the dicriticals that repeat it (a fan of chains
    repeats a few invariants over many dicriticals).  No rupture point's
    m/n is checked against its invariant, which it equals by
    construction: the walk returns only at gap m*b - a*n = 0, a memo hit
    returns the point an earlier walk found for the same (p, a, b), and
    the origin's invariant is m_O/1 with n_O = 1.  After the sweep's
    verdict, :func:`_check_polar` refuses an answer that fails the polar
    identity."""
    tree = bp.tree
    before = len(tree)
    # the table covers every point of the arena, and the walk extends it
    # over every run it appends, which keeps it so
    inv = compute(bp)
    m, rho = inv.m, inv._excess
    association: dict[PointId, DicriticalAssociation] = {}
    try:
        ns, m0s, origin = tree.ns, tree.m0s, tree.origin
        walked: dict[tuple[PointId, int, int], PointId] = {}
        invariants: dict[tuple[int, int], Fraction] = {}  # by (m-m0+n, n)
        for d in sorted([p for p, r in rho.items() if r > 0]):
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
            # the named tuple's own __new__, without its Python frame
            association[d] = tuple.__new__(
                DicriticalAssociation, (invariant, p, q))
        rupture = frozenset(a.rupture_point for a in association.values())
        singular, branching = _downward_closure(tree, rupture)
        values, mults, rejected = _second_half(tree, m, rupture, singular,
                                               branching)
        if rejected is not None:
            raise rejected
        _check_polar(bp.weight, mults)
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
