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
   short, stopping at the unique point q_d with m/n = I_d.  The walk visits
   at most numerator + denominator of I_d points and creates the ones the
   arena does not contain yet.

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

:func:`recover_grouped` runs the same topology loop with another schedule:
it visits dicriticals by descending invariant and walks once per distinct
(base free point, invariant) pair, reusing that walk's rupture point for
every dicritical that repeats the pair.  The walk is deterministic and
finds the points an earlier walk created, so its result equals
:func:`recover` exactly.

The invariant, the walk and the value rules read each point's defining
free point, chain weights, m0 and ordered proximities from the arena's
cached point facts, so none of them rebuilds a unibranch chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .arena import ArenaTree, PointFacts, PointId
from .cluster import (
    WeightedCluster,
    WeightKind,
    dicritical_points,
    excess,
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
    WalkDiverged,
)
from .morphism import MorphismInvariants, compute
from .ordering import (
    PrecComparison,
    first_satellite,
    max_under_prec,
    prec_compare,
    second_satellite,
)

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
    and the arena's cached facts.
    """
    if d not in bp or excess(bp, d) <= 0:
        raise NotDicritical(f"point {d} has no positive excess")
    n_d, m_d = inv.extend_to(d)
    return Fraction(m_d - bp.tree.facts(d).m0 + n_d, n_d)


def base_free_point(
    bp: WeightedCluster, inv: MorphismInvariants, d: PointId, invariant: Fraction
) -> tuple[PointId, PointId]:
    """Locate the free point whose satellite cone holds the rupture point.

    Returns the last chain link (p', p) of d, in order from the origin,
    with p free and the height quotient at p' below the invariant.  The
    scan runs from d down to the origin, so it stops at the first such
    link it meets.
    """
    tree = bp.tree
    num, den = invariant.numerator, invariant.denominator
    p = d
    record = tree.record(d)
    while record.parent is not None:
        p_prev = record.parent
        if record.second_proximity is None:
            n, m = inv.extend_to(p_prev)
            if m * den < num * n:
                return p_prev, p
        p, record = p_prev, tree.record(p_prev)
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
    too small, creating points as needed.  The number of steps is capped at
    numerator + denominator of the invariant; exceeding the cap means the
    input was not a genuine cluster of polar base points.
    """
    num, den = invariant.numerator, invariant.denominator
    cap = num + den
    q = p
    for _ in range(cap + 1):
        n, m = inv.extend_to(q)
        gap = m * den - num * n
        if gap == 0:
            if trace:
                trace((q, m, n, "stop"))
            return q
        if gap > 0:
            if trace:
                trace((q, m, n, "first"))
            q = first_satellite(tree, q)
        else:
            if trace:
                trace((q, m, n, "second"))
            q = second_satellite(tree, q)
    raise WalkDiverged(
        f"no height quotient equal to {invariant} within"
        f" {cap} steps below point {p}")


def _biggest_rupture_by_cone(
    tree: ArenaTree, rupture: frozenset[PointId]
) -> dict[PointId, PointId]:
    """For each defining free point, the biggest rupture point of its cone."""
    cones: dict[PointId, list[PointId]] = {}
    for q in rupture:
        cones.setdefault(tree.facts(q).defining_free_point, []).append(q)
    return {p: max_under_prec(tree, cone) for p, cone in cones.items()}


def _downward_closure(tree: ArenaTree, points) -> frozenset[PointId]:
    closed: set[PointId] = set()
    for p in points:
        closed.update(tree.ancestors(p))
    return frozenset(closed)


def _topology(
    bp: WeightedCluster,
    inv: MorphismInvariants,
    trace: Optional[Callable[[TraceEntry], None]],
    grouped: bool,
) -> tuple[frozenset[PointId], frozenset[PointId], dict[PointId, DicriticalAssociation]]:
    """The topology loop under either schedule.

    The basic schedule walks every dicritical in ascending id.  The grouped
    schedule visits them by descending invariant and walks each
    (base free point, invariant) pair once.
    """
    tree = bp.tree
    rupture: set[PointId] = set()
    association: dict[PointId, DicriticalAssociation] = {}
    walked: dict[tuple[PointId, Fraction], PointId] = {}
    try:
        dicriticals = sorted(dicritical_points(bp))
        origin = tree.origin
        if origin in dicriticals:
            rupture.add(origin)
            association[origin] = DicriticalAssociation(
                dicritical_invariant(bp, inv, origin), origin, origin)
            dicriticals.remove(origin)
        schedule = [(dicritical_invariant(bp, inv, d), d) for d in dicriticals]
        if grouped:
            schedule.sort(key=lambda pair: (-pair[0], pair[1]))
        for invariant, d in schedule:
            _, p = base_free_point(bp, inv, d, invariant)
            q = walked.get((p, invariant)) if grouped else None
            if q is None:
                q = satellite_walk(tree, inv, p, invariant, trace)
                walked[p, invariant] = q
            rupture.add(q)
            association[d] = DicriticalAssociation(invariant, p, q)
    except RecoveryError as err:
        err.association = dict(association)
        raise
    return frozenset(rupture), _downward_closure(tree, rupture), association


def recover_topology(
    bp: WeightedCluster,
    inv: Optional[MorphismInvariants] = None,
    trace: Optional[Callable[[TraceEntry], None]] = None,
) -> tuple[frozenset[PointId], frozenset[PointId], dict[PointId, DicriticalAssociation]]:
    """Rupture set, singular set and dicritical table, walking every dicritical."""
    return _topology(
        bp, compute(bp) if inv is None else inv, trace, grouped=False)


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
    free point.
    """
    tree = bp.tree
    values: dict[PointId, int] = {}
    for q in rupture:
        values[q] = inv.extend_to(q)[1]
    free_rest: list[PointId] = []
    satellite_rest: list[tuple[PointId, PointFacts]] = []
    for p in singular:
        if p not in rupture:
            facts = tree.facts(p)
            if facts.ordered_proximities is None:
                free_rest.append(p)
            else:
                satellite_rest.append((p, facts))
    biggest_rupture = _biggest_rupture_by_cone(tree, rupture)

    for p in free_rest:
        if any(s in singular and tree.is_free(s)
               for s in tree.child_list(p)):
            values[p] = inv.extend_to(p)[1]
            continue
        q = biggest_rupture.get(p)
        if q is None:
            raise EmptyRuptureSet(
                f"free singular point {p} has no rupture point in its"
                " satellite cone")
        n_p, _ = inv.extend_to(p)
        n_q, m_q = inv.extend_to(q)
        values[p] = _only_integer_in_unit_interval(n_p * m_q, n_q)
    for p, facts in satellite_rest:
        p_free = facts.defining_free_point
        q = biggest_rupture.get(p_free)
        if q is None:
            raise EmptyRuptureSet(
                f"satellite point {p} has no rupture point in the cone"
                f" of its defining free point {p_free}")
        n_q, m_q = inv.extend_to(q)
        n_pf, _ = inv.extend_to(p_free)
        v_pf = values[p_free]
        if (prec_compare(tree, p, q) is PrecComparison.GREATER
                and v_pf * n_q == n_pf * m_q):
            numerator = facts.n * v_pf
            if numerator % n_pf:
                raise NonIntegralValue(
                    f"value at satellite {p} would be {numerator}/{n_pf}")
            values[p] = numerator // n_pf
        else:
            values[p] = inv.extend_to(p)[1]
    return WeightedCluster(tree, WeightKind.VALUE, values)


# -- full runs ----------------------------------------------------------------


def _recover(
    bp: WeightedCluster,
    trace: Optional[Callable[[TraceEntry], None]],
    grouped: bool,
) -> RecoveryResult:
    before = len(bp.tree)
    inv = compute(bp)
    rupture, singular, association = _topology(bp, inv, trace, grouped)
    created = frozenset(range(before, len(bp.tree)))
    try:
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
        if getattr(err, "association", None) is None:
            err.association = dict(association)
        raise
    return RecoveryResult(
        rupture=rupture,
        singular=singular,
        values=values,
        multiplicities=multiplicities,
        association=association,
        created=created,
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
    for p in result.singular:
        if not tree.is_free(p):
            continue
        if p in result.rupture:
            out[p] = True
            continue
        q = biggest_rupture.get(p)
        if q is None:
            out[p] = False
            continue
        n_p, n_q = tree.facts(p).n, tree.facts(q).n
        m_q = result.values[q]  # value equals height at rupture points
        out[p] = result.values[p] * n_q != n_p * m_q
    return out
