"""Weighted clusters of infinitely near points.

A weighted cluster is a finite, ancestor-closed set of arena points with an
integer weight on each point, together with a declared *kind* telling what
the weights mean:

* ``VIRTUAL``      -- virtual multiplicities of a cluster of base points,
* ``MULTIPLICITY`` -- effective multiplicities of a curve at its points,
* ``VALUE``        -- multiplicities of the total transforms of a curve.

The three kinds enter the same formulas in different roles, so mixing them
is a type error here, not a warning.  Weights are plain Python integers and
therefore arbitrary precision; nothing in this module ever overflows or
rounds.

Values and multiplicities are related by

    v_p = e_p + sum of v_q over the points q that p is proximate to,

which :func:`multiplicities_from_values` inverts.  The excess of a cluster
at p is the weight at p minus the total weight of the cluster points
proximate to p; points of positive excess are called dicritical, and a
cluster is consistent when no excess is negative.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from .arena import ArenaTree, PointId
from .errors import (
    ArenaMismatch,
    InvalidWeight,
    NonPositiveMultiplicity,
    NotDownwardClosed,
    PointNotInCluster,
    UnknownPoint,
    WrongKind,
    describe_number,
)


class WeightKind(enum.Enum):
    VIRTUAL = "virtual"
    MULTIPLICITY = "multiplicity"
    VALUE = "value"


@dataclass(frozen=True)
class WeightedCluster:
    """An ancestor-closed set of points with integer weights.

    Instances are immutable; derive new clusters instead of mutating.
    ``kind`` must be a :class:`WeightKind` member, checked first
    (:class:`WrongKind`); then ``tree`` must be an :class:`ArenaTree`
    (:class:`ArenaMismatch`) and ``weight`` a mapping
    (:class:`InvalidWeight`).  Point ids and weights are ints, not bools,
    and weights must be >= 1, except that virtual clusters may carry
    explicit zero weights ("carrier" points that take part in no sum but
    keep a point in the set).  Each entry is then checked in this order: a
    known point id, a weight that is not a bool, an int at or above the
    floor, a parent in the cluster.  A plain int weight passes both weight
    checks on one type test.

    So every cluster is sound: it is ancestor-closed, and its points, like
    every arena point, keep the arena rules.  The parent and the second
    proximity of a point are ancestors of it, earlier in id order, so a
    sweep over a cluster in id order finds both links already swept and
    needs no check of its own.

    :meth:`_adopt` skips the copy and the checks.  Only a caller that has
    established every property above may use it, and there are three:

    * ``recovery.recover`` adopts the values and the multiplicities of
      its sweep once the sweep rejected nothing.  Their keys are arena ids
      of a downward closure, and the sweep read every parent's value;
      their weights are ints; a multiplicity below 1 was rejected; and a
      value is its multiplicity plus earlier values, so it is at least 1.
      The checked copies would cost wide inputs about a sixth of
      ``recover``'s time (wide_fan ``recover_ms.p50``).
    * ``documents.parse`` adopts a document's weights once its arena is
      built.  Their keys are the ids it resolved; it stores only positive
      JSON integers; and its loop checked that each weighted point's
      parent is weighted.
    * ``recovery.recover_values`` adopts the values of its sweep once the
      sweep rejected nothing, by ``recover``'s argument: the values are
      ints, each at least 1.  Their keys are the points of S, whose ids
      it checked, and it checked S downward closed.

    Equality is the dataclass's own, field by field: kind and weights by
    value, and the arena by identity, since :class:`ArenaTree` defines no
    ``__eq__``; the hash agrees, taking the arena's ``id``.
    """

    tree: ArenaTree
    kind: WeightKind
    weight: Mapping[PointId, int]

    def __post_init__(self) -> None:
        if not isinstance(self.kind, WeightKind):
            raise WrongKind(f"kind {self.kind!r} is not a WeightKind")
        if not isinstance(self.tree, ArenaTree):
            raise ArenaMismatch(f"tree {self.tree!r} is not an ArenaTree")
        if not isinstance(self.weight, Mapping):
            raise InvalidWeight(f"weight {self.weight!r} is not a mapping")
        weights = dict(self.weight)
        object.__setattr__(self, "weight", weights)
        floor = 0 if self.kind is WeightKind.VIRTUAL else 1
        parents = self.tree.parents
        size = len(parents)
        for p, w in weights.items():
            if not (type(p) is int and 0 <= p < size):
                raise UnknownPoint(f"cluster mentions unknown point {p}")
            if not (type(w) is int and w >= floor):
                if isinstance(w, bool):
                    raise InvalidWeight(
                        f"weight {w!r} at point {p} is a bool, not an integer")
                if not isinstance(w, int) or w < floor:
                    shown = (describe_number(w) if isinstance(w, int)
                             else repr(w))
                    raise InvalidWeight(
                        f"weight {shown} at point {p} below {floor}"
                        f" for kind {self.kind.value}")
            parent = parents[p]
            if parent is not None and parent not in weights:
                raise NotDownwardClosed(
                    f"point {p} is in the cluster but its parent"
                    f" {parent} is not")

    @classmethod
    def _adopt(cls, tree: ArenaTree, kind: WeightKind,
               weight: dict[PointId, int]) -> "WeightedCluster":
        """A cluster that owns ``weight`` as given, neither copied nor
        checked; see the class docstring for who may call it."""
        cluster = object.__new__(cls)
        # frozen refuses setattr; the fields live in the instance dict
        cluster.__dict__.update(tree=tree, kind=kind, weight=weight)
        return cluster

    # -- set-like access --------------------------------------------------

    @property
    def points(self):
        return self.weight.keys()

    def __contains__(self, p: object) -> bool:
        """The one membership rule: an ``int`` key, not ``True`` or ``3.0``."""
        return type(p) is int and p in self.weight

    def __len__(self) -> int:
        return len(self.weight)

    def __getitem__(self, p: PointId) -> int:
        if p not in self:
            raise PointNotInCluster(f"point {p} is not in the cluster")
        return self.weight[p]

    def get(self, p: PointId, default: int = 0) -> int:
        return self.weight[p] if p in self else default

    def require_kind(self, kind: WeightKind) -> None:
        if self.kind is not kind:
            raise WrongKind(
                f"expected a {kind.value} cluster, got {self.kind.value}")

    def _same_arena(self, other: "WeightedCluster") -> None:
        if self.tree is not other.tree:
            raise ArenaMismatch("clusters live over different arenas")

    def __hash__(self):
        return hash((id(self.tree), self.kind, frozenset(self.weight.items())))


# -- value / multiplicity conversion ------------------------------------


def multiplicities_from_values(cluster: WeightedCluster) -> WeightedCluster:
    """Effective multiplicities from values: e_p is v_p minus the values
    at the points p is proximate to.

    Raises :class:`NonPositiveMultiplicity` when the given values are not
    realizable by a curve through all cluster points.
    """
    cluster.require_kind(WeightKind.VALUE)
    tree = cluster.tree
    parents, seconds, weight = tree.parents, tree.seconds, cluster.weight
    mults: dict[PointId, int] = {}
    for p in sorted(weight):
        a, s = parents[p], seconds[p]
        e = weight[p]
        if a is not None:
            e -= weight[a]
        if s is not None:
            e -= weight[s]
        if e < 1:
            raise NonPositiveMultiplicity(
                f"values force multiplicity {describe_number(e)}"
                f" at point {p}")
        mults[p] = e
    return WeightedCluster(tree, WeightKind.MULTIPLICITY, mults)


# -- excesses, dicritical points, consistency -----------------------------


def excesses(cluster: WeightedCluster) -> dict[PointId, int]:
    """Excess at every cluster point in one pass.  A cluster is
    ancestor-closed, so a point's parent and second proximity, when it
    has them, are cluster points."""
    parents, seconds = cluster.tree.parents, cluster.tree.seconds
    rho = dict(cluster.weight)
    for q, w in cluster.weight.items():
        a = parents[q]
        if a is not None:
            rho[a] -= w
            s = seconds[q]
            if s is not None:
                rho[s] -= w
    return rho


def dicritical_points(cluster: WeightedCluster) -> set[PointId]:
    return {p for p, r in excesses(cluster).items() if r > 0}


def is_consistent(cluster: WeightedCluster) -> bool:
    return all(r >= 0 for r in excesses(cluster).values())


# -- unibranch chains ------------------------------------------------------


def unibranch_chain(tree: ArenaTree, p: PointId) -> WeightedCluster:
    """The irreducible cluster ending at ``p``.

    Its points are the chain from the origin to ``p``; the weights are the
    unique solution with weight 1 at ``p`` and excess 0 at every earlier
    chain point, computed by a single reverse-topological sweep.  Germs
    through this cluster are irreducible and leave it at a free simple
    point right after ``p``.
    """
    chain = tree.ancestors(p)
    parents, seconds = tree.parents, tree.seconds
    acc: dict[PointId, int] = dict.fromkeys(chain, 0)
    acc[p] = 1
    for q in reversed(chain):
        w = acc[q]
        a, s = parents[q], seconds[q]
        if a is not None:
            acc[a] += w
        if s is not None:
            acc[s] += w
    return WeightedCluster(tree, WeightKind.VIRTUAL, acc)


# -- intersection pairing ---------------------------------------------------


def noether_pairing(a: WeightedCluster, b: WeightedCluster) -> int:
    """Sum of weight products over the shared points."""
    a._same_arena(b)
    if len(b.weight) < len(a.weight):
        a, b = b, a
    return sum(w * b.weight[p] for p, w in a.weight.items() if p in b.weight)
