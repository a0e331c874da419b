"""The ambient tree of infinitely near points.

An :class:`ArenaTree` owns every point that any cluster may mention.  Points
are created once and never deleted; a :data:`PointId` is simply the index of
the point's record in the arena, so ids are stable across all later
extensions (the recovery algorithms only ever append satellite points).

Each non-origin point carries a ``parent`` (the point in whose first
neighbourhood it appeared) and, for satellite points, a ``second_proximity``:
the earlier point whose exceptional divisor the point also lies on.  A point
is *free* when it is proximate to its parent only, *satellite* when it is
proximate to exactly two points; no other arrangement occurs.

Because the arena only grows, the facts a point's proximities fix (see
:class:`PointFacts`) are computed once, when the point is appended.

Labels are decorative.  All structural queries and all equality notions use
ids only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import (
    ArenaError,
    Diagnostic,
    DuplicateOrigin,
    DuplicateSatellite,
    IllegalProximity,
    UnknownParent,
    UnknownPoint,
)

PointId = int


@dataclass(frozen=True, slots=True)
class PointRecord:
    """One infinitely near point: identity, parent link, proximity, label.

    ``id`` is the record's index in its arena; ``parent`` is None only for
    the origin and ``second_proximity`` is None for the origin and free
    points.  Records are frozen: the arena creates one per point (the
    recovery walk too, for every point it adds) and never changes it.
    Records from :meth:`ArenaTree.from_records` may break arena rules;
    :meth:`ArenaTree.validate` reports them.

    A slotted dataclass, not a ``NamedTuple``: the library reads records
    far more often than it creates them, and on CPython 3.11 a slot read
    is several times cheaper than a named-tuple field read.
    """

    id: PointId
    parent: Optional[PointId]
    second_proximity: Optional[PointId]
    label: Optional[str] = None


class PointFacts(NamedTuple):
    """What a point's proximities fix once and for all.

    ``n`` and ``k`` are the weights at the origin and at the defining free
    point of the unibranch chain ending at the point, so ``k/n`` is the
    point's position in the satellite cone of its defining free point.
    ``m0`` is the height m of :mod:`~enriques.morphism` over the empty
    cluster: 1 at the origin, the parent's m0 + 1 at a free point and the
    sum of both proximities' m0 at a satellite.  The m recursion is linear
    in the cluster weights, so m - m0 at a point is what the weights add.
    ``ordered_proximities`` is a satellite's proximity pair, smaller first,
    and ``None`` for the origin and free points.
    """

    defining_free_point: PointId
    n: int
    m0: int
    k: int
    ordered_proximities: Optional[tuple[PointId, PointId]]


#: Builds a facts tuple from its fields without the NamedTuple's
#: Python-level ``__new__``.
_new_tuple = tuple.__new__
_set_id = PointRecord.id.__set__
_set_parent = PointRecord.parent.__set__
_set_second = PointRecord.second_proximity.__set__
_set_label = PointRecord.label.__set__


def _new_record(
    q: PointId,
    parent: Optional[PointId],
    second: Optional[PointId],
    label: Optional[str],
) -> PointRecord:
    """A record built by setting its slots directly.

    The frozen dataclass ``__init__`` goes through ``object.__setattr__``
    once per field, which doubles the cost of every appended point.
    """
    r = object.__new__(PointRecord)
    _set_id(r, q)
    _set_parent(r, parent)
    _set_second(r, second)
    _set_label(r, label)
    return r


_ORIGIN_FACTS = PointFacts(0, 1, 1, 1, None)


class ArenaTree:
    """Append-only arena of :class:`PointRecord`.

    Records are topologically sorted: every referenced id precedes its
    referrer.  Construction through :meth:`add_point` enforces all structural
    invariants eagerly; :meth:`from_records` admits raw (possibly broken)
    data so that :meth:`validate` can report problems as diagnostics.  A
    record that breaks a rule gets no :class:`PointFacts`.

    A fully built arena is safe to share read-only between threads; the
    operations that extend it (satellite creation during recovery) require
    exclusive access.
    """

    def __init__(self) -> None:
        self._records: list[PointRecord] = []
        self._children: list[list[PointId]] = []
        self._satellite_index: dict[tuple[PointId, PointId], PointId] = {}
        self._facts: list[Optional[PointFacts]] = []
        self._ancestor_cache: dict[PointId, tuple[PointId, ...]] = {}

    # -- construction --------------------------------------------------

    def add_point(
        self,
        parent: Optional[PointId] = None,
        second_proximity: Optional[PointId] = None,
        label: Optional[str] = None,
    ) -> PointId:
        """Append a new point and return its id.

        With no ``parent`` the point becomes the origin (allowed once).
        A ``second_proximity`` must be one of the points the parent itself
        is proximate to, and no existing point may already carry the same
        proximity pair.
        """
        if parent is None:
            if second_proximity is not None:
                raise IllegalProximity("the origin has no proximities")
            if self.origin is not None:
                raise DuplicateOrigin("arena already has an origin")
        else:
            if parent not in self:
                raise UnknownParent(f"no point with id {parent}")
            if second_proximity is not None:
                if second_proximity not in self:
                    raise UnknownPoint(f"no point with id {second_proximity}")
                a = self._records[parent]
                if second_proximity not in (a.parent, a.second_proximity):
                    raise IllegalProximity(
                        f"point {second_proximity} is not among the"
                        f" proximities of parent {parent}"
                    )
                pair = (parent, second_proximity)
                if pair in self._satellite_index:
                    raise DuplicateSatellite(
                        f"a satellite proximate to {parent} and"
                        f" {second_proximity} already exists"
                    )
        return self.append_raw(parent, second_proximity, label)

    @classmethod
    def from_records(
        cls,
        records: list[tuple[Optional[PointId], Optional[PointId], Optional[str]]],
    ) -> "ArenaTree":
        """Build an arena from raw (parent, second_proximity, label) triples.

        No invariants are enforced; run :meth:`validate` afterwards.
        """
        tree = cls()
        append = tree.append_raw
        for parent, second, label in records:
            append(parent, second, label)
        return tree

    def append_raw(
        self,
        parent: Optional[PointId],
        second_proximity: Optional[PointId] = None,
        label: Optional[str] = None,
    ) -> PointId:
        """Append a record without enforcing any rule and return its id.

        The point gets :class:`PointFacts` only when it keeps every rule.
        :meth:`from_records` and the document parser build arenas this way
        and then run :meth:`validate`; :meth:`add_point` checks first.
        """
        records = self._records
        new_id = len(records)
        self._facts.append(
            self._derive_facts(new_id, parent, second_proximity))
        records.append(
            _new_record(new_id, parent, second_proximity, label))
        self._children.append([])
        if parent is not None:
            if 0 <= parent < new_id:
                self._children[parent].append(new_id)
            if second_proximity is not None:
                self._satellite_index.setdefault(
                    (parent, second_proximity), new_id)
        return new_id

    def _derive_facts(
        self, q: PointId, a: Optional[PointId], s: Optional[PointId]
    ) -> Optional[PointFacts]:
        """Facts of point q about to be appended; None if it breaks a rule.

        Let q be a satellite with parent a and second proximity s.  Its
        pair is (a's parent, a) when a is free; when a is a satellite with
        pair (lo, hi) it is (lo, a) for s = lo and (a, hi) for s = hi.
        n and m0 add up over both proximities; k adds s's share only when s
        lies in q's own cone.
        """
        if a is None:
            return _ORIGIN_FACTS if q == 0 and s is None else None
        facts = self._facts
        if not 0 <= a < q or facts[a] is None:
            return None
        free_a, n_a, m0_a, k_a, pair = facts[a]
        if s is None:
            return _new_tuple(PointFacts, (q, n_a, m0_a + 1, 1, None))
        if (a, s) in self._satellite_index:
            return None
        if pair is None:
            pair = (self._records[a].parent, a)
            if s != pair[0]:
                return None
        else:
            lo, hi = pair
            if s == lo:
                pair = (lo, a)
            elif s == hi:
                pair = (a, hi)
            else:
                return None
        free_s, n_s, m0_s, k_s, _ = facts[s]
        if free_s == free_a:
            k_a += k_s
        return _new_tuple(
            PointFacts, (free_a, n_a + n_s, m0_a + m0_s, k_a, pair))

    def clone(self) -> "ArenaTree":
        """Independent copy sharing no mutable state (records are frozen)."""
        tree = ArenaTree()
        tree._records = list(self._records)
        tree._children = [list(c) for c in self._children]
        tree._satellite_index = dict(self._satellite_index)
        tree._facts = list(self._facts)
        return tree

    # -- basic queries --------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, p: object) -> bool:
        return isinstance(p, int) and 0 <= p < len(self._records)

    def points(self) -> Iterator[PointId]:
        return iter(range(len(self._records)))

    def records(self) -> Sequence[PointRecord]:
        """All records in id order: ``records()[p]`` is point p's record.

        This is the arena's own list, for one-pass readers; do not modify it.
        """
        return self._records

    def record(self, p: PointId) -> PointRecord:
        """The point's record; every checked query goes through here."""
        if isinstance(p, int) and 0 <= p < len(self._records):
            return self._records[p]
        raise UnknownPoint(f"no point with id {p}")

    def parent(self, p: PointId) -> Optional[PointId]:
        return self.record(p).parent

    def second_proximity(self, p: PointId) -> Optional[PointId]:
        return self.record(p).second_proximity

    def label(self, p: PointId) -> Optional[str]:
        return self.record(p).label

    @property
    def origin(self) -> Optional[PointId]:
        """Id 0 when the first point is the origin.

        :meth:`validate` reports every arena whose first point has a parent,
        so a valid arena always has its origin at id 0.
        """
        if self._records and self._records[0].parent is None:
            return 0
        return None

    def is_origin(self, p: PointId) -> bool:
        return self.record(p).parent is None

    def is_free(self, p: PointId) -> bool:
        """True for non-origin points proximate to their parent only.

        The origin is counted as free: it is not satellite, and every rule
        that branches on freeness treats it like a free point.
        """
        return self.record(p).second_proximity is None

    def is_satellite(self, p: PointId) -> bool:
        return self.record(p).second_proximity is not None

    # -- proximity structure ---------------------------------------------

    def proximities(self, q: PointId) -> set[PointId]:
        """The one or two points ``q`` is proximate to."""
        r = self.record(q)
        out: set[PointId] = set()
        if r.parent is not None:
            out.add(r.parent)
        if r.second_proximity is not None:
            out.add(r.second_proximity)
        return out

    def is_proximate(self, q: PointId, p: PointId) -> bool:
        r = self.record(q)
        self.record(p)
        return p == r.parent or p == r.second_proximity

    def child_list(self, p: PointId) -> list[PointId]:
        """Children in arena order."""
        self.record(p)
        return self._children[p]

    def satellite_children(self, p: PointId) -> set[PointId]:
        self.record(p)
        return {
            c for c in self._children[p]
            if self._records[c].second_proximity is not None
        }

    def facts(self, p: PointId) -> PointFacts:
        """The point's cached facts; a broken raw record has none."""
        if not (isinstance(p, int) and 0 <= p < len(self._facts)):
            raise UnknownPoint(f"no point with id {p}")
        facts = self._facts[p]
        if facts is None:
            raise ArenaError(f"point {p} breaks an arena rule; see validate()")
        return facts

    def find_satellite(
        self, parent: PointId, second_proximity: PointId
    ) -> Optional[PointId]:
        """The point with exactly this proximity pair, if it exists."""
        return self._satellite_index.get((parent, second_proximity))

    def ancestors(self, p: PointId) -> tuple[PointId, ...]:
        """The chain from the origin up to and including ``p``."""
        self.record(p)
        cached = self._ancestor_cache.get(p)
        if cached is not None:
            return cached
        chain: list[PointId] = []
        q: Optional[PointId] = p
        while q is not None:
            chain.append(q)
            q = self._records[q].parent
        chain.reverse()
        result = tuple(chain)
        self._ancestor_cache[p] = result
        return result

    def precedes(self, p: PointId, q: PointId) -> bool:
        """Whether ``p`` lies on the chain of ``q`` (ancestor or equal)."""
        self.record(p)
        if p == q:
            return True
        if p > q:
            return False
        r: Optional[PointId] = self.record(q).parent
        while r is not None and r >= p:
            if r == p:
                return True
            r = self._records[r].parent
        return False

    # -- validation ------------------------------------------------------

    def validate(self) -> list[Diagnostic]:
        """Report every violated structural invariant (empty list = valid)."""
        out: list[Diagnostic] = []
        origin_seen = False
        pairs_seen: set[tuple[PointId, PointId]] = set()
        records = self._records
        for r in records:
            q, a, s = r.id, r.parent, r.second_proximity
            if a is None:
                if s is not None:
                    out.append(Diagnostic(
                        "IllegalProximity", q,
                        "origin cannot have a second proximity"))
                if origin_seen:
                    out.append(Diagnostic(
                        "DuplicateOrigin", q,
                        "more than one point without a parent"))
                origin_seen = True
                continue
            if a == q or s == q:
                out.append(Diagnostic(
                    "SelfReference", q, "point references itself"))
                continue
            if not 0 <= a < q:
                out.append(Diagnostic(
                    "UnknownParent", q,
                    f"parent {a} does not precede the point"))
                continue
            if s is None:
                continue
            if not 0 <= s < q:
                out.append(Diagnostic(
                    "UnknownPoint", q,
                    f"second proximity {s} does not precede the point"))
                continue
            ra = records[a]
            if s != ra.parent and s != ra.second_proximity:
                out.append(Diagnostic(
                    "IllegalProximity", q,
                    f"second proximity {s} is not among"
                    f" the proximities of parent {a}"))
                continue
            pair = (a, s)
            if pair in pairs_seen:
                out.append(Diagnostic(
                    "DuplicateSatellite", q,
                    f"another satellite already carries the proximity"
                    f" pair {pair}"))
            pairs_seen.add(pair)
        return out

    def __repr__(self) -> str:
        return f"ArenaTree({len(self._records)} points)"
