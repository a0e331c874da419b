"""The ambient tree of infinitely near points.

An :class:`ArenaTree` owns every point that any cluster may mention.  Points
are created once and never deleted; a :data:`PointId` is simply the point's
index in the arena, so ids are stable across all later extensions (the
recovery algorithms only ever append satellite points).

Each non-origin point carries a ``parent`` (the point in whose first
neighbourhood it appeared) and, for satellite points, a ``second_proximity``:
the earlier point whose exceptional divisor the point also lies on.  A point
is *free* when it is proximate to its parent only, *satellite* when it is
proximate to exactly two points; no other arrangement occurs.

The arena is columnar: it stores no per-point object.  Parallel lists
indexed by point id hold each point's parent, second proximity and label,
and the facts its proximities fix (see :class:`PointFacts`), which are
derived once, when the point is appended, because the arena only grows.
Hot readers index the columns directly and trust the ids they index with.
The checked readers stay for callers that read an arena without its
columns: ``cluster.unibranch_chain`` takes a chain from
:meth:`ArenaTree.ancestors`, :meth:`ArenaTree.facts` gives a point's facts
as one view, and ``perfbench/pipeline.py`` reads an arena through
``points``, ``origin``, ``parent``, ``second_proximity`` and
``ancestors`` alone.  Each reader that takes a point id raises
:class:`~enriques.errors.UnknownPoint` on anything that is not an arena
index (a list would silently accept ``-1``, and ``True`` as ``1``), except
:meth:`ArenaTree.find_satellite`, which answers None instead.

Every point an arena holds keeps the arena rules, so every point has
facts.  The rules are stated once, in :meth:`ArenaTree._violations`.
:meth:`ArenaTree.add_point` raises the first rule a point would break and
appends nothing; :meth:`ArenaTree.from_records` raises
:class:`~enriques.errors.ArenaValidationError`, which carries every rule
its records break as a :class:`~enriques.errors.Diagnostic`, and returns
no arena.

Facts are derived by two private writers that share one pair rule,
:func:`_satellite_pair`.  :meth:`ArenaTree._from_columns` builds a whole
arena from resolved columns in one pass, point by point, and checks only
the rules resolved references can still break: the parser hands it the
columns of a clean document, and :meth:`ArenaTree.from_records` the
records its check loop found clean.  :meth:`ArenaTree._append_run` writes
a run of satellites that share a second proximity in closed form, every
point from the run's parent and second proximity, and checks nothing: the
recovery walk appends only runs it has proved legal, and
:meth:`ArenaTree.add_point` appends a satellite as a run of one once
:meth:`ArenaTree._violations` has found no rule it breaks (it writes the
origin and a free point itself).

The arena also records, in ``_runs``, each run that the run writer
writes as ranges, its first point's id mapped to its last one's.  The
record is append-only like the columns, so it needs no invalidation;
the other writers record nothing, and an arena starts with it empty.
The recovery's value sweep and downward closure read it to take a run's
points at once.

The index rule.  The private pair index ``_satellite_index`` maps a
satellite's (parent, second proximity) to its id, for every satellite
but the points after the first of a recorded run: the range writer
enters a run's first point alone, so a run costs one entry.  Each later
point p + 1 of such a run is the child of p with p's second proximity
s, so a lookup of (p, s) that misses the index answers p + 1 when
``parents[p + 1] == p and seconds[p + 1] == s``; the arena rules make
that point the only one with the pair.  :meth:`ArenaTree.find_satellite`
states the lookup, :meth:`ArenaTree._violations` asks it for the
duplicate rule, and ``recovery._satellite_walk`` inlines it.  It reads
p + 1 only on an arena with recorded runs, whose index is full
otherwise: :meth:`ArenaTree.from_records`' check loop holds records
that break rules and never a run, so there the index alone answers.

Labels are decorative.  All structural queries and all equality notions use
ids only.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import (
    ArenaError,
    ArenaValidationError,
    Diagnostic,
    DuplicateOrigin,
    DuplicateSatellite,
    IllegalProximity,
    InvalidLabel,
    SelfReference,
    UnknownParent,
    UnknownPoint,
)

PointId = int

#: Shortest run that :meth:`ArenaTree._append_run` writes as column
#: ranges; a shorter one is cheaper as one ``append`` per column and point.
#: Both writers stay, by measurement on the benchmark's seed-1 pools
#: (Python 3.11, 2 vCPUs): wide_fan's 4,981 created runs are all 1-6
#: points long, and at t <= 10 the range writer costs 1.7-3.9 times the
#: per-point writer per run; polar_walk's 115 runs reach 520 points, and
#: writing every run point by point makes polar ``recover`` 1.04-1.05
#: times slower per input in the median (1.08-1.09 over the pool).
#: The arena records exactly the runs written as ranges, and the value
#: sweep takes exactly those in closed form, one affine piece per run up
#: to where its order test flips, so this also decides which runs the
#: sweep takes at once.  On the same pool, interleaved in one process,
#: taking them made polar ``recover`` take 0.69 times as long per input
#: on the largest fifth and 0.82 on the 50-80 % band, and left the
#: smaller half, whose runs are 10-50 points long, at 1.01 (A/A 1.02);
#: those figures are for a step that wrote up to two pieces per run, and
#: the one-piece step reads the same within the A/A band.  These figures
#: were taken while the range writer entered every run point in the pair
#: index; it now enters the first alone (see the module's index rule).
#: With that lean index, ranges for every run (a crossover of 1) made
#: wide_fan ``recover`` 1.55 times slower per input, so 10 stays.
CHAIN_CROSSOVER = 10


def _satellite_pair(
    a: PointId, a_parent: Optional[PointId],
    a_pair: Optional[tuple[PointId, PointId]], s: PointId,
) -> Optional[tuple[PointId, PointId]]:
    """The ordered proximity pair of a new satellite with parent ``a`` and
    second proximity ``s``, or None when ``a`` is not proximate to ``s``.

    This is the one statement of the pair rule, for a parent with facts
    and an ``int`` s.  The pair is (a's parent, a) when a is free; when a
    is a satellite with pair (lo, hi) it is (lo, a) for s = lo and
    (a, hi) for s = hi, so a run of moves that share s keeps s on the same
    side of every pair it writes.
    """
    if a_pair is None:
        return (a_parent, a) if s == a_parent else None
    if s == a_pair[0]:
        return (s, a)
    if s == a_pair[1]:
        return (a, s)
    return None


class PointFacts(NamedTuple):
    """View of what a point's proximities fix once and for all.

    ``n`` and ``k`` are the weights at the origin and at the defining free
    point of the unibranch chain ending at the point, so ``k/n`` is the
    point's position in the satellite cone of its defining free point.
    ``m0`` is the height m of :mod:`~enriques.recovery` over the empty
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


class ArenaTree:
    """Append-only, columnar arena of infinitely near points.

    Points are topologically sorted: every referenced id comes before its
    referrer, and every point keeps the arena rules: :meth:`add_point`
    and :meth:`from_records` refuse a point that would break one,
    :meth:`_from_columns` builds no arena from columns that break one, and
    :meth:`_append_run` writes only runs its caller has proved legal.  The
    facts are derived by those last two writers alone, and the run writer
    alone records the runs it writes as ranges, in ``_runs``, which maps
    each such run's first point to its last, in ascending id.

    The columns are public for one-pass and hot readers, which must not
    modify them; ``xs[p]`` is point p's entry:

    * ``parents``, ``seconds``, ``labels``: parent, second proximity, label;
    * ``free_points``, ``ns``, ``m0s``, ``ks``, ``pairs``: the point's
      facts (see :class:`PointFacts`).

    A fully built arena is safe to share read-only between threads; the
    operations that extend it (satellite creation during recovery) require
    exclusive access.
    """

    def __init__(self) -> None:
        self.parents: list[Optional[PointId]] = []
        self.seconds: list[Optional[PointId]] = []
        self.labels: list[Optional[str]] = []
        self.free_points: list[PointId] = []
        self.ns: list[int] = []
        self.m0s: list[int] = []
        self.ks: list[int] = []
        self.pairs: list[Optional[tuple[PointId, PointId]]] = []
        self._satellite_index: dict[tuple[PointId, PointId], PointId] = {}
        self._rootless = False  # whether any point so far has no parent
        self._runs: dict[PointId, PointId] = {}  # range-written runs

    # -- construction --------------------------------------------------

    def add_point(
        self,
        parent: Optional[PointId] = None,
        second_proximity: Optional[PointId] = None,
        label: Optional[str] = None,
    ) -> PointId:
        """Append a new point and return its id.

        The point must keep every arena rule (see :meth:`_violations`); on
        the first it would break this raises that rule's error and appends
        nothing.  With no ``parent`` the point becomes the origin.
        """
        broken = self._violations(parent, second_proximity, label)
        if broken:
            error, message = broken[0]
            raise error(message)
        q = len(self.parents)
        if second_proximity is not None:
            self._append_run(parent, second_proximity, 1)
            self.labels[q] = label
            return q
        self._rootless |= parent is None
        n, m0 = ((1, 1) if parent is None
                 else (self.ns[parent], self.m0s[parent] + 1))
        self.parents.append(parent)
        self.seconds.append(None)
        self.labels.append(label)
        self.free_points.append(q)
        self.ns.append(n)
        self.m0s.append(m0)
        self.ks.append(1)
        self.pairs.append(None)
        return q

    @classmethod
    def from_records(
        cls,
        records: Iterable[
            tuple[Optional[PointId], Optional[PointId], Optional[str]]],
    ) -> "ArenaTree":
        """Build an arena from raw (parent, second_proximity, label) triples.

        When the records break any arena rule this raises
        :class:`ArenaValidationError`, whose ``diagnostics`` name every
        broken rule in record order, and returns no arena.

        Each record is checked by :meth:`_violations` against the parents,
        second proximities, pair index and rootless flag as the records
        before it left them.  A record that breaks only the label rule
        still holds its proximity pair, so a later record with the same
        pair is reported as a duplicate.  Only records that break nothing
        reach :meth:`_from_columns`, which trusts their references.  The
        records are read once, so any iterable will do.
        """
        checked = cls()  # what the rules read of the records so far
        parents, seconds, labels = checked.parents, checked.seconds, checked.labels
        index = checked._satellite_index
        out: list[Diagnostic] = []
        for q, (a, s, label) in enumerate(records):
            broken = checked._violations(a, s, label)
            out.extend(Diagnostic(error.__name__, q, message)
                       for error, message in broken)
            parents.append(a)
            seconds.append(s)
            labels.append(label)
            if a is None:
                checked._rootless = True
            elif s is not None and (
                    not broken or broken[0][0] is InvalidLabel):
                index[a, s] = q
        if out:
            raise ArenaValidationError(out)
        return cls._from_columns(parents, seconds, labels)

    @classmethod
    def _from_columns(
        cls, parents: list[Optional[PointId]],
        seconds: list[Optional[PointId]], labels: list[Optional[str]],
    ) -> Optional["ArenaTree"]:
        """An arena that adopts the three lists as its columns, uncopied,
        or None when they break an arena rule.

        A trusted writer, and the one point-by-point statement of the
        facts: it derives them, the pair index and the rootless flag, but
        checks only the rules that resolved references can still break, a
        second origin, an illegal proximity or a repeated pair, and stops
        at the first.  Its callers hand it only labels that are None or
        strings and references to earlier points' ids, so point 0 has no
        second proximity: :meth:`from_records`, whose labels may be None,
        once its check loop found nothing, and ``documents.parse``, for
        documents its own loop found clean, whose labels are all strings.
        So only the parser's call can return None, and the parser then
        reports the rules through :meth:`from_records`.

        Let q be a satellite with parent a and second proximity s.  Its
        pair is :func:`_satellite_pair`; n and m0 add up over both
        proximities; k adds s's share only when s lies in q's own cone.
        Every column starts as a free point's entry, and the one pass
        overwrites the entries that differ: n and m0 at every point after
        the origin, all five facts at a satellite.
        """
        size = len(parents)
        free_points, ns, m0s = list(range(size)), [1] * size, [1] * size
        ks, pairs = [1] * size, [None] * size
        index: dict[tuple[PointId, PointId], PointId] = {}
        for q, (a, s) in enumerate(zip(parents, seconds)):
            if a is None:  # the origin, or a second point without parent
                if q:
                    return None
            elif s is None:
                ns[q] = ns[a]
                m0s[q] = m0s[a] + 1
            else:
                pair = _satellite_pair(a, parents[a], pairs[a], s)
                if pair is None or (a, s) in index:
                    return None
                index[a, s] = q
                pairs[q] = pair
                free = free_points[q] = free_points[a]
                ks[q] = ks[a] + ks[s] if free_points[s] == free else ks[a]
                ns[q] = ns[a] + ns[s]
                m0s[q] = m0s[a] + m0s[s]
        # every attribute __init__ sets, without its empty lists
        tree = object.__new__(cls)
        tree.parents, tree.seconds, tree.labels = parents, seconds, labels
        tree.free_points, tree.ns, tree.m0s = free_points, ns, m0s
        tree.ks, tree.pairs = ks, pairs
        tree._satellite_index, tree._rootless = index, bool(parents)
        tree._runs = {}
        return tree

    def _append_run(self, a: PointId, s: PointId, t: int) -> PointId:
        """Append t satellites proximate to s, each the child of the one
        before, the first a child of ``a``; return the last one's id.

        A trusted writer that checks nothing.  The precondition is that
        t >= 1, that s is a proximity of a and that the arena does not hold
        the pair (a, s) yet, and both callers have proved all three before
        the call.  :meth:`add_point` appends a satellite as a run of one,
        after :meth:`_violations` found no rule it breaks.
        ``recovery._satellite_walk`` appends the walk's runs: t >= 1
        follows from its division, because the walk's bracket, checked
        once at its start, gives gap and delta opposite signs at every
        later point; (a, s) is not held, because its lookup by the index
        rule (see the module docstring) missed; and s is a proximity of
        a, because it is a free a's parent or a member of a satellite a's
        pair.  So every point of the run keeps the arena rules, and the
        result equals t calls of :meth:`add_point` in every column and in
        every :meth:`find_satellite` answer.

        Every point of the run has second proximity s, so its n, m0 and k
        are a's plus i times s's share, and its pair is
        :func:`_satellite_pair` of its parent, which keeps s on the side it
        takes at a: the whole run is written from a and s in closed form,
        by one of two writers, and ``CHAIN_CROSSOVER`` is the only switch
        between them.  A run of at least that many points goes in as
        ranges, one ``extend`` per column, into ``_runs``, and into the
        pair index by its first point alone, as the index rule allows; a
        shorter one as one ``append`` per column and point, with an index
        entry per point, unrecorded.
        """
        q = len(self.parents)
        free_points, index = self.free_points, self._satellite_index
        s_first = _satellite_pair(a, self.parents[a], self.pairs[a], s)[0] == s
        free, n, m0, k = free_points[a], self.ns[a], self.m0s[a], self.ks[a]
        n_s, m0_s = self.ns[s], self.m0s[s]
        k_s = self.ks[s] if free_points[s] == free else 0
        if t < CHAIN_CROSSOVER:
            for c in range(q, q + t):
                n += n_s
                m0 += m0_s
                k += k_s
                self.parents.append(a)
                self.seconds.append(s)
                self.labels.append(None)
                free_points.append(free)
                self.ns.append(n)
                self.m0s.append(m0)
                self.ks.append(k)
                self.pairs.append((s, a) if s_first else (a, s))
                index[a, s] = c
                a = c
            return a
        last = q + t - 1
        prev = (a, *range(q, last))
        self.parents.extend(prev)
        self.seconds.extend(repeat(s, t))
        self.labels.extend(repeat(None, t))
        free_points.extend(repeat(free, t))
        self.ns.extend(range(n + n_s, n + (t + 1) * n_s, n_s))
        self.m0s.extend(range(m0 + m0_s, m0 + (t + 1) * m0_s, m0_s))
        self.ks.extend(range(k + k_s, k + (t + 1) * k_s, k_s) if k_s
                       else repeat(k, t))
        if s_first:
            self.pairs.extend(zip(repeat(s), prev))
        else:
            self.pairs.extend(zip(prev, repeat(s)))
        index[a, s] = q
        self._runs[q] = last
        return last

    # -- basic queries --------------------------------------------------

    def __len__(self) -> int:
        return len(self.parents)

    def __contains__(self, p: object) -> bool:
        return type(p) is int and 0 <= p < len(self.parents)

    def _check(self, p: object) -> None:
        if p not in self:
            raise UnknownPoint(f"no point with id {p}")

    def points(self) -> Iterator[PointId]:
        return iter(range(len(self.parents)))

    def parent(self, p: PointId) -> Optional[PointId]:
        self._check(p)
        return self.parents[p]

    def second_proximity(self, p: PointId) -> Optional[PointId]:
        self._check(p)
        return self.seconds[p]

    @property
    def origin(self) -> Optional[PointId]:
        """Id 0, the first point, which is always the origin; None while the
        arena is empty."""
        return 0 if self.parents else None

    def facts(self, p: PointId) -> PointFacts:
        """A view of the point's facts."""
        self._check(p)
        return PointFacts(self.free_points[p], self.ns[p], self.m0s[p],
                          self.ks[p], self.pairs[p])

    def find_satellite(
        self, parent: PointId, second_proximity: PointId
    ) -> Optional[PointId]:
        """The point with exactly this proximity pair, if it exists; None
        for anything that is not an ``int`` id.  The one statement of the
        lookup by the index rule (see the module docstring): the pair
        index, else, on an arena with recorded runs, ``parent + 1`` when
        that point has this pair."""
        if type(parent) is not int or type(second_proximity) is not int:
            return None
        parents, seconds = self.parents, self.seconds
        q = self._satellite_index.get((parent, second_proximity))
        if q is None and self._runs and 0 <= parent < len(parents) - 1:
            q = parent + 1
            if parents[q] != parent or seconds[q] != second_proximity:
                return None
        return q

    def ancestors(self, p: PointId) -> tuple[PointId, ...]:
        """The chain from the origin up to and including ``p``."""
        self._check(p)
        parents = self.parents
        chain: list[PointId] = []
        q: Optional[PointId] = p
        while q is not None:
            chain.append(q)
            q = parents[q]
        chain.reverse()
        return tuple(chain)

    # -- validation ------------------------------------------------------

    def _violations(
        self, a: Optional[PointId], s: Optional[PointId],
        label: object = None,
    ) -> list[tuple[type[ArenaError], str]]:
        """The arena rules that a point (a, s) with ``label`` appended next
        would break, as (error class, message) pairs in report order.

        This is the one statement of the rules.  At most one point has no
        parent, and it has no second proximity.  Every other point names
        an earlier point as its parent; a satellite also names an earlier
        point that the parent is proximate to, and no other point may hold
        the same pair.  A label is None or a string; a bad one is reported
        last, after the first structural rule the point breaks.  Each check
        reads only the point's references, its parent's, the pair lookup
        of :meth:`find_satellite` and whether a point without parent came
        before, so it takes constant time.  The lookup reads the index
        alone while the arena records no run, as in the check loop of
        :meth:`from_records`, whose records may break rules.
        """
        q = len(self.parents)
        out: list[tuple[type[ArenaError], str]] = []
        if a is None:
            if s is not None:
                out.append((IllegalProximity,
                            "origin cannot have a second proximity"))
            if self._rootless:
                out.append((DuplicateOrigin,
                            "more than one point without a parent"))
        elif a == q or s == q:
            out.append((SelfReference, "point references itself"))
        elif a not in self:
            out.append((UnknownParent,
                        f"parent {a} does not precede the point"))
        elif s is None:
            pass
        elif s not in self:
            out.append((UnknownPoint,
                        f"second proximity {s} does not precede the point"))
        elif s != self.parents[a] and s != self.seconds[a]:
            out.append((IllegalProximity,
                        f"second proximity {s} is not among the proximities"
                        f" of parent {a}"))
        elif self.find_satellite(a, s) is not None:
            out.append((DuplicateSatellite,
                        "another satellite already carries the proximity"
                        f" pair {(a, s)}"))
        if not (label is None or isinstance(label, str)):
            out.append((InvalidLabel,
                        f"label {label!r} is neither None nor a string"))
        return out

    def __repr__(self) -> str:
        return f"ArenaTree({len(self.parents)} points)"
