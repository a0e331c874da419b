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
derived once, when the point is appended, because the arena only grows;
the ordered proximity pair, a function of those columns, is derived when
read.
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
facts.  The rules are stated once, in :func:`_violations`, over raw
columns, so a point is checked before any arena holds it.
:meth:`ArenaTree.add_point` raises the first rule a point would break and
appends nothing; :meth:`ArenaTree.from_records` raises
:class:`~enriques.errors.ArenaValidationError`, which carries every rule
its records break as a :class:`~enriques.errors.Diagnostic`, and returns
no arena.

Facts are derived by two private writers; each one's docstring says
what it checks and what it trusts.  The record pass
:meth:`ArenaTree._derive` derives the facts of every record an arena
takes, whole columns from ``documents.parse`` and
:meth:`ArenaTree.from_records` and one point from
:meth:`ArenaTree.add_point`.  The run writer :meth:`ArenaTree._append_run`
writes the walk's runs of satellites that share a second proximity in
closed form.  Each call of either writer is one *write*, and what a write
appends enters the pair index and the run record by the one rule below,
so what the arena holds follows from its records and their writes, not
from the writer.

The index rule.  A *chain* of a write is a maximal stretch f..last of
its satellites in which each point after f is the child of the one
before, with f's second proximity.  The private pair index
``_satellite_index`` maps a satellite's (parent, second proximity) to its
id for the first point of each chain alone, so every chain costs one
entry; :meth:`ArenaTree.add_point`, one record per write, keeps a full
index.  Each later point p + 1 of a chain is the child of p with p's
second proximity s, so a lookup of (p, s) that misses the index answers
p + 1 when ``parents[p + 1] == p and seconds[p + 1] == s``; the arena
rules make that point the only one with the pair.
:meth:`ArenaTree._find` is the rule's one implementation, an unchecked
lookup for :func:`_violations`' duplicate rule, which calls it only on
checked ids, for the record pass and for the recovery walk, which looks
up only ids it holds; :meth:`ArenaTree.find_satellite` is its checked
wrapper for every other caller.  ``_runs`` records each chain of at
least ``CHAIN_CROSSOVER`` points, its first point with its last, a record
append-only like the columns, so the value sweep, the downward closure,
the oracle's chain walk and the canonical encoder read it with no
invalidation to take a chain's points at once, whichever writer wrote
them: a document written back after ``recover`` and parsed again holds
the walk's chains whole.  :meth:`ArenaTree._run_of` is the record's one
lookup of the run that holds a point.

Labels are decorative.  All structural queries and all equality notions use
ids only.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

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

#: Shortest chain of one write that the arena records (the module's
#: index rule), and so the shortest run that :meth:`ArenaTree._append_run`
#: writes as column ranges; a shorter one is cheaper as one ``append`` per
#: column and point, in one loop.  This also decides which runs the value
#: sweep takes in closed form (the argument is in the docstring of
#: ``recovery._second_half``).  The sweep extends a recorded run from its
#: second point, so it needs every recorded run to hold at least 2
#: points, and this constant to be at least 2.  The two ways of writing a
#: run stay, by measurement on the benchmark's pools in one process
#: (Python 3.11, 2 vCPUs), as median per-input ``recover`` ratios:
#: wide_fan's created runs are all 1-6 points long, and a crossover of 2
#: made its ``recover`` 1.33 times slower (1.02 between two copies of one
#: tree); every run point by point made polar_walk's 1.26 times slower
#: (1.52 over the pool).  The loop takes a run of one point, the
#: commonest, as fast as a branch of its own did: without that branch,
#: seeds 1-3 of all three pools read 0.99-1.02 against 0.98-1.02 between
#: two copies of one tree.
CHAIN_CROSSOVER = 10


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
    and ``None`` for the origin and free points.  It is derived when read:
    the smaller proximity is the one with the smaller k/n in the point's
    cone, where a proximity in another cone counts as 0.  By induction
    over a cone: the first satellite of its free point f has the pair
    (f's parent, f), at 0 and 1/n; a satellite with the pair (lo, hi) has
    for k and n the sums of lo's and hi's, so its k/n is their mediant,
    strictly between them, and its two satellites have the pairs
    (lo, it) and (it, hi).
    """

    defining_free_point: PointId
    n: int
    m0: int
    k: int
    ordered_proximities: Optional[tuple[PointId, PointId]]


class ArenaTree:
    """Append-only, columnar arena of infinitely near points.

    Points are topologically sorted: every referenced id comes before its
    referrer, and every point keeps the arena rules (the module docstring
    names the writers and what each checks).  ``_runs`` maps the first
    point of each recorded chain to its last, in ascending id, by the
    module's index rule, and ``_firsts`` lists those first points, for
    :meth:`_run_of`'s bisect.

    The columns are public for one-pass and hot readers, which must not
    modify them; ``xs[p]`` is point p's entry:

    * ``parents``, ``seconds``, ``labels``: parent, second proximity, label;
    * ``free_points``, ``ns``, ``m0s``, ``ks``: the point's facts (see
      :class:`PointFacts`), from which :meth:`facts` derives the rest.

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
        self._satellite_index: dict[tuple[PointId, PointId], PointId] = {}
        self._runs: dict[PointId, PointId] = {}  # the recorded chains
        self._firsts: list[PointId] = []  # their first points, ascending

    # -- construction --------------------------------------------------

    def add_point(
        self,
        parent: Optional[PointId] = None,
        second_proximity: Optional[PointId] = None,
        label: Optional[str] = None,
    ) -> PointId:
        """Append a new point and return its id.

        The point must keep every arena rule (see :func:`_violations`); on
        the first it would break this raises that rule's error and appends
        nothing; else the record pass :meth:`_derive` derives its facts.
        With no ``parent`` the point becomes the origin.
        """
        broken = _violations(self.parents, self.seconds, bool(self.parents),
                             self._find, parent, second_proximity, label)
        if broken:
            error, message = broken[0]
            raise error(message)
        self.parents.append(parent)
        self.seconds.append(second_proximity)
        self.labels.append(label)
        q = len(self.parents) - 1
        self._derive(q)
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

        Each record is checked by :func:`_violations` against the parents
        and second proximities of the records before it, whether one of
        them had no parent, and a pair index of every satellite among them
        that breaks no structural rule: a record that breaks only the label
        rule still holds its proximity pair, so a later record with the
        same pair is reported as a duplicate.  No arena holds a record
        before the loop has found nothing; then :meth:`_from_columns`
        adopts the lists and trusts their references.  The records are
        read once, so any iterable will do.
        """
        parents, seconds, labels = [], [], []  # the records so far
        index: dict[tuple[PointId, PointId], PointId] = {}
        rootless, out = False, []
        for q, (a, s, label) in enumerate(records):
            broken = _violations(parents, seconds, rootless,
                                 lambda p, t: index.get((p, t)), a, s, label)
            out.extend(Diagnostic(error.__name__, q, message)
                       for error, message in broken)
            parents.append(a)
            seconds.append(s)
            labels.append(label)
            rootless |= a is None
            if s is not None and (not broken or broken[0][0] is InvalidLabel):
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
        with the facts of the record pass :meth:`_derive`, or None when the
        pass finds a rule broken.  Its callers hand it labels that are None
        or strings and references to earlier ids only, so point 0 has no
        second proximity: :meth:`from_records` once its check loop found
        nothing, and ``documents.parse`` for documents its own loop found
        clean.  So only the parser's call can return None, and the parser
        then reports the rules through :meth:`from_records`.
        """
        tree = cls()
        tree.parents, tree.seconds, tree.labels = parents, seconds, labels
        return tree if tree._derive(0) else None

    def _derive(self, start: PointId) -> bool:
        """The record pass: derive the facts of the records from id
        ``start`` on, one write, and enter them in the pair index and the
        run record by the module's index rule.  It checks only what
        resolved references can still break, a second origin, an illegal
        proximity (by :func:`_violations`' test) or a repeated pair, and
        answers False at the first, the columns half written;
        :meth:`add_point` runs it once :func:`_violations` found nothing,
        so there it cannot fail.  A satellite q with parent a and second
        proximity s adds n and m0 over both proximities, and k adds s's
        share only when s lies in q's own cone.  Each fact column first
        takes a free point's entry per record, and the pass overwrites the
        entries that differ: n and m0 after the origin, all four columns at
        a satellite.  :meth:`_find` finds a repeated pair; a satellite whose
        parent is the record before it needs no lookup, since no earlier
        point can be a child of that parent.
        """
        parents, seconds = self.parents, self.seconds
        size = len(parents)
        free_points, ns, m0s, ks = self.free_points, self.ns, self.m0s, self.ks
        free_points += range(start, size)
        ones = [1] * (size - start)
        ns += ones
        m0s += ones
        ks += ones
        index, find = self._satellite_index, self._find
        first = last = start  # first..last: the write's latest chain
        for q in range(start, size):
            a, s = parents[q], seconds[q]
            if a is None:  # the origin, or a second point without parent
                if q:
                    return False
            elif s is None:
                ns[q] = ns[a]
                m0s[q] = m0s[a] + 1
            else:
                if a == q - 1 >= start and s == seconds[a]:
                    last = q  # the chain goes on, with no index entry
                elif (s != parents[a] and s != seconds[a]
                        or a != q - 1 and find(a, s) is not None):
                    return False
                else:
                    index[a, s] = q
                    self._record_run(first, last)
                    first = last = q
                free = free_points[q] = free_points[a]
                ks[q] = ks[a] + ks[s] if free_points[s] == free else ks[a]
                ns[q] = ns[a] + ns[s]
                m0s[q] = m0s[a] + m0s[s]
        self._record_run(first, last)
        return True

    def _record_run(self, f: PointId, last: PointId) -> None:
        """Record the chain f..last that one write appended, by the index
        rule, when it holds at least ``CHAIN_CROSSOVER`` points."""
        if last - f >= CHAIN_CROSSOVER - 1:
            self._runs[f] = last
            self._firsts.append(f)

    def _append_run(self, a: PointId, s: PointId, t: int) -> PointId:
        """Append t satellites proximate to s, each the child of the one
        before, the first a child of ``a``; return the last one's id.

        A trusted writer, for the recovery walk alone, that checks nothing:
        its precondition, t >= 1, s a proximity of a and the pair (a, s)
        not yet held, is proved in the docstring of
        ``recovery._satellite_walk``.  So the result equals t calls of
        :meth:`add_point` in every column and :meth:`find_satellite` answer.

        Every point of the run has second proximity s, so its n, m0 and k
        are a's plus i times s's share: the run is written from a and s in
        closed form.  The run is one write, one chain of the module's index
        rule: its first point alone goes into the pair index, and
        :meth:`_record_run` records it when it is long enough.  A run
        shorter than ``CHAIN_CROSSOVER`` points, as a wide fan's are, goes
        in by one loop, one ``append`` per column and point, which counts t
        down and returns at 0; a longer one, as a polar walk's is, as
        ranges, one ``extend`` per column.  The constant's comment has the
        measurements that keep both forms.
        """
        q = len(self.parents)
        free_points = self.free_points
        self._satellite_index[a, s] = q
        free, n, m0, k = free_points[a], self.ns[a], self.m0s[a], self.ks[a]
        n_s, m0_s = self.ns[s], self.m0s[s]
        k_s = self.ks[s] if free_points[s] == free else 0
        if t < CHAIN_CROSSOVER:
            while True:
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
                t -= 1
                if not t:
                    return q
                a, q = q, q + 1
        last = q + t - 1
        self.parents.extend((a, *range(q, last)))
        self.seconds.extend(repeat(s, t))
        self.labels.extend(repeat(None, t))
        free_points.extend(repeat(free, t))
        self.ns.extend(range(n + n_s, n + (t + 1) * n_s, n_s))
        self.m0s.extend(range(m0 + m0_s, m0 + (t + 1) * m0_s, m0_s))
        self.ks.extend(range(k + k_s, k + (t + 1) * k_s, k_s) if k_s
                       else repeat(k, t))
        self._record_run(q, last)
        return last

    def _run_of(self, q: PointId) -> Optional[PointId]:
        """The first point f of the recorded run f..last that holds q after
        its first point, f < q <= last, or None; one bisect on the runs'
        first points, unchecked.  Every point of f+1..last is the child of
        the one before, with f's second proximity, by the module's index
        rule."""
        firsts = self._firsts
        if firsts:
            f = firsts[bisect_right(firsts, q) - 1]
            if f < q <= self._runs[f]:
                return f
        return None

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
        ns, ks, free = self.ns, self.ks, self.free_points[p]
        a, s, pair = self.parents[p], self.seconds[p], None
        if s is not None:  # order the pair by k/n in p's cone
            k_s = ks[p] - ks[a]  # s's share of k, as the writers store it
            pair = (s, a) if k_s * ns[a] < ks[a] * ns[s] else (a, s)
        return PointFacts(free, ns[p], self.m0s[p], ks[p], pair)

    def find_satellite(
        self, parent: PointId, second_proximity: PointId
    ) -> Optional[PointId]:
        """The point with exactly this proximity pair, if it exists; None
        for anything that is not an ``int`` id and for a parent outside
        the arena.  The checked wrapper of :meth:`_find`."""
        if (type(parent) is not int or type(second_proximity) is not int
                or not 0 <= parent < len(self.parents)):
            return None
        return self._find(parent, second_proximity)

    def _find(self, a: PointId, s: PointId) -> Optional[PointId]:
        """:meth:`find_satellite` for an ``a`` that is an arena id and an
        ``int`` ``s``, unchecked: the index rule, which the module
        docstring states."""
        q = self._satellite_index.get((a, s))
        if q is None:
            q = a + 1
            if (q == len(self.parents) or self.parents[q] != a
                    or self.seconds[q] != s):
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

    def __repr__(self) -> str:
        return f"ArenaTree({len(self.parents)} points)"


def _violations(
    parents: list[Optional[PointId]], seconds: list[Optional[PointId]],
    rootless: bool, find: Callable[[PointId, PointId], Optional[PointId]],
    a: Optional[PointId], s: Optional[PointId], label: object,
) -> list[tuple[type[ArenaError], str]]:
    """The arena rules that a point (a, s) with ``label`` would break,
    appended next to points with these ``parents`` and ``seconds``, as
    (error class, message) pairs in report order.  ``rootless`` says
    whether a point without parent came before, and ``find`` is the pair
    lookup of the points so far.

    This is the one statement of the rules.  At most one point has no
    parent, and it has no second proximity.  Every other point names
    an earlier point as its parent; a satellite also names an earlier
    point that the parent is proximate to, and no other point may hold
    the same pair.  A label is None or a string; a bad one is reported
    last, after the first structural rule the point breaks.  Each check
    reads only the point's references, its parent's, the pair lookup
    and ``rootless``, so it takes constant time.
    """
    q = len(parents)
    out: list[tuple[type[ArenaError], str]] = []
    if a is None:
        if s is not None:
            out.append((IllegalProximity,
                        "origin cannot have a second proximity"))
        if rootless:
            out.append((DuplicateOrigin,
                        "more than one point without a parent"))
    elif a == q or s == q:
        out.append((SelfReference, "point references itself"))
    elif type(a) is not int or not 0 <= a < q:
        out.append((UnknownParent,
                    f"parent {a} does not precede the point"))
    elif s is None:
        pass
    elif type(s) is not int or not 0 <= s < q:
        out.append((UnknownPoint,
                    f"second proximity {s} does not precede the point"))
    elif s != parents[a] and s != seconds[a]:
        out.append((IllegalProximity,
                    f"second proximity {s} is not among the proximities"
                    f" of parent {a}"))
    elif find(a, s) is not None:
        out.append((DuplicateSatellite,
                    "another satellite already carries the proximity"
                    f" pair {(a, s)}"))
    if not (label is None or isinstance(label, str)):
        out.append((InvalidLabel,
                    f"label {label!r} is neither None nor a string"))
    return out
