"""Independent statements of the arena, over raw (parent, second proximity,
label) records as ``ArenaTree.from_records`` takes them.

``validate_reference`` is ``ArenaTree.validate`` as it was before the arena
recorded its rules on append: one loop over the records.  It reads only an
``int`` as a point id, never a ``bool``.  The parser and arena suites
compare the diagnostics that ``from_records`` refuses records with against
it.

``triples`` and ``proximities`` read the records and a point's proximities
off the columns, and ``satellite_answers`` asks ``find_satellite``, or
another lookup, for every (point, proximity) pair, the whole contract of
the arena's pair index; ``scan_answers`` gives the same answers from a
scan of the columns.  ``index_rule`` reads off the columns the pair index
and the run record that the arena's index rule gives records appended in
given writes, ``check_index_rule`` asserts that an arena holds them, and
``point_by_point`` rebuilds an arena one ``add_point``
at a time, the index rule's point-by-point reference.
``reference_facts`` derives each record's facts as the arena did before it
became columnar, one facts tuple per point, so the suites can check the
columns that the library's fact writers derive against code they do not
share.
"""

from typing import Optional

from enriques import ArenaTree, PointFacts, PointId
from enriques.arena import CHAIN_CROSSOVER
from enriques.errors import Diagnostic


def triples(tree: ArenaTree) -> list[tuple]:
    """The arena's (parent, second proximity, label) records, in id order."""
    return list(zip(tree.parents, tree.seconds, tree.labels))


def proximities(tree: ArenaTree, q: PointId) -> set[PointId]:
    """The one or two points ``q`` is proximate to."""
    return {r for r in (tree.parents[q], tree.seconds[q]) if r is not None}


def satellite_answers(tree: ArenaTree, find=None) -> list[Optional[PointId]]:
    """``find_satellite``, or the lookup ``find`` given, on every (point,
    proximity) pair, in id order."""
    find = find or tree.find_satellite
    return [find(p, s) for p in tree.points()
            for s in sorted(proximities(tree, p))]


def point_by_point(tree: ArenaTree) -> ArenaTree:
    """The arena's records appended again by one ``add_point`` each: one
    write per record, so a full pair index and no recorded run."""
    copy = ArenaTree()
    for record in triples(tree):
        copy.add_point(*record)
    return copy


def scan_answers(tree: ArenaTree) -> list[Optional[PointId]]:
    """What ``satellite_answers`` must give: the satellite that holds each
    (point, proximity) pair, found by a scan of the columns."""
    held = {(a, s): q for q, (a, s) in enumerate(zip(tree.parents,
                                                      tree.seconds))
            if s is not None}
    return [held.get((p, s)) for p in tree.points()
            for s in sorted(proximities(tree, p))]


def index_rule(tree: ArenaTree, starts=(0,)) -> tuple[dict, dict]:
    """The pair index and the run record of the arena's records appended in
    writes that begin at the ids ``starts``, by a scan of the columns.  A
    satellite whose parent is the record before it, of the same write, with
    the same second proximity, goes on a chain and has no entry; every
    other satellite starts a chain and has one.  Each chain of at least
    ``CHAIN_CROSSOVER`` points is recorded, its first point with its
    last."""
    seconds = tree.seconds
    index: dict[tuple[PointId, PointId], PointId] = {}
    chains: list[list[PointId]] = []
    for q, (a, s) in enumerate(zip(tree.parents, seconds)):
        if s is None:
            continue
        if q not in starts and a == q - 1 and s == seconds[a]:
            chains[-1][1] = q
        else:
            index[a, s] = q
            chains.append([q, q])
    return index, {f: last for f, last in chains
                   if last - f + 1 >= CHAIN_CROSSOVER}


def check_index_rule(tree: ArenaTree, starts=(0,)) -> int:
    """Assert that the arena's pair index and run record are
    ``index_rule``'s for writes that begin at ``starts``, and that its
    unchecked lookup answers as a scan; return the number of runs it
    records."""
    assert (tree._satellite_index, tree._runs) == index_rule(tree, starts)
    assert tree._firsts == [*tree._runs]
    assert satellite_answers(tree, tree._find) == scan_answers(tree)
    return len(tree._runs)


def reference_facts(records) -> list[Optional[PointFacts]]:
    """Each record's facts, or None for a record that cannot have any: one
    that breaks an arena rule or whose parent has no facts.  The label is
    not read."""
    facts: list[Optional[PointFacts]] = []
    index: dict[tuple[PointId, PointId], PointId] = {}
    for q, (a, s, _) in enumerate(records):
        facts.append(_derive_facts(records, facts, index, q, a, s))
        if a is not None and s is not None:
            index.setdefault((a, s), q)
    return facts


def _derive_facts(records, facts, index, q, a, s) -> Optional[PointFacts]:
    if a is None:
        return PointFacts(0, 1, 1, 1, None) if q == 0 and s is None else None
    if not 0 <= a < q or facts[a] is None:
        return None
    free_a, n_a, m0_a, k_a, pair = facts[a]
    if s is None:
        return PointFacts(q, n_a, m0_a + 1, 1, None)
    if (a, s) in index:
        return None
    if pair is None:
        pair = (records[a][0], a)
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
    return PointFacts(free_a, n_a + n_s, m0_a + m0_s, k_a, pair)


def validate_reference(records):
    out = []
    origin_seen = False
    pairs_seen = set()
    for q, (parent, second, _) in enumerate(records):
        if parent is None:
            if second is not None:
                out.append(Diagnostic(
                    "IllegalProximity", q,
                    "origin cannot have a second proximity"))
            if origin_seen:
                out.append(Diagnostic(
                    "DuplicateOrigin", q,
                    "more than one point without a parent"))
            origin_seen = True
            continue
        if parent == q or second == q:
            out.append(Diagnostic(
                "SelfReference", q, "point references itself"))
            continue
        if not (type(parent) is int and 0 <= parent < q):
            out.append(Diagnostic(
                "UnknownParent", q,
                f"parent {parent} does not precede the point"))
            continue
        if second is None:
            continue
        if not (type(second) is int and 0 <= second < q):
            out.append(Diagnostic(
                "UnknownPoint", q,
                f"second proximity {second} does not precede the point"))
            continue
        if second not in records[parent][:2]:
            out.append(Diagnostic(
                "IllegalProximity", q,
                f"second proximity {second} is not among"
                f" the proximities of parent {parent}"))
            continue
        pair = (parent, second)
        if pair in pairs_seen:
            out.append(Diagnostic(
                "DuplicateSatellite", q,
                f"another satellite already carries the proximity"
                f" pair {pair}"))
        pairs_seen.add(pair)
    return out
