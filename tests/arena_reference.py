"""Independent statements of the arena, over raw (parent, second proximity,
label) records as ``ArenaTree.from_records`` takes them.

``validate_reference`` is ``ArenaTree.validate`` as it was before the arena
recorded its rules on append: one loop over the records.  It reads only an
``int`` as a point id, never a ``bool``.  The parser and arena suites
compare the diagnostics that ``from_records`` refuses records with against
it.

``triples`` and ``proximities`` read the records and a point's proximities
off the columns.  ``reference_facts`` derives each record's facts as the
arena did before it became columnar, one facts tuple per point, so the
suites can check the columns that the library's fact writers derive
against code they do not share.
"""

from typing import Optional

from enriques import ArenaTree, PointFacts, PointId
from enriques.errors import Diagnostic


def triples(tree: ArenaTree) -> list[tuple]:
    """The arena's (parent, second proximity, label) records, in id order."""
    return list(zip(tree.parents, tree.seconds, tree.labels))


def proximities(tree: ArenaTree, q: PointId) -> set[PointId]:
    """The one or two points ``q`` is proximate to."""
    return {r for r in (tree.parents[q], tree.seconds[q]) if r is not None}


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
