"""``ArenaTree.validate`` as it was before the arena recorded its rules on
append: one loop over raw (parent, second proximity, label) records, as
``ArenaTree.from_records`` takes them.  It reads only an ``int`` as a point
id, never a ``bool``.  The parser and arena suites compare the diagnostics
that ``from_records`` refuses records with against it."""

from enriques.errors import Diagnostic


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
