"""``ArenaTree.validate`` as it was before the arena recorded its rules on
append: one loop over the finished arena, reading its columns through the
public views.  Like ``append_raw``, it reads only an ``int`` as a point id,
never a ``bool``.  The parser and arena suites compare the library with
it."""

from enriques.errors import Diagnostic


def validate_reference(tree):
    out = []
    origin_seen = False
    pairs_seen = set()
    for p in tree.points():
        r = tree.record(p)
        if r.parent is None:
            if r.second_proximity is not None:
                out.append(Diagnostic(
                    "IllegalProximity", r.id,
                    "origin cannot have a second proximity"))
            if origin_seen:
                out.append(Diagnostic(
                    "DuplicateOrigin", r.id,
                    "more than one point without a parent"))
            origin_seen = True
            continue
        if r.parent == r.id or r.second_proximity == r.id:
            out.append(Diagnostic(
                "SelfReference", r.id, "point references itself"))
            continue
        if not (type(r.parent) is int and 0 <= r.parent < r.id):
            out.append(Diagnostic(
                "UnknownParent", r.id,
                f"parent {r.parent} does not precede the point"))
            continue
        if r.second_proximity is None:
            continue
        if not (type(r.second_proximity) is int
                and 0 <= r.second_proximity < r.id):
            out.append(Diagnostic(
                "UnknownPoint", r.id,
                f"second proximity {r.second_proximity} does not"
                " precede the point"))
            continue
        if r.second_proximity not in tree.proximities(r.parent):
            out.append(Diagnostic(
                "IllegalProximity", r.id,
                f"second proximity {r.second_proximity} is not among"
                f" the proximities of parent {r.parent}"))
            continue
        pair = (r.parent, r.second_proximity)
        if pair in pairs_seen:
            out.append(Diagnostic(
                "DuplicateSatellite", r.id,
                f"another satellite already carries the proximity"
                f" pair {pair}"))
        pairs_seen.add(pair)
    return out
