"""JSON cluster documents: one arena plus one weighted cluster per file.

Schema (format_version 1)::

    {
      "format_version": 1,
      "weight_kind": "virtual" | "multiplicity" | "value",
      "points": [
        {"id": "O",  "weight": 2},
        {"id": "p1", "parent": "O", "weight": 2},
        {"id": "p4", "parent": "p3", "second_proximity": "p2", "weight": 0},
        ...
      ]
    }

Points appear in arena order, so every reference resolves to an earlier
entry.  A weight of 0 keeps the point in the arena without making it a
cluster member; that is how a file carries points the weighted cluster
does not reach (for example satellites shared with another cluster).

Parsing aggregates every structural problem into one
:class:`DocumentValidationError` instead of stopping at the first.  One
loop checks every entry and resolves it into the parent, second
proximity and label lists.  When it found nothing,
:meth:`ArenaTree._from_columns` adopts the lists as the arena's columns
and derives the facts in one trusted pass, which stops at the first
arena rule they break.  Any other document, and one that pass stops at,
goes to :meth:`ArenaTree.from_records`, which checks every point first
and refuses the arena with every rule its points break.  A weight must
be a JSON integer: ``true``/``false`` are rejected even though Python's
``bool`` is an ``int``, and ``format_version`` must be the integer 1
(not ``true`` or ``1.0``).  An integer with more digits than Python
reads into an int (``sys.get_int_max_str_digits()``) makes the text
invalid JSON.

A diagnostic names a point by its entry's index, which is its arena id:
an entry without a string id, with a repeated id or with an unresolved
parent takes its slot as a placeholder that refers to itself, and only
the parser's diagnostics name it (an unresolved parent is no origin).
So does an entry whose parent is a placeholder: its parent's proximities
are unknown, so its own cannot be checked against them.  The loop also
checks that the parent of each weighted point is weighted, so the cluster
adopts the weights without another pass; a point that breaks that is
reported only when nothing else is.

Serialization writes points in arena order under their names from
:func:`document_ids`: the label, or ``q#1``, ``q#2``, ... for unlabeled
points (the ones created during recovery) and repeated labels, so
``parse(serialize(...))`` round-trips and serializer output re-parses to
the cluster without its zero weights, which the format drops.  The CLI
and the DOT renderer name points by the same rule.  The writer is
hand-rolled, one string per point, and its text is byte-identical to
``json.dumps(doc, indent=2)`` plus a final newline (``json.dumps`` takes
its pure-Python encoder whenever ``indent`` is set).
A weight with more digits than Python writes as text raises
:class:`~enriques.errors.NumberTooLong`, as ``json.dumps`` would raise a
bare ``ValueError``.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Optional

from .arena import ArenaTree, PointId
from .cluster import WeightedCluster, WeightKind
from .errors import (
    ArenaMismatch,
    ArenaValidationError,
    Diagnostic,
    DocumentSyntaxError,
    DocumentValidationError,
    NotDownwardClosed,
    NumberTooLong,
)

FORMAT_VERSION = 1

_KINDS = {kind.value: kind for kind in WeightKind}


def _unresolved(index: int, field: str, value: Any) -> Diagnostic:
    return Diagnostic(
        "UnknownParent" if field == "parent" else "UnknownPoint", index,
        f"{field} {value!r} does not resolve to an earlier point")


def parse(text: str) -> tuple[ArenaTree, WeightedCluster]:
    """Parse a document into a fresh arena and its weighted cluster."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentSyntaxError(
            f"not valid JSON: {err.msg} (line {err.lineno},"
            f" column {err.colno})", position=err.pos) from err
    except RecursionError:
        raise DocumentSyntaxError(
            "not valid JSON: nested too deeply") from None
    except ValueError:  # an integer past Python's digit limit for str -> int
        raise DocumentSyntaxError(
            "not valid JSON: an integer has more than"
            f" {sys.get_int_max_str_digits()} digits") from None
    diagnostics: list[Diagnostic] = []
    if not isinstance(doc, dict):
        raise DocumentSyntaxError("top level must be a JSON object")
    version = doc.get("format_version")
    # 1.0 == 1 and True == 1 in Python; the version must be a JSON integer
    if type(version) is not int or version != FORMAT_VERSION:
        diagnostics.append(Diagnostic(
            "UnsupportedVersion", None,
            f"format_version must be {FORMAT_VERSION}, got {version!r}"))
    kind = doc.get("weight_kind")
    kind = _KINDS.get(kind) if isinstance(kind, str) else None
    if kind is None:
        diagnostics.append(Diagnostic(
            "UnknownWeightKind", None,
            f"weight_kind must be one of {sorted(_KINDS)},"
            f" got {doc.get('weight_kind')!r}"))
    entries = doc.get("points")
    if not isinstance(entries, list):
        diagnostics.append(Diagnostic(
            "MissingPoints", None, "'points' must be a list"))
        raise DocumentValidationError(diagnostics)

    # entry i is point i; a placeholder refers to itself
    parents: list[Optional[PointId]] = []
    seconds: list[Optional[PointId]] = []
    labels: list[Optional[str]] = []
    ids: dict[str, PointId] = {}
    weights: dict[PointId, int] = {}
    placeholders: set[PointId] = set()
    # the NotDownwardClosed message for the first weighted point whose
    # parent is unweighted
    unclosed = None
    for i, entry in enumerate(entries):
        try:
            point_id = entry["id"]
        except (KeyError, TypeError):  # no JSON object, or one without id
            point_id = None
        if type(point_id) is not str or point_id in ids:
            if type(point_id) is not str:
                diagnostics.append(Diagnostic(
                    "BadEntry", i, "each point needs a string 'id'"))
            else:
                diagnostics.append(Diagnostic(
                    "DuplicateId", i, f"id {point_id!r} already used"))
            placeholders.add(i)
            parents.append(i)
            seconds.append(None)
            labels.append(None)
            continue
        # ids has only string keys, so a reference that is no earlier id
        # raises a KeyError, or a TypeError when it is unhashable
        parent = entry.get("parent")
        if parent is not None:
            try:
                parent = ids[parent]
            except (KeyError, TypeError):
                diagnostics.append(_unresolved(i, "parent", parent))
                parent = i
                placeholders.add(i)
            else:
                if placeholders and parent in placeholders:
                    # its proximities are unknown too
                    parent = i
                    placeholders.add(i)
        second = entry.get("second_proximity")
        if second is not None:
            try:
                second = ids[second]
            except (KeyError, TypeError):
                diagnostics.append(_unresolved(i, "second_proximity", second))
                second = None
        weight = entry.get("weight")
        # JSON numbers load as int or float; true/false load as bool
        if type(weight) is not int or weight < 0:
            diagnostics.append(Diagnostic(
                "InvalidWeight", i,
                f"weight must be a non-negative integer, got {weight!r}"))
        label = entry.get("label")
        if label is None:
            label = point_id
        elif not isinstance(label, str):
            diagnostics.append(Diagnostic(
                "BadEntry", i, "label must be a string when present"))
            label = point_id
        ids[point_id] = i
        parents.append(parent)
        seconds.append(second)
        labels.append(label)
        if weight:
            weights[i] = weight
            if (parent not in weights and parent is not None
                    and unclosed is None):
                unclosed = (f"point {i} is in the cluster but its parent"
                            f" {parent} is not")

    # a clean document: only arena rules are left to break
    tree = (None if diagnostics or unclosed is not None
            else ArenaTree._from_columns(parents, seconds, labels))
    if tree is None:
        try:
            tree = ArenaTree.from_records(
                list(zip(parents, seconds, labels)))
        except ArenaValidationError as err:
            # the parser's own diagnostics name its placeholders
            diagnostics.extend(
                d for d in err.diagnostics if d.point not in placeholders)
        if unclosed is not None and not diagnostics:
            diagnostics.append(Diagnostic("NotDownwardClosed", None, unclosed))
        if diagnostics:
            raise DocumentValidationError(diagnostics)
    # the loop checked every property the constructor would
    return tree, WeightedCluster._adopt(tree, kind, weights)


def document_ids(tree: ArenaTree) -> list[str]:
    """Each point's document id, indexed by point id: its label, or the
    next free ``q#N`` when it has none or an earlier point took it."""
    taken: set[str] = set()
    out: list[str] = []
    counter = 0
    for label in tree.labels:
        if label is None or label in taken:
            counter += 1
            label = f"q#{counter}"
            while label in taken:
                counter += 1
                label = f"q#{counter}"
        taken.add(label)
        out.append(label)
    return out


def serialize(tree: ArenaTree, cluster: WeightedCluster) -> str:
    """Serialize the whole arena with the cluster's weights (0 = not a member).

    The text is byte-identical to ``json.dumps(doc, indent=2) + "\\n"``.
    A weight that Python would refuse to write as text raises
    :class:`~enriques.errors.NumberTooLong`.  The text drops weight 0, so
    a virtual cluster in which a zero-weight member is the parent of a
    weighted point raises :class:`~enriques.errors.NotDownwardClosed`,
    naming the lowest such point and its parent, where ``parse`` would
    refuse the text.
    """
    if cluster.tree is not tree:
        raise ArenaMismatch("cluster does not live over the given arena")
    names = [_quote(name) for name in document_ids(tree)]
    weight = cluster.weight
    if cluster.kind is WeightKind.VIRTUAL and 0 in weight.values():
        for p, a in enumerate(tree.parents):  # the lowest such point
            if weight.get(p) and weight.get(a) == 0:
                raise NotDownwardClosed(
                    f"point {p} is weighted but its parent {a} has weight"
                    " 0, which the document format drops")
    entries = []
    try:
        for p, (parent, second) in enumerate(zip(tree.parents, tree.seconds)):
            # json.dumps(indent=2) puts a point at depth 2, its fields at 3
            if parent is None:
                fields = f'"id": {names[p]}'
            elif second is None:
                fields = f'"id": {names[p]},\n      "parent": {names[parent]}'
            else:
                fields = (f'"id": {names[p]},'
                          f'\n      "parent": {names[parent]},'
                          f'\n      "second_proximity": {names[second]}')
            entries.append(f'{{\n      {fields},'
                           f'\n      "weight": {weight.get(p, 0)}\n    }}')
    except ValueError:  # a weight past Python's int-to-text digit limit
        raise NumberTooLong(max(weight.values())) from None
    points = ("[\n    " + ",\n    ".join(entries) + "\n  ]"
              if entries else "[]")
    return (f'{{\n  "format_version": {FORMAT_VERSION},'
            f'\n  "weight_kind": {_quote(cluster.kind.value)},'
            f'\n  "points": {points}\n}}\n')
