import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from enriques import (
    ArenaTree,
    WeightKind,
    WeightedCluster,
    parse,
    recover,
    serialize,
)
from enriques.errors import (
    ArenaMismatch,
    ClusterError,
    Diagnostic,
    DocumentSyntaxError,
    DocumentValidationError,
    InvalidWeight,
    NotDownwardClosed,
    NumberTooLong,
    UnknownPoint,
)

import fixture_builders as fb
from arena_reference import (
    check_index_rule, reference_facts, triples, validate_reference)
import make_fixtures
import randgen
from randgen import random_proximity_tree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


def test_golden_files_match_builders(fixture_dir):
    for name, text in make_fixtures.render_all().items():
        assert (fixture_dir / name).read_text(encoding="utf-8") == text, name


def test_parse_ex04(fixture_dir):
    tree, bp = parse((fixture_dir / "ex04_bp.json").read_text())
    assert len(tree) == 10
    assert len(bp) == 8
    assert bp.kind is WeightKind.VIRTUAL
    labels = {tree.labels[p] for p in tree.points()}
    assert {"p4", "p5"} <= labels  # arena-only points survive with weight 0


def test_round_trip_all_fixtures(fixture_dir):
    for path in sorted(fixture_dir.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        tree, cluster = parse(text)
        assert serialize(tree, cluster) == text, path.name


def test_serialize_names_created_points():
    tree, bp, _ = fb.ex05_bp()
    from enriques import recover

    result = recover(bp)
    text = serialize(tree, result.values)
    doc = json.loads(text)
    ids = [entry["id"] for entry in doc["points"]]
    assert ids[-2:] == ["q#1", "q#2"]
    tree2, values2 = parse(text)
    assert [values2.get(q) for q in tree2.points()] == \
        [result.values.get(p) for p in tree.points()]


def test_parse_rejects_bad_json():
    with pytest.raises(DocumentSyntaxError):
        parse("{not json")
    with pytest.raises(DocumentSyntaxError,
                       match="top level must be a JSON object"):
        parse("[]")


def test_parse_rejects_unknown_references():
    doc = {
        "format_version": 1,
        "weight_kind": "virtual",
        "points": [
            {"id": "O", "weight": 1},
            {"id": "a", "parent": "missing", "weight": 1},
        ],
    }
    with pytest.raises(DocumentValidationError) as info:
        parse(json.dumps(doc))
    assert any(d.code == "UnknownParent" for d in info.value.diagnostics)


def test_parse_rejects_illegal_proximity():
    doc = {
        "format_version": 1,
        "weight_kind": "virtual",
        "points": [
            {"id": "O", "weight": 2},
            {"id": "p1", "parent": "O", "weight": 2},
            {"id": "p2", "parent": "p1", "weight": 2},
            {"id": "p3", "parent": "p2", "second_proximity": "O",
             "weight": 1},
        ],
    }
    with pytest.raises(DocumentValidationError) as info:
        parse(json.dumps(doc))
    assert any(d.code == "IllegalProximity" for d in info.value.diagnostics)


def test_parse_rejects_duplicate_origin_and_aggregates():
    doc = {
        "format_version": 2,
        "weight_kind": "nonsense",
        "points": [
            {"id": "O", "weight": 1},
            {"id": "O2", "weight": 1},
        ],
    }
    with pytest.raises(DocumentValidationError) as info:
        parse(json.dumps(doc))
    codes = {d.code for d in info.value.diagnostics}
    assert {"UnsupportedVersion", "UnknownWeightKind", "DuplicateOrigin"} \
        <= codes


def test_parse_rejects_non_downward_closed_weights():
    doc = {
        "format_version": 1,
        "weight_kind": "multiplicity",
        "points": [
            {"id": "O", "weight": 2},
            {"id": "p1", "parent": "O", "weight": 0},
            {"id": "p2", "parent": "p1", "weight": 1},
        ],
    }
    with pytest.raises(DocumentValidationError) as info:
        parse(json.dumps(doc))
    assert any(d.code == "NotDownwardClosed" for d in info.value.diagnostics)


def test_parse_rejects_unresolved_parents_in_linear_time():
    # each unresolved parent is one diagnostic, not also a second origin;
    # a check that scanned earlier points would make this 10^5 entries
    # quadratic
    size = 100_000
    text = _doc([{"id": "O", "weight": 1}] + [
        {"id": f"p{i}", "parent": f"x{i}", "weight": 1} for i in range(size)])
    start = time.perf_counter()
    with pytest.raises(DocumentValidationError) as info:
        parse(text)
    elapsed = time.perf_counter() - start
    diagnostics = info.value.diagnostics
    assert len(diagnostics) == size
    assert Counter(d.code for d in diagnostics) == {"UnknownParent": size}
    assert elapsed < 5.0


def test_parse_diagnostics_number_points_by_entry_index():
    # a skipped entry keeps its index, so the arena's diagnostic names the
    # broken entry p2 (index 3) and its parent p1 (index 2)
    head = [{"id": "O", "weight": 1}]
    tail = [{"id": "p1", "parent": "O", "weight": 1},
            {"id": "p2", "parent": "p1", "second_proximity": "p1",
             "weight": 1}]
    for skipped, code in (({"weight": 1}, "BadEntry"),
                          ({"id": "O", "weight": 1}, "DuplicateId")):
        with pytest.raises(DocumentValidationError) as info:
            parse(_doc(head + [skipped] + tail))
        assert [(d.code, d.point, d.message)
                for d in info.value.diagnostics][1:] == [
            ("IllegalProximity", 3, "second proximity 2 is not among the"
             " proximities of parent 2")]
        assert info.value.diagnostics[0].code == code
        assert info.value.diagnostics[0].point == 1


def test_parse_checks_no_pair_under_an_unresolved_parent():
    # p1's proximities are unknown, so nothing can be said of p2's pair,
    # nor of p3's two levels up: one diagnostic, naming p1
    points = [{"id": "O", "weight": 1},
              {"id": "p1", "parent": "nope", "weight": 1},
              {"id": "p2", "parent": "p1", "second_proximity": "O",
               "weight": 1}]
    deeper = points + [{"id": "p3", "parent": "p2", "second_proximity": "O",
                        "weight": 1}]
    for document in (points, deeper):
        for parser in (parse, _parse_reference):
            with pytest.raises(DocumentValidationError) as info:
                parser(_doc(document))
            assert info.value.diagnostics == [Diagnostic(
                "UnknownParent", 1,
                "parent 'nope' does not resolve to an earlier point")]


def test_parse_marks_the_child_of_a_placeholder_as_one():
    # p1's parent does not resolve, so p1 is a placeholder that refers to
    # itself; its free child p2 becomes one too, or the self-reference
    # would show through p2 as a second diagnostic
    text = _doc([{"id": "O", "weight": 1},
                 {"id": "p1", "parent": "missing", "weight": 1},
                 {"id": "p2", "parent": "p1", "weight": 1}])
    for parser in (parse, _parse_reference):
        with pytest.raises(DocumentValidationError) as info:
            parser(text)
        assert info.value.diagnostics == [Diagnostic(
            "UnknownParent", 1,
            "parent 'missing' does not resolve to an earlier point")]


def _doc(points, version=1, kind="virtual"):
    return json.dumps({"format_version": version, "weight_kind": kind,
                       "points": points})


@pytest.mark.parametrize("weight", [True, False])
def test_parse_rejects_bool_weights(weight):
    text = _doc([{"id": "O", "weight": 2},
                 {"id": "p1", "parent": "O", "weight": weight}])
    with pytest.raises(DocumentValidationError) as info:
        parse(text)
    assert info.value.diagnostics == [Diagnostic(
        "InvalidWeight", 1,
        f"weight must be a non-negative integer, got {weight!r}")]


def test_parse_rejects_bool_version():
    with pytest.raises(DocumentValidationError) as info:
        parse(_doc([{"id": "O", "weight": 1}], version=True))
    assert info.value.diagnostics == [Diagnostic(
        "UnsupportedVersion", None, "format_version must be 1, got True")]


def test_parse_rejects_float_version():
    # 1.0 == 1 in Python, but a JSON number with a fraction part is no version
    with pytest.raises(DocumentValidationError) as info:
        parse(_doc([{"id": "O", "weight": 1}], version=1.0))
    assert info.value.diagnostics == [Diagnostic(
        "UnsupportedVersion", None, "format_version must be 1, got 1.0")]


def test_serialize_empty_arena():
    tree = ArenaTree()
    text = serialize(tree, WeightedCluster(tree, WeightKind.VALUE, {}))
    assert '"points": []' in text
    assert text == json.dumps({"format_version": 1, "weight_kind": "value",
                               "points": []}, indent=2) + "\n"
    with pytest.raises(ArenaMismatch):
        serialize(ArenaTree(), WeightedCluster(tree, WeightKind.VALUE, {}))


# -- reference suites ---------------------------------------------------------
#
# The serializer and the parser before the one-pass rewrite, kept verbatim
# (the reference parser with the arena validation and cluster checks it
# ran) so that the library's output and diagnostics can be compared with
# them on random inputs.  One change: the reference parser, like parse,
# takes only a JSON integer as the version or a weight, since Python reads
# true as 1 and 1.0 == 1.


def _document_ids_reference(tree):
    taken = set()
    out = {}
    counter = 0
    for p in tree.points():
        label = tree.labels[p]
        if label is None or label in taken:
            counter += 1
            label = f"q#{counter}"
            while label in taken:
                counter += 1
                label = f"q#{counter}"
        taken.add(label)
        out[p] = label
    return out


def _serialize_reference(tree, cluster):
    names = _document_ids_reference(tree)
    points = []
    for p in tree.points():
        entry = {"id": names[p]}
        parent = tree.parent(p)
        if parent is not None:
            entry["parent"] = names[parent]
        second = tree.second_proximity(p)
        if second is not None:
            entry["second_proximity"] = names[second]
        entry["weight"] = cluster.get(p, 0)
        points.append(entry)
    doc = {
        "format_version": 1,
        "weight_kind": cluster.kind.value,
        "points": points,
    }
    return json.dumps(doc, indent=2) + "\n"


def _cluster_reference(tree, kind, weight):
    weights = dict(weight)
    floor = 0 if kind is WeightKind.VIRTUAL else 1
    for p, w in weights.items():
        if p not in tree:
            raise UnknownPoint(f"cluster mentions unknown point {p}")
        if not isinstance(w, int) or w < floor:
            raise InvalidWeight(
                f"weight {w!r} at point {p} below {floor}"
                f" for kind {kind.value}")
        parent = tree.parents[p]
        if parent is not None and parent not in weights:
            raise NotDownwardClosed(
                f"point {p} is in the cluster but its parent"
                f" {parent} is not")
    return WeightedCluster(tree, kind, weights)


_KINDS = {kind.value: kind for kind in WeightKind}


def _parse_reference(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentSyntaxError(
            f"not valid JSON: {err.msg} (line {err.lineno},"
            f" column {err.colno})", position=err.pos) from err
    except RecursionError:
        raise DocumentSyntaxError(
            "not valid JSON: nested too deeply") from None
    except ValueError:
        raise DocumentSyntaxError(
            "not valid JSON: an integer has more than"
            f" {sys.get_int_max_str_digits()} digits") from None
    diagnostics = []
    if not isinstance(doc, dict):
        raise DocumentSyntaxError("top level must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != 1:
        diagnostics.append(Diagnostic(
            "UnsupportedVersion", None,
            f"format_version must be 1, got {version!r}"))
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

    ids = {}
    records = []
    weights = {}
    # entry i is point i: a rejected entry, or one whose parent is such a
    # placeholder, keeps its slot as a point that refers to itself, and
    # its arena diagnostic is dropped
    placeholders = set()

    def resolve(entry_index, field, value):
        if value is None:
            return None
        if not isinstance(value, str) or value not in ids:
            diagnostics.append(Diagnostic(
                "UnknownPoint" if field != "parent" else "UnknownParent",
                entry_index,
                f"{field} {value!r} does not resolve to an earlier point"))
            return None
        return ids[value]

    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            diagnostics.append(Diagnostic(
                "BadEntry", i, "each point needs a string 'id'"))
            placeholders.add(i)
            records.append((i, None, None))
            continue
        point_id = entry["id"]
        if point_id in ids:
            diagnostics.append(Diagnostic(
                "DuplicateId", i, f"id {point_id!r} already used"))
            placeholders.add(i)
            records.append((i, None, None))
            continue
        parent = resolve(i, "parent", entry.get("parent"))
        if (parent is None and entry.get("parent") is not None
                or parent in placeholders):
            placeholders.add(i)
            parent = i
        second = resolve(i, "second_proximity", entry.get("second_proximity"))
        weight = entry.get("weight")
        if type(weight) is not int or weight < 0:
            diagnostics.append(Diagnostic(
                "InvalidWeight", i,
                f"weight must be a non-negative integer, got {weight!r}"))
            weight = 0
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            diagnostics.append(Diagnostic(
                "BadEntry", i, "label must be a string when present"))
            label = None
        ids[point_id] = len(records)
        records.append((parent, second, label if label is not None else point_id))
        if weight > 0:
            weights[len(records) - 1] = weight

    diagnostics.extend(d for d in validate_reference(records)
                       if d.point not in placeholders)
    if diagnostics:
        raise DocumentValidationError(diagnostics)
    tree = ArenaTree.from_records(records)
    try:
        cluster = _cluster_reference(tree, kind, weights)
    except ClusterError as err:
        raise DocumentValidationError(
            [Diagnostic(type(err).__name__, None, str(err))]) from err
    return tree, cluster


#: Labels that stress the string encoder and the invented ``q#N`` names.
_LABELS = ["O", "", "p1", "é", "点", "\U0001f600", "\ud800", '"', "\\",
           'a"b\\c', "\x00", "\n", "\t", "\x1f", "\x7f", " ", "q#1",
           "q#2", "q#3", "q#10"]


def _random_document(rng):
    """A random arena (walk-grown) with random labels and weights."""
    tree = random_proximity_tree(rng, rng.randint(1, 14))
    randgen.grow_by_satellite_walks(tree, rng, walks=rng.randint(0, 3),
                                    max_steps=6)
    labels = [None if rng.random() < 0.3 else rng.choice(_LABELS)
              for _ in tree.points()]
    tree = ArenaTree.from_records([
        (tree.parent(p), tree.second_proximity(p), labels[p])
        for p in tree.points()])
    kind = rng.choice(list(WeightKind))
    weights = {}
    for p in tree.points():
        # a document drops weight 0, so only positive points have members
        # below them; the round trip keeps the positive weights
        parent = tree.parent(p)
        if (parent is None or weights.get(parent)) and rng.random() < 0.8:
            if kind is WeightKind.VIRTUAL:
                weights[p] = rng.randint(0, 5)
            else:
                weights[p] = rng.randint(1, 10 ** rng.randint(1, 30))
    if kind is WeightKind.VIRTUAL and rng.random() < 0.2:
        weights = {}
    return tree, WeightedCluster(tree, kind, weights)


def test_serialize_matches_json_dumps_reference():
    rng = random.Random(20260)
    created = 0
    for _ in range(1000):
        tree, cluster = _random_document(rng)
        created += sum(tree.labels[p] is None for p in tree.points())
        text = serialize(tree, cluster)
        assert text == _serialize_reference(tree, cluster)
        tree2, cluster2 = parse(text)
        assert (tree2.parents, tree2.seconds) == (tree.parents, tree.seconds)
        assert cluster2.kind is cluster.kind
        assert dict(cluster2.weight) == \
            {p: w for p, w in cluster.weight.items() if w > 0}
        assert serialize(tree2, cluster2) == text
    assert created > 1000


def test_serialize_refuses_a_virtual_cluster_its_text_would_not_close():
    # the text drops weight 0, so the cluster O:2 -> p1:0 -> p2:1 would be
    # written as a document that parse refuses; serialize raises the same
    # error instead, and still drops a zero weight with none after it
    tree = ArenaTree()
    o = tree.add_point(label="O")
    p1 = tree.add_point(o, label="p1")
    p2 = tree.add_point(p1, label="p2")
    unclosed = WeightedCluster(tree, WeightKind.VIRTUAL, {o: 2, p1: 0, p2: 1})
    with pytest.raises(DocumentValidationError) as refused:
        parse(_serialize_reference(tree, unclosed))
    assert [d.code for d in refused.value.diagnostics] == \
        ["NotDownwardClosed"]
    with pytest.raises(NotDownwardClosed) as info:
        serialize(tree, unclosed)
    assert str(info.value) == ("point 2 is weighted but its parent 1 has"
                               " weight 0, which the document format drops")
    closed = WeightedCluster(tree, WeightKind.VIRTUAL, {o: 2, p1: 1, p2: 0})
    text = serialize(tree, closed)
    assert text == _serialize_reference(tree, closed)
    assert parse(text)[1].weight == {o: 2, p1: 1}


def _entry_ids(doc):
    return [e.get("id") if isinstance(e, dict) else None
            for e in doc["points"]]


def _mutate(doc, rng):
    """One random breakage of a valid document, in place."""
    points = doc["points"]
    ids = _entry_ids(doc)
    i = rng.randrange(len(points))
    entry = points[i]
    if not isinstance(entry, dict):
        return
    kind = rng.randrange(17)
    if kind == 0:
        entry["parent"] = rng.choice(["missing", 7, None, ["O"]])
    elif kind == 1 and i + 1 < len(points):
        entry["parent"] = ids[rng.randrange(i + 1, len(points))]
    elif kind == 2 and i > 0:
        entry["second_proximity"] = ids[rng.randrange(i)]
    elif kind == 3 and i > 0:
        entry["id"] = ids[rng.randrange(i)]
    elif kind == 4:
        entry.pop("parent", None)
        entry.pop("second_proximity", None)
    elif kind == 5:
        satellites = [e for e in points if "second_proximity" in e]
        if satellites:
            copy = dict(rng.choice(satellites), id="dup")
            points.insert(rng.randint(points.index(satellites[0]) + 1,
                                      len(points)), copy)
    elif kind == 6:
        entry[rng.choice(["parent", "second_proximity"])] = entry.get("id")
    elif kind == 7:
        entry["weight"] = rng.choice([-1, -7, 1.5, 2.0, "2", None])
    elif kind == 8:
        entry["label"] = rng.choice([5, ["x"], {"a": 1}])
    elif kind == 9:
        doc["format_version"] = rng.choice([2, 0, "1", None, 1.5])
    elif kind == 10:
        doc["weight_kind"] = rng.choice(["nonsense", None, 3, "Virtual"])
    elif kind == 11:
        doc["points"] = rng.choice([{}, "points", None, 3])
    elif kind == 12:
        points[i] = rng.choice([["O"], "O", {"parent": "O"}, {"id": 3}])
    elif kind == 13:
        entry.pop("weight", None)
    elif kind == 14 and "parent" in entry:
        # zero weight under a positive child breaks downward closure
        parent = ids.index(entry["parent"]) if entry["parent"] in ids else i
        points[parent]["weight"] = 0
        entry["weight"] = rng.randint(1, 3)
    elif kind == 15 and i > 0:
        points.insert(i - 1, points.pop(i))
    elif kind == 16:
        entry["second_proximity"] = rng.choice(ids)


def _outcome(parser, text):
    try:
        tree, cluster = parser(text)
    except (DocumentSyntaxError, DocumentValidationError) as err:
        detail = getattr(err, "diagnostics", str(err))
        return type(err), detail
    facts = [tree.facts(p) for p in tree.points()]
    return (triples(tree), facts, tree._satellite_index,
            cluster.kind, dict(cluster.weight))


def test_parse_matches_reference_on_valid_and_broken_documents(fixture_dir):
    # the random documents and their mutations draw no bool and no 1.0
    explicit = [_doc([{"id": "O", "weight": 1}], version=True),
                _doc([{"id": "O", "weight": 1}], version=1.0),
                _doc([{"id": "O", "weight": True}]),
                _doc([{"id": "O", "weight": 2},
                      {"id": "p1", "parent": "O", "weight": False}]),
                _doc([], kind=[]),  # unhashable kinds
                _doc([], kind={"virtual": 1}),
                # ids that are no strings, on entries that are otherwise
                # clean
                _doc([{"id": 3, "weight": 1}]),
                _doc([{"id": "O", "weight": 1},
                      {"id": 5, "parent": "O", "weight": 1, "label": "p"}])]
    for case in explicit:
        expected = _outcome(_parse_reference, case)
        assert expected[0] is DocumentValidationError
        assert _outcome(parse, case) == expected
    deep = "[" * 200_000 + "]" * 200_000  # json.loads raises RecursionError
    expected = (DocumentSyntaxError, "not valid JSON: nested too deeply")
    assert _outcome(_parse_reference, deep) == expected
    assert _outcome(parse, deep) == expected
    # an integer past the int-from-string digit limit: a bare ValueError
    long = _doc([{"id": "O", "weight": 1}]).replace(
        '"weight": 1', '"weight": 1' + "0" * sys.get_int_max_str_digits())
    expected = (DocumentSyntaxError, "not valid JSON: an integer has more"
                f" than {sys.get_int_max_str_digits()} digits")
    assert _outcome(_parse_reference, long) == expected
    assert _outcome(parse, long) == expected
    rng = random.Random(4711)
    texts = [path.read_text(encoding="utf-8")
             for path in sorted(fixture_dir.glob("*.json"))]
    for _ in range(600):
        texts.append(serialize(*_random_document(rng)))
    rejected = codes = 0
    seen = set()
    for text in texts:
        cases = [text]
        for _ in range(4):
            doc = json.loads(text)
            for _ in range(rng.randint(1, 3)):
                if isinstance(doc["points"], list) and doc["points"]:
                    _mutate(doc, rng)
            cases.append(json.dumps(doc))
        for case in cases:
            expected = _outcome(_parse_reference, case)
            assert _outcome(parse, case) == expected
            if expected[0] is DocumentValidationError:
                rejected += 1
                codes += len(expected[1])
                seen.update(d.code for d in expected[1])
    assert rejected > 1500 and codes > 2500
    assert seen >= {
        "UnknownParent", "UnknownPoint", "IllegalProximity", "DuplicateId",
        "DuplicateOrigin", "DuplicateSatellite", "InvalidWeight", "BadEntry",
        "UnsupportedVersion", "UnknownWeightKind", "MissingPoints",
        "NotDownwardClosed"}


def test_trusted_pass_matches_reference_facts_on_benchmark_pools(
        monkeypatch):
    # every document of the benchmark's seed-1 pools is clean, so parse
    # builds its arena in the trusted pass, without the checked writer;
    # the facts it derives equal the independent reference's, point by
    # point, the pair index and the run record are the index rule's for
    # one write, and point 0 is the origin
    def refuse(records):
        raise AssertionError("a clean document took the checked writer")

    documents = 0
    for generate in workloads.WORKLOADS.values():
        for document in generate(1):
            monkeypatch.setattr(ArenaTree, "from_records", refuse)
            tree, _ = parse(document.text)
            monkeypatch.undo()
            records = triples(tree)
            assert list(zip(tree.free_points, tree.ns, tree.m0s, tree.ks)) \
                == [facts[:4] for facts in reference_facts(records)], \
                document.name
            check_index_rule(tree)
            assert tree.parents[0] is None
            documents += 1
    assert documents == 1000 + 52 + 56


def test_serialize_refuses_a_weight_past_the_digit_limit():
    # the document's weight has as many digits as Python reads into an int
    # and writes back as text; the recovered values and multiplicities at
    # the origin have one more
    limit = sys.get_int_max_str_digits()
    text = _doc([{"id": "O", "weight": int("9" * limit)},
                 {"id": "p", "parent": "O", "weight": 1}])
    tree, bp = parse(text)
    assert parse(serialize(tree, bp))[1].weight == bp.weight
    result = recover(bp)
    for cluster in (result.values, result.multiplicities):
        with pytest.raises(NumberTooLong) as info:
            serialize(tree, cluster)
        assert str(info.value) == (
            f"cannot write <{limit + 1} digits>: Python writes no integer"
            f" of more than {limit} digits")


def _timed_round_trip(tree, cluster):
    start = time.perf_counter()
    text = serialize(tree, cluster)
    tree2, cluster2 = parse(text)
    elapsed = time.perf_counter() - start
    assert (tree2.parents, tree2.seconds) == (tree.parents, tree.seconds)
    assert dict(cluster2.weight) == dict(cluster.weight)
    assert serialize(tree2, cluster2) == text
    return elapsed


def test_round_trip_deep_free_chain():
    tree = ArenaTree()
    chain = [tree.add_point()]
    for _ in range(4999):
        chain.append(tree.add_point(chain[-1]))
    curve = WeightedCluster(
        tree, WeightKind.MULTIPLICITY, {p: 2 for p in chain})
    assert _timed_round_trip(tree, curve) < 2.0


def test_round_trip_wide_fan():
    # 1,000 free chains of three points on one origin
    tree = ArenaTree()
    o = tree.add_point()
    weights = {o: 2000}
    for _ in range(1000):
        p = o
        for _ in range(3):
            p = tree.add_point(p)
            weights[p] = 2
    curve = WeightedCluster(tree, WeightKind.MULTIPLICITY, weights)
    assert _timed_round_trip(tree, curve) < 2.0
