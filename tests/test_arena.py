import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

from enriques import (
    ArenaTree,
    PointId,
    WeightKind,
    WeightedCluster,
    base_free_point,
    compute,
    dicritical_invariant,
    parse,
    serialize,
)
from enriques.dot import render_dot
from enriques.arena import CHAIN_CROSSOVER
from enriques.errors import (
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

import fixture_builders as fb
import randgen
from arena_reference import (
    check_index_rule, proximities, reference_facts, satellite_answers, triples,
    validate_reference)
from chain_reference import precedes
from paper_reference import child_list


def test_root_creation():
    tree = ArenaTree()
    assert repr(tree) == "ArenaTree(0 points)"
    o = tree.add_point(label="O")
    assert tree.origin == o
    assert tree.parent(o) is None
    assert tree.ancestors(o) == (o,)
    assert repr(tree) == "ArenaTree(1 points)"


def test_free_child():
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o, label="p1")
    assert tree.seconds[p1] is None
    assert proximities(tree, p1) == {o}
    assert child_list(tree, o) == [p1]


def test_satellite_requires_legal_second_proximity():
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o)
    p2 = tree.add_point(p1)
    # p2 is free over p1, so its satellite child must be proximate to p1
    p3 = tree.add_point(p2, p1)
    assert tree.seconds[p3] is not None
    assert proximities(tree, p3) == {p2, p1}
    with pytest.raises(IllegalProximity):
        tree.add_point(p2, o)  # o is not among prox(p2) = {p1}


def test_example_satellite_matches_first_neighbourhood_structure():
    tree, _, names = fb.ex04_bp()
    p4 = names["p4"]
    assert proximities(tree, p4) == {names["p3"], names["p2"]}
    assert [c for c in child_list(tree, names["p3"])
            if tree.seconds[c] is not None] == [p4]


def test_duplicate_origin_rejected():
    tree = ArenaTree()
    tree.add_point()
    with pytest.raises(DuplicateOrigin):
        tree.add_point()


def test_unknown_references_rejected():
    tree = ArenaTree()
    tree.add_point()
    with pytest.raises(UnknownParent):
        tree.add_point(parent=99)
    with pytest.raises(UnknownPoint):
        tree.ancestors(42)
    for bad in (42, -1, "0", None, False):
        with pytest.raises(UnknownPoint):
            tree.facts(bad)
    # the columns are lists, which would read -1 as the last point
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    queries = [
        tree.facts, tree.parent, tree.second_proximity, tree.ancestors,
        inv.extend_to,
        lambda p: base_free_point(bp, inv, p, Fraction(11)),
        lambda p: dicritical_invariant(bp, inv, p),
    ]
    # bool is an int subclass, so True would read as point 1
    for bad in (-1, len(tree), "0", None, True, False):
        for query in queries:
            with pytest.raises(UnknownPoint):
                query(bad)
        assert bad not in tree
    size = len(tree)
    for bad in (True, False):
        with pytest.raises(UnknownParent):
            tree.add_point(bad)
        with pytest.raises(UnknownPoint):
            tree.add_point(names["p4"], bad)
    # a dict would merge a False key into 0
    for weights in ({0: 3, True: 1}, {False: 3}):
        with pytest.raises(UnknownPoint):
            WeightedCluster(tree, WeightKind.VIRTUAL, weights)
    assert len(tree) == size == len(inv.m)


def test_duplicate_satellite_pair_rejected():
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o)
    p2 = tree.add_point(p1)
    tree.add_point(p2, p1)
    with pytest.raises(DuplicateSatellite):
        tree.add_point(p2, p1)


def test_validate_clean_on_example_arena():
    # the records of a sound arena build an equal arena
    tree, _, _ = fb.ex04_bp()
    assert _columns(ArenaTree.from_records(triples(tree))) == _columns(tree)


def test_from_records_reads_its_records_once():
    # a one-shot iterator of records builds the arena their list builds,
    # labels included, and the arena serializes; the fixtures, built by
    # add_point, are rebuilt in one write
    records = [(None, None, "O"), (0, None, "p"), (1, 0, "q")]
    tree = ArenaTree.from_records(iter(records))
    assert _columns(tree) == _columns(ArenaTree.from_records(records))
    assert tree.labels == ["O", "p", "q"]
    for builder in (fb.ex04_bp, fb.ex05_bp, fb.ex06_bp, fb.ex07_bp):
        tree, bp, _ = builder()
        again = ArenaTree.from_records(iter(triples(tree)))
        assert _by_rule(again) == _by_rule(tree, range(len(tree)))
        assert serialize(again, WeightedCluster(
            again, bp.kind, bp.weight)) == serialize(tree, bp)


ILLEGAL_PROXIMITY = [
    (None, None, "O"),
    (0, None, "p1"),
    (1, None, "p2"),
    (2, 0, "bad"),  # prox(p2) = {p1}, not the origin
]
DUPLICATE_ORIGIN = [
    (None, None, "O"),
    (None, None, "O2"),
]
SELF_REFERENCE_AND_ORDER = [
    (None, None, "O"),
    (1, None, "self"),
    (3, None, "forward"),
]


def _refusal(records) -> list[Diagnostic]:
    """The diagnostics ``from_records`` refuses the records with."""
    with pytest.raises(ArenaValidationError) as info:
        ArenaTree.from_records(records)
    assert str(info.value) == "; ".join(map(str, info.value.diagnostics))
    return info.value.diagnostics


def test_validate_reports_illegal_proximity():
    # second proximity points at an ancestor the parent is not proximate to
    codes = [d.code for d in _refusal(ILLEGAL_PROXIMITY)]
    assert codes == ["IllegalProximity"]


def test_validate_reports_duplicate_origin():
    codes = [d.code for d in _refusal(DUPLICATE_ORIGIN)]
    assert codes == ["DuplicateOrigin"]


def test_validate_reports_self_reference_and_order():
    assert [(d.code, d.point) for d in _refusal(SELF_REFERENCE_AND_ORDER)] == [
        ("SelfReference", 1), ("UnknownParent", 2)]


@pytest.mark.parametrize("records, codes, broken", [
    (ILLEGAL_PROXIMITY, {"IllegalProximity"}, {3}),
    (ILLEGAL_PROXIMITY + [(3, None, "after bad")], {"IllegalProximity"}, {3, 4}),
    (DUPLICATE_ORIGIN, {"DuplicateOrigin"}, {1}),
    (SELF_REFERENCE_AND_ORDER, {"SelfReference", "UnknownParent"}, {1, 2}),
    ([(1, None, "p1"), (None, None, "O")], {"UnknownParent"}, {0, 1}),
    ([(None, None, "O"), (0, None, "p1"), (1, None, "p2"), (2, 1, "s"),
      (2, 1, "again")], {"DuplicateSatellite"}, {4}),
])
def test_broken_records_get_no_facts(records, codes, broken):
    # ``broken`` is every point a broken rule reaches: the records are
    # refused with a diagnostic on some of them, and the records before the
    # first build an arena in which every point has facts
    diagnostics = _refusal(records)
    assert {d.code for d in diagnostics} == codes
    assert {d.point for d in diagnostics} <= broken
    assert diagnostics == validate_reference(records)
    _assert_columns_match_reference(
        ArenaTree.from_records(records[:min(broken)]))


def test_add_point_and_from_records_refuse_bool_ids():
    # bool is an int subclass: True must not read as point 1, neither as a
    # parent nor as a second proximity (and 1.0 must not index a column)
    for records in ([(None, None, None), (0, None, None), (True, None, None)],
                    [(None, None, None), (0, None, None), (1, None, None),
                     (2, True, None)],
                    [(None, None, None), (0, None, None), (1.0, None, None)]):
        q = len(records) - 1
        parent, second, _ = records[q]
        checked = ArenaTree.from_records(records[:q])
        before = copy.deepcopy(_columns(checked))
        with pytest.raises(ArenaError) as info:
            checked.add_point(parent, second)
        assert _columns(checked) == before
        assert _refusal(records) == [
            Diagnostic(type(info.value).__name__, q, str(info.value))]


def test_ancestors_follow_parent_chain():
    tree, _, names = fb.ex04_bp()
    chain = tree.ancestors(names["p4"])
    assert [tree.labels[p] for p in chain] == ["O", "p1", "p2", "p3", "p4"]
    chain = tree.ancestors(names["p8"])
    assert [tree.labels[p] for p in chain] == [
        "O", "p1", "p2", "p3", "p6", "p8"]
    assert list(chain) == sorted(chain)  # ids increase along the chain


def test_proximity_queries():
    tree, _, names = fb.ex04_bp()
    assert names["p2"] not in proximities(tree, names["p5"])
    assert names["p4"] in proximities(tree, names["p5"])
    assert names["p3"] in proximities(tree, names["p5"])
    assert child_list(tree, names["O"]) == [names["p1"]]


def test_precedes():
    tree, _, names = fb.ex04_bp()
    assert precedes(tree, names["O"], names["p9"])
    assert precedes(tree, names["p3"], names["p5"])
    assert not precedes(tree, names["p6"], names["p9"])
    assert precedes(tree, names["p4"], names["p4"])


def test_queries_do_not_mutate():
    tree, _, names = fb.ex04_bp()
    size = len(tree)
    tree.facts(names["p9"])
    tree.ancestors(names["p9"])
    child_list(tree, names["p3"])
    assert len(tree) == size


def test_ancestor_queries_leave_no_state():
    # a cache of every queried chain would hold n^2/2 ids on a chain of n
    tree = ArenaTree()
    p = tree.add_point()
    for _ in range(1999):
        p = tree.add_point(p)
    before = copy.deepcopy(vars(tree))
    for q in tree.points():
        assert len(tree.ancestors(q)) == q + 1
    assert vars(tree) == before


def test_from_records_copy_is_independent():
    tree, _, _ = fb.ex05_bp()
    copy = ArenaTree.from_records(triples(tree))
    copy.add_point(copy.origin)
    assert len(copy) == len(tree) + 1


class _ReferenceHeights:
    """The m table before it became a list: a dict grown along chains."""

    def __init__(self, bp: WeightedCluster) -> None:
        self.bp = bp
        self.m: dict[PointId, int] = {}
        for p in sorted(bp.weight):
            self._compute_point(p)

    def _compute_point(self, p: PointId) -> None:
        m, w = self.m, self.bp.get(p, 0)
        a, s = self.bp.tree.parents[p], self.bp.tree.seconds[p]
        if a is None:
            m[p] = w + 1
        elif s is None:
            m[p] = m[a] + w + 1
        else:
            m[p] = m[a] + m[s] + w

    def extend_to(self, p: PointId) -> tuple[int, int]:
        tree = self.bp.tree
        missing = []
        q = p
        while q is not None and q not in self.m:
            missing.append(q)
            q = tree.parents[q]
        for q in reversed(missing):
            self._compute_point(q)
        return tree.facts(p).n, self.m[p]


def _assert_columns_match_reference(tree: ArenaTree) -> None:
    """Replay the arena into the reference, which gives every point facts."""
    for p, facts in enumerate(reference_facts(triples(tree))):
        columns = (tree.free_points[p], tree.ns[p], tree.m0s[p], tree.ks[p])
        assert facts is not None
        assert columns == facts[:4]
        assert tree.facts(p) == facts


def _assert_refused_as_reference(records) -> int:
    """Replay the records into the reference; return its number of points
    without facts.  ``from_records`` refuses the records exactly when there
    is one, and otherwise builds the reference's columns."""
    broken = reference_facts(records).count(None)
    if broken:
        assert _refusal(records) == validate_reference(records)
    else:
        _assert_columns_match_reference(ArenaTree.from_records(records))
    return broken


BROKEN_RECORDS = [
    ILLEGAL_PROXIMITY,
    ILLEGAL_PROXIMITY + [(3, None, "after bad")],
    DUPLICATE_ORIGIN,
    SELF_REFERENCE_AND_ORDER,
    [(1, None, "p1"), (None, None, "O")],
    [(None, None, "O"), (0, None, "p1"), (1, None, "p2"), (2, 1, "s"),
     (2, 1, "again")],
]


def _mutated_records(rng: random.Random, tree: ArenaTree):
    """The arena's triples with a few parents or second proximities spoiled."""
    triples = [list(t) for t in zip(tree.parents, tree.seconds, tree.labels)]
    size = len(triples)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(size)
        field = rng.randrange(2)
        triples[i][field] = rng.choice([None, -1, i, size, rng.randrange(size)])
    return [tuple(t) for t in triples]


def _columns(tree: ArenaTree) -> list:
    return [tree.parents, tree.seconds, tree.labels,
            tree.free_points, tree.ns, tree.m0s, tree.ks,
            tree._satellite_index]


@pytest.mark.parametrize("t", [*range(1, CHAIN_CROSSOVER + 2), 40])
def test_append_run_matches_repeated_add_point(t):
    # the run writer on every run a walk may append, (a, s) with s a
    # proximity of a and the pair not held yet, against t add_point calls:
    # each trip count of its loop, below CHAIN_CROSSOVER, and ranges from
    # the crossover on
    chains = kinds = 0
    for seed in range(100):
        rng = random.Random(seed)
        tree = randgen.random_proximity_tree(rng, 10)
        randgen.grow_by_satellite_walks(tree, rng, walks=4, max_steps=8)
        for a in tree.points():
            for s in sorted(proximities(tree, a)):
                if tree.find_satellite(a, s) is not None:
                    continue
                chain = ArenaTree.from_records(triples(tree))
                steps = ArenaTree.from_records(triples(tree))
                last = chain._append_run(a, s, t)
                q = steps.add_point(a, s)
                for _ in range(t - 1):
                    q = steps.add_point(q, s)
                assert last == q == len(tree) + t - 1
                # the run is one write and each add_point another, so the
                # index rule gives the two arenas different indexes, which
                # are compared by their answers
                size = len(tree)
                assert _by_rule(chain, {0, size}) == _by_rule(
                    steps, {0, *range(size, size + t)}), (seed, a, s)
                chains += 1
                # a run of first moves keeps s first in every pair and a
                # run of second moves keeps it second; k grows only when s
                # lies in the run's cone, which it always does for second
                # moves
                first = chain.facts(last).ordered_proximities[0]
                kinds |= 1 << (2 * (first == s)
                               + (chain.free_points[s] == chain.free_points[a]))
    assert chains > 1500 and kinds == 0b1110


def test_columns_match_record_and_facts_reference():
    points = broken = appended = 0
    for seed in range(1000):
        rng = random.Random(seed)
        tree = randgen.random_proximity_tree(rng, 12)
        weights = randgen._random_weights_from_excesses(rng, tree, 2)
        # points outside the cluster, then a table, then points after it
        randgen.grow_by_satellite_walks(tree, rng, walks=2, max_steps=6)
        bp = WeightedCluster(tree, WeightKind.VIRTUAL, weights)
        inv, ref = compute(bp), _ReferenceHeights(bp)
        computed = len(tree)
        randgen.grow_by_satellite_walks(tree, rng, walks=3, max_steps=8)
        appended += len(tree) - computed
        _assert_columns_match_reference(tree)
        for p in tree.points():
            assert inv.extend_to(p) == ref.extend_to(p)
        assert inv.m == [ref.m[p] for p in tree.points()]
        points += len(tree)
        broken += _assert_refused_as_reference(_mutated_records(rng, tree))
    for records in BROKEN_RECORDS:
        broken += _assert_refused_as_reference(records)
    assert points > 20000 and appended > 5000 and broken > 2000


def _replay_through_add_point(records, want) -> int:
    """Append the records one at a time through ``add_point``, up to the
    first one the reference flags, which raises its first diagnostic and
    appends nothing; return how many raised (0 or 1)."""
    tree = ArenaTree()
    for q, (a, s, label) in enumerate(records):
        if not want or q < want[0].point:
            assert tree.add_point(a, s, label) == q
            continue
        before = copy.deepcopy(_columns(tree))
        with pytest.raises(ArenaError) as info:
            tree.add_point(a, s, label)
        assert Diagnostic(type(info.value).__name__, q,
                          str(info.value)) == want[0]
        assert _columns(tree) == before
        return 1
    return 0


def test_recorded_rules_match_validate_reference():
    # from_records refuses exactly the records the reference, the old loop
    # over the finished arena, flags, with its diagnostics
    codes: Counter = Counter()
    accepted = refused = raised = 0
    for seed in range(20000):
        rng = random.Random(seed)
        records = randgen.random_raw_records(rng)
        want = validate_reference(records)
        codes.update(d.code for d in want)
        raised += _replay_through_add_point(records, want)
        if want:
            assert _refusal(records) == want, seed
            refused += 1
            continue
        accepted += 1
        tree = ArenaTree.from_records(records)
        assert [tree.facts(p) for p in tree.points()] == (
            reference_facts(records)), seed
        copy = ArenaTree.from_records(triples(tree))
        with pytest.raises(SelfReference, match="point references itself"):
            copy.add_point(len(copy), None, None)
        assert _columns(copy) == _columns(tree)
    assert set(codes) == {"IllegalProximity", "DuplicateOrigin",
                          "SelfReference", "UnknownParent", "UnknownPoint",
                          "DuplicateSatellite"}
    assert min(codes.values()) > 2000 and raised == refused
    assert 5000 < accepted < 15000
    # random_raw_records draws no bool; True and False name no point
    for records in ([(None, None, None), (0, None, None), (True, None, None)],
                    [(None, None, None), (0, None, None), (1, False, None)]):
        want = validate_reference(records)
        assert _refusal(records) == want and [d.point for d in want] == [2]
        assert _replay_through_add_point(records, want) == 1


def _state(tree: ArenaTree) -> list:
    """A copy of the columns, the pair index and the run record."""
    return [*map(list, _columns(tree)[:-1]), dict(tree._satellite_index),
            dict(tree._runs)]


def _by_rule(tree: ArenaTree, starts=(0,)) -> list:
    """The columns and every pair lookup's answer, once the pair index and
    the run record are checked against the index rule for records
    appended in writes that begin at ``starts``: the state that arenas
    built from the same records by different writes share."""
    check_index_rule(tree, starts)
    return [*map(list, _columns(tree)[:-1]), satellite_answers(tree)]


def _raw_record_lists() -> list:
    lists = [randgen.random_raw_records(random.Random(seed))
             for seed in range(20000)]
    return lists + [[(None, None, None), (0, None, None), (True, None, None)],
                    [(None, None, None), (0, None, None), (1, False, None)]]


def test_from_records_on_every_prefix_matches_add_point_replay():
    # each record is checked against the pair index, the rootless flag and
    # the arena length as the records before it left them, so a prefix of
    # the records is refused with the reference's diagnostics on the prefix
    # alone, whatever follows it, or builds the arena that add_point builds
    # record by record, but for the index rule's one write
    cuts = 0
    for records in _raw_record_lists():
        replay = ArenaTree()
        states = [_by_rule(ArenaTree())]  # the replay after each record
        for triple in records:
            try:
                replay.add_point(*triple)
            except ArenaError:
                break
            states.append(_by_rule(replay, range(len(replay))))
        first = len(replay)  # the first broken record, or len(records)
        assert (first < len(records)) == bool(validate_reference(records))
        for cut in range(len(records) + 1):
            head = records[:cut]
            diagnostics = validate_reference(head)
            if cut <= first:
                assert diagnostics == []
                assert _by_rule(ArenaTree.from_records(head)) == states[cut]
            else:
                assert diagnostics and _refusal(head) == diagnostics
            cuts += 1
    assert cuts > 100000


def test_add_point_and_from_records_agree():
    # the records built point by point through add_point and in one call
    # through from_records give the same columns and lookups, and each its
    # pair index and run record by the index rule, add_point a full index
    # and no run; a refused add_point raises from_records' first
    # diagnostic and changes nothing.  Every writer's arena, the parser's
    # too, holds the attributes that ArenaTree() sets, and no other
    keys = vars(ArenaTree()).keys()
    accepted = refused = 0
    for records in _raw_record_lists():
        tree = ArenaTree()
        for q, triple in enumerate(records):
            before = _state(tree)
            try:
                tree.add_point(*triple)
            except ArenaError as err:
                assert _state(tree) == before
                assert _refusal(records)[0] == Diagnostic(
                    type(err).__name__, q, str(err))
                refused += 1
                break
        else:
            built = ArenaTree.from_records(records)
            assert _by_rule(built) == _by_rule(tree, range(len(tree)))
            assert vars(built).keys() == vars(tree).keys() == keys
            accepted += 1
    assert accepted > 5000 and refused > 5000
    parsed, _ = parse(serialize(*fb.ex07_bp()[:2]))
    assert vars(parsed).keys() == keys


def test_add_point_raises_self_reference_for_the_next_id():
    # the id the point would take is the point itself, not an unknown one
    tree, _, names = fb.ex04_bp()
    size = len(tree)
    with pytest.raises(SelfReference):
        tree.add_point(size)
    with pytest.raises(SelfReference):
        tree.add_point(names["p3"], size)
    with pytest.raises(UnknownParent):
        tree.add_point(size + 1)
    with pytest.raises(UnknownPoint):
        tree.add_point(names["p3"], size + 1)
    assert len(tree) == size
    assert _columns(tree) == _columns(fb.ex04_bp()[0])


def test_broken_pair_does_not_shadow_a_legal_satellite():
    # point 2 breaks a rule with the pair (3, 1) that point 4 then holds
    # legally: only 2 is flagged, not 4 as a duplicate, although the
    # reference gives 4 no facts
    records = [(None, None, "O"), (0, None, "p1"), (3, 1, "forward"),
               (1, None, "p2"), (3, 1, "s")]
    assert [(d.code, d.point) for d in _refusal(records)] == [
        ("UnknownParent", 2)]
    assert reference_facts(records)[4] is None


def test_labels_must_be_none_or_strings():
    # a label that is no string would only fail later, in serialize and
    # render_dot; the arena refuses it where it enters
    tree = ArenaTree()
    tree.add_point(label="O")
    before = copy.deepcopy(_columns(tree))
    for bad in (5, 2.5, True, b"p1", ["p1"]):
        with pytest.raises(InvalidLabel, match="neither None nor a string"):
            tree.add_point(0, label=bad)
        assert _columns(tree) == before
        assert [(d.code, d.point) for d in _refusal(
            [(None, None, "O"), (0, None, bad)])] == [("InvalidLabel", 1)]
    assert str(_refusal([(None, None, "O"), (0, None, 7)])[0]) == (
        "InvalidLabel at point 1: label 7 is neither None nor a string")
    # in record order, after the first structural rule a point breaks; a
    # satellite with a bad label still holds its pair
    assert [(d.code, d.point) for d in _refusal([
        (None, None, 0), (5, None, "a"), (0, None, 1.5), (2, 0, None),
        (2, 0, "b")])] == [
        ("InvalidLabel", 0), ("UnknownParent", 1), ("InvalidLabel", 2),
        ("DuplicateSatellite", 4)]
    tree.add_point(0, label="p1")
    tree.add_point(1, 0)
    cluster = WeightedCluster(tree, WeightKind.VIRTUAL, {0: 2})
    assert '"parent": "p1"' in serialize(tree, cluster)
    assert "p1" in render_dot(cluster)
