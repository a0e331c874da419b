import copy
import random
from collections import Counter
from fractions import Fraction
from typing import Optional

import pytest

from enriques import (
    ArenaTree,
    PointFacts,
    PointId,
    PointRecord,
    WeightKind,
    WeightedCluster,
    base_free_point,
    compute,
    dicritical_invariant,
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
from arena_reference import validate_reference


def test_root_creation():
    tree = ArenaTree()
    o = tree.add_point(label="O")
    assert tree.origin == o
    assert tree.parent(o) is None
    assert tree.ancestors(o) == (o,)


def test_free_child():
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o, label="p1")
    assert not tree.is_satellite(p1)
    assert tree.proximities(p1) == {o}
    assert tree.child_list(o) == [p1]


def test_satellite_requires_legal_second_proximity():
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o)
    p2 = tree.add_point(p1)
    # p2 is free over p1, so its satellite child must be proximate to p1
    p3 = tree.add_point(p2, p1)
    assert tree.is_satellite(p3)
    assert tree.proximities(p3) == {p2, p1}
    with pytest.raises(IllegalProximity):
        tree.add_point(p2, o)  # o is not among prox(p2) = {p1}


def test_example_satellite_matches_first_neighbourhood_structure():
    tree, _, names = fb.ex04_bp()
    p4 = names["p4"]
    assert tree.proximities(p4) == {names["p3"], names["p2"]}
    assert [c for c in tree.child_list(names["p3"])
            if tree.is_satellite(c)] == [p4]


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
            tree.record(bad)
        with pytest.raises(UnknownPoint):
            tree.facts(bad)
    # the columns are lists, which would read -1 as the last point
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    queries = [
        tree.record, tree.facts, tree.parent, tree.second_proximity,
        tree.label, tree.child_list, tree.ancestors,
        lambda p: tree.precedes(p, names["p3"]),
        lambda p: tree.precedes(names["O"], p),
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


def _triples(tree: ArenaTree) -> list[tuple]:
    return list(zip(tree.parents, tree.seconds, tree.labels))


def test_validate_clean_on_example_arena():
    # the records of a sound arena build an equal arena
    tree, _, _ = fb.ex04_bp()
    assert _columns(ArenaTree.from_records(_triples(tree))) == _columns(tree)


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


def test_append_raw_refuses_bool_ids():
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
    assert [tree.label(p) for p in chain] == ["O", "p1", "p2", "p3", "p4"]
    chain = tree.ancestors(names["p8"])
    assert [tree.label(p) for p in chain] == ["O", "p1", "p2", "p3", "p6", "p8"]
    assert list(chain) == sorted(chain)  # ids increase along the chain


def test_proximity_queries():
    tree, _, names = fb.ex04_bp()
    assert names["p2"] not in tree.proximities(names["p5"])
    assert names["p4"] in tree.proximities(names["p5"])
    assert names["p3"] in tree.proximities(names["p5"])
    assert tree.child_list(names["O"]) == [names["p1"]]


def test_precedes():
    tree, _, names = fb.ex04_bp()
    assert tree.precedes(names["O"], names["p9"])
    assert tree.precedes(names["p3"], names["p5"])
    assert not tree.precedes(names["p6"], names["p9"])
    assert tree.precedes(names["p4"], names["p4"])


def test_queries_do_not_mutate():
    tree, _, names = fb.ex04_bp()
    size = len(tree)
    tree.records()
    tree.facts(names["p9"])
    tree.ancestors(names["p9"])
    tree.child_list(names["p3"])
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


def test_clone_is_independent():
    tree, _, _ = fb.ex05_bp()
    copy = tree.clone()
    copy.add_point(copy.origin)
    assert len(copy) == len(tree) + 1


class _ReferenceArena:
    """The arena the columns replaced: one record and one facts tuple per point.

    ``append_raw`` and ``_derive_facts`` are the library's code before the
    arena became columnar.
    """

    def __init__(self) -> None:
        self.records: list[PointRecord] = []
        self.facts: list[Optional[PointFacts]] = []
        self.index: dict[tuple[PointId, PointId], PointId] = {}

    def append_raw(self, parent, second, label) -> None:
        q = len(self.records)
        self.facts.append(self._derive_facts(q, parent, second))
        self.records.append(PointRecord(q, parent, second, label))
        if parent is not None and second is not None:
            self.index.setdefault((parent, second), q)

    def _derive_facts(self, q, a, s) -> Optional[PointFacts]:
        if a is None:
            return PointFacts(0, 1, 1, 1, None) if q == 0 and s is None else None
        facts = self.facts
        if not 0 <= a < q or facts[a] is None:
            return None
        free_a, n_a, m0_a, k_a, pair = facts[a]
        if s is None:
            return PointFacts(q, n_a, m0_a + 1, 1, None)
        if (a, s) in self.index:
            return None
        if pair is None:
            pair = (self.records[a].parent, a)
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


class _ReferenceHeights:
    """The m table before it became a list: a dict grown along chains."""

    def __init__(self, bp: WeightedCluster) -> None:
        self.bp = bp
        self.m: dict[PointId, int] = {}
        for p in bp.ordered_points():
            self._compute_point(bp.tree.record(p))

    def _compute_point(self, r: PointRecord) -> None:
        m, w = self.m, self.bp.get(r.id, 0)
        if r.parent is None:
            m[r.id] = w + 1
        elif r.second_proximity is None:
            m[r.id] = m[r.parent] + w + 1
        else:
            m[r.id] = m[r.parent] + m[r.second_proximity] + w

    def extend_to(self, p: PointId) -> tuple[int, int]:
        tree = self.bp.tree
        missing = []
        q = p
        while q is not None and q not in self.m:
            r = tree.record(q)
            missing.append(r)
            q = r.parent
        for r in reversed(missing):
            self._compute_point(r)
        return tree.facts(p).n, self.m[p]


def _reference(records) -> _ReferenceArena:
    ref = _ReferenceArena()
    for triple in records:
        ref.append_raw(*triple)
    return ref


def _assert_columns_match_reference(tree: ArenaTree) -> None:
    """Replay the arena into the reference, which gives every point facts."""
    ref = _reference(_triples(tree))
    assert tree.records() == ref.records
    children: list[list[PointId]] = [[] for _ in ref.records]
    for r in ref.records:
        if r.parent is not None and 0 <= r.parent < r.id:
            children[r.parent].append(r.id)
    assert tree.children == children
    for p, (record, facts) in enumerate(zip(ref.records, ref.facts)):
        assert tree.record(p) == record
        assert (tree.parents[p], tree.seconds[p], tree.labels[p]) == (
            record.parent, record.second_proximity, record.label)
        columns = (tree.free_points[p], tree.ns[p], tree.m0s[p],
                   tree.ks[p], tree.pairs[p])
        assert facts is not None
        assert columns == tuple(facts)
        assert tree.facts(p) == facts


def _assert_refused_as_reference(records) -> int:
    """Replay the records into the reference; return its number of points
    without facts.  ``from_records`` refuses the records exactly when there
    is one, and otherwise builds the reference's columns."""
    broken = _reference(records).facts.count(None)
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
    return [tree.parents, tree.seconds, tree.labels, tree.children,
            tree.free_points, tree.ns, tree.m0s, tree.ks, tree.pairs,
            tree._satellite_index]


@pytest.mark.parametrize("t", [1, 2, CHAIN_CROSSOVER - 1, CHAIN_CROSSOVER,
                               CHAIN_CROSSOVER + 1, 40])
def test_append_chain_matches_repeated_append_raw(t):
    # the run writer on every run a walk may append, (a, s) with s a
    # proximity of a and the pair not held yet, against t add_point calls
    chains = kinds = 0
    for seed in range(100):
        rng = random.Random(seed)
        tree = randgen.random_proximity_tree(rng, 10)
        randgen.grow_by_satellite_walks(tree, rng, walks=4, max_steps=8)
        for a in tree.points():
            for s in sorted(tree.proximities(a)):
                if tree.find_satellite(a, s) is not None:
                    continue
                chain, steps = tree.clone(), tree.clone()
                last = chain._append_run(a, s, t)
                q = steps.add_point(a, s)
                for _ in range(t - 1):
                    q = steps.add_point(q, s)
                assert last == q == len(tree) + t - 1
                assert _columns(chain) == _columns(steps), (seed, a, s)
                chains += 1
                # a run of first moves keeps s first in every pair and a
                # run of second moves keeps it second; k grows only when s
                # lies in the run's cone, which it always does for second
                # moves
                kinds |= 1 << (2 * (chain.pairs[last][0] == s)
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
            _reference(records).facts), seed
        copy = tree.clone()
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


def test_batch_writer_matches_one_append_raw_per_record():
    # each point of a batch sees the pair index, the rootless flag and the
    # arena length as the point before it left them, so where a batch is
    # cut before its first broken record changes nothing, and a batch's
    # diagnostics do not look past its end
    lists = [randgen.random_raw_records(random.Random(seed))
             for seed in range(20000)]
    lists += [[(None, None, None), (0, None, None), (True, None, None)],
              [(None, None, None), (0, None, None), (1, False, None)]]
    cuts = 0
    for records in lists:
        ref = ArenaTree()
        for triple in records:
            try:
                ref.add_point(*triple)
            except ArenaError:
                break
        first = len(ref)  # the first broken record, or len(records)
        # a refused add_point left the records before it as they were
        prefix = ArenaTree.from_records(records[:first])
        assert (_columns(ref), ref._rootless) == (
            _columns(prefix), prefix._rootless)
        diagnostics = validate_reference(records)
        assert (first < len(records)) == bool(diagnostics)
        for cut in range(len(records) + 1):
            # a head cut past the first broken record is refused, so
            # nothing is written after it; its diagnostics are the
            # reference's on the head alone
            tree = ArenaTree()
            head = tree._append_records(records[:cut])
            assert head == validate_reference(records[:cut])
            if not head:
                assert tree._append_records(records[cut:]) == diagnostics
            if not diagnostics:
                assert (_columns(tree), tree._rootless) == (
                    _columns(ref), ref._rootless)
            cuts += 1
    assert cuts > 100000


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
    assert _reference(records).facts[4] is None


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
