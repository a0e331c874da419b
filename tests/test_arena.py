import pytest

from enriques import ArenaTree
from enriques.errors import (
    ArenaError,
    DuplicateOrigin,
    DuplicateSatellite,
    IllegalProximity,
    UnknownParent,
    UnknownPoint,
)

import fixture_builders as fb


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
    assert tree.is_free(p1)
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
    assert tree.satellite_children(names["p3"]) == {p4}


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
    for bad in (42, -1, "0", None):
        with pytest.raises(UnknownPoint):
            tree.record(bad)
        with pytest.raises(UnknownPoint):
            tree.facts(bad)


def test_duplicate_satellite_pair_rejected():
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o)
    p2 = tree.add_point(p1)
    tree.add_point(p2, p1)
    with pytest.raises(DuplicateSatellite):
        tree.add_point(p2, p1)


def test_validate_clean_on_example_arena():
    tree, _, _ = fb.ex04_bp()
    assert tree.validate() == []


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


def test_validate_reports_illegal_proximity():
    # second proximity points at an ancestor the parent is not proximate to
    tree = ArenaTree.from_records(ILLEGAL_PROXIMITY)
    codes = [d.code for d in tree.validate()]
    assert codes == ["IllegalProximity"]


def test_validate_reports_duplicate_origin():
    tree = ArenaTree.from_records(DUPLICATE_ORIGIN)
    codes = [d.code for d in tree.validate()]
    assert codes == ["DuplicateOrigin"]


def test_validate_reports_self_reference_and_order():
    tree = ArenaTree.from_records(SELF_REFERENCE_AND_ORDER)
    codes = {d.code for d in tree.validate()}
    assert codes == {"SelfReference", "UnknownParent"}


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
    tree = ArenaTree.from_records(records)
    assert {d.code for d in tree.validate()} == codes
    for p in tree.points():
        if p in broken:
            with pytest.raises(ArenaError):
                tree.facts(p)
        else:
            tree.facts(p)


def test_ancestors_follow_parent_chain():
    tree, _, names = fb.ex04_bp()
    chain = tree.ancestors(names["p4"])
    assert [tree.label(p) for p in chain] == ["O", "p1", "p2", "p3", "p4"]
    chain = tree.ancestors(names["p8"])
    assert [tree.label(p) for p in chain] == ["O", "p1", "p2", "p3", "p6", "p8"]
    assert list(chain) == sorted(chain)  # ids increase along the chain


def test_proximity_queries():
    tree, _, names = fb.ex04_bp()
    assert not tree.is_proximate(names["p5"], names["p2"])
    assert tree.is_proximate(names["p5"], names["p4"])
    assert tree.is_proximate(names["p5"], names["p3"])
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
    tree.validate()
    tree.ancestors(names["p9"])
    tree.child_list(names["p3"])
    tree.satellite_children(names["p3"])
    assert len(tree) == size


def test_clone_is_independent():
    tree, _, _ = fb.ex05_bp()
    copy = tree.clone()
    copy.add_point(copy.origin)
    assert len(copy) == len(tree) + 1
