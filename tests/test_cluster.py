import enum
import random
import sys

import pytest

from enriques import (
    ArenaTree,
    WeightKind,
    WeightedCluster,
    dicritical_points,
    excesses,
    is_consistent,
    multiplicities_from_values,
    noether_pairing,
    unibranch_chain,
)
from enriques.errors import (
    ArenaMismatch,
    ArenaValidationError,
    InvalidWeight,
    NonPositiveMultiplicity,
    NotDownwardClosed,
    PointNotInCluster,
    UnknownPoint,
    WrongKind,
)

import fixture_builders as fb
import randgen
from arena_reference import triples
from paper_reference import values_from_multiplicities
from randgen import random_proximity_tree


def weights_by_label(cluster, names, labels):
    return [cluster[names[l]] for l in labels]


def test_values_from_multiplicities_cusp():
    tree, curve, names = fb.ex04_curve()
    values = values_from_multiplicities(curve)
    order = ["O", "p1", "p2", "p3", "p4", "p5"]
    assert weights_by_label(values, names, order) == [3, 6, 9, 11, 21, 33]


def test_values_single_point():
    tree = ArenaTree()
    o = tree.add_point()
    c = WeightedCluster(tree, WeightKind.MULTIPLICITY, {o: 5})
    assert values_from_multiplicities(c)[o] == 5


def test_values_y5x8():
    tree, curve, names = fb.y5x8_curve()
    values = values_from_multiplicities(curve)
    order = ["O", "p1", "p2", "p3", "p4"]
    assert weights_by_label(values, names, order) == [5, 8, 15, 24, 40]


def test_multiplicities_from_values_inverts():
    tree, curve, names = fb.ex04_curve()
    back = multiplicities_from_values(values_from_multiplicities(curve))
    assert back == curve


def test_multiplicities_from_values_y5x8():
    tree, _, names = fb.y5x8_curve()
    values = WeightedCluster(tree, WeightKind.VALUE, {
        names["O"]: 5, names["p1"]: 8, names["p2"]: 15,
        names["p3"]: 24, names["p4"]: 40,
    })
    mults = multiplicities_from_values(values)
    assert weights_by_label(mults, names, ["O", "p1", "p2", "p3", "p4"]) == \
        [5, 3, 2, 1, 1]


def test_unrealizable_values_rejected():
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o)
    values = WeightedCluster(tree, WeightKind.VALUE, {o: 5, p1: 5})
    with pytest.raises(NonPositiveMultiplicity):
        multiplicities_from_values(values)


def test_messages_name_a_too_long_number_by_its_digits():
    # Python writes no int of more digits than its limit as text
    digits = sys.get_int_max_str_digits() + 1
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o)
    values = WeightedCluster(
        tree, WeightKind.VALUE, {o: 10 ** digits, p1: 1})
    with pytest.raises(NonPositiveMultiplicity) as info:
        multiplicities_from_values(values)
    assert str(info.value) == (
        f"values force multiplicity -<{digits} digits> at point 1")
    with pytest.raises(InvalidWeight) as info:
        WeightedCluster(tree, WeightKind.VIRTUAL, {o: -10 ** (digits - 1)})
    assert str(info.value) == (
        f"weight -<{digits} digits> at point 0 below 0 for kind virtual")


def test_kind_checked():
    tree, curve, _ = fb.ex04_curve()
    with pytest.raises(WrongKind):
        multiplicities_from_values(curve)
    with pytest.raises(WrongKind):
        values_from_multiplicities(values_from_multiplicities(curve))


def test_excesses_and_dicriticals_ex04():
    tree, bp, names = fb.ex04_bp()
    assert dicritical_points(bp) == {names["p8"], names["p9"]}
    assert excesses(bp)[names["p8"]] == 1
    assert excesses(bp)[names["p3"]] == 0
    assert is_consistent(bp)


def test_excesses_and_dicriticals_ex05():
    tree, bp, names = fb.ex05_bp()
    assert dicritical_points(bp) == {names["p4"]}
    assert excesses(bp)[names["p4"]] == 2


def test_excess_single_point():
    tree = ArenaTree()
    o = tree.add_point()
    c = WeightedCluster(tree, WeightKind.VIRTUAL, {o: 7})
    assert excesses(c) == {o: 7}


def test_indexing_outside_the_cluster_raises():
    tree, bp, names = fb.ex05_bp()
    stray = tree.add_point(names["p4"])
    assert bp[names["p4"]] == 2 and bp.get(stray) == 0
    for p in (stray, len(tree), -1):
        with pytest.raises(PointNotInCluster, match=f"point {p} is not in"):
            bp[p]


def test_equality_and_hash_read_arena_kind_and_weights():
    tree = ArenaTree()
    o = tree.add_point()
    a = WeightedCluster(tree, WeightKind.VIRTUAL, {o: 7})
    same = WeightedCluster(tree, WeightKind.VIRTUAL, {o: 7})
    assert a == same and hash(a) == hash(same) and len({a, same}) == 1
    assert a != WeightedCluster(tree, WeightKind.VALUE, {o: 7})
    # the arena compares by identity: ArenaTree defines no __eq__, so equal
    # weights over a copy of the arena are another cluster
    copy = ArenaTree.from_records(triples(tree))
    assert a != WeightedCluster(copy, WeightKind.VIRTUAL, {o: 7})
    assert a.__eq__({o: 7}) is NotImplemented and a != {o: 7}
    assert (a == object()) is False and (object() == a) is False


def test_cluster_keeps_its_weights_when_the_mapping_changes():
    # the constructor copies the mapping it is given, so a caller that
    # changes its dict afterwards does not change the cluster
    tree = ArenaTree()
    o = tree.add_point()
    weights = {o: 3}
    cluster = WeightedCluster(tree, WeightKind.VIRTUAL, weights)
    weights[o] = 5
    weights[tree.add_point(o)] = 1
    assert cluster.weight == {o: 3} and cluster[o] == 3
    assert cluster == WeightedCluster(tree, WeightKind.VIRTUAL, {o: 3})


def test_local_excess_matches_one_pass_definition():
    checked = 0
    for seed in range(2000):
        rng = random.Random(seed)
        tree = random_proximity_tree(rng, 16)
        randgen.grow_by_satellite_walks(tree, rng, walks=4, max_steps=10)
        weights = {}
        for p in tree.points():
            parent = tree.parent(p)
            if parent is None or (parent in weights and rng.random() < 0.95):
                weights[p] = rng.randint(0, 5)
        cluster = WeightedCluster(tree, WeightKind.VIRTUAL, weights)
        rho = excesses(cluster)
        assert rho.keys() == cluster.weight.keys()
        parents, seconds = tree.parents, tree.seconds
        for p in cluster.points:
            # the weight at p minus the weights of the points proximate to p
            local = cluster[p] - sum(
                w for q, w in cluster.weight.items()
                if p in (parents[q], seconds[q]))
            assert rho[p] == local, (seed, p)
            checked += 1
    assert checked > 40000


def test_unibranch_chain_free_chain_is_all_ones():
    tree, _, names = fb.ex04_bp()
    chain = unibranch_chain(tree, names["p8"])
    assert set(chain.points) == set(tree.ancestors(names["p8"]))
    assert all(w == 1 for w in chain.weight.values())


def test_unibranch_chain_with_satellites():
    tree, _, names = fb.ex04_bp()
    chain = unibranch_chain(tree, names["p5"])
    order = ["O", "p1", "p2", "p3", "p4", "p5"]
    assert weights_by_label(chain, names, order) == [3, 3, 3, 2, 1, 1]
    # excess 0 below the endpoint, 1 at it
    assert excesses(chain)[names["p5"]] == 1
    for l in order[:-1]:
        assert excesses(chain)[names[l]] == 0


def test_unibranch_chain_origin():
    tree = ArenaTree()
    o = tree.add_point()
    chain = unibranch_chain(tree, o)
    assert dict(chain.weight) == {o: 1}


def test_noether_pairing_examples():
    tree, bp, names = fb.ex04_bp()
    assert noether_pairing(bp, unibranch_chain(tree, names["p8"])) == 10

    tree5, bp5, names5 = fb.ex05_bp()
    assert noether_pairing(bp5, unibranch_chain(tree5, names5["p4"])) == 10

    o_chain = unibranch_chain(tree, names["O"])
    assert noether_pairing(o_chain, o_chain) == 1
    assert sum(w * w for w in o_chain.weight.values()) == 1


def test_noether_pairing_symmetric_and_arena_checked():
    tree, bp, names = fb.ex04_bp()
    chain = unibranch_chain(tree, names["p5"])
    assert noether_pairing(bp, chain) == noether_pairing(chain, bp)
    other_tree, other_bp, _ = fb.ex05_bp()
    with pytest.raises(ArenaMismatch):
        noether_pairing(bp, other_bp)


def test_pairing_of_clusters_sharing_only_origin():
    tree = ArenaTree()
    o = tree.add_point()
    a = tree.add_point(o)
    b = tree.add_point(o)
    left = WeightedCluster(tree, WeightKind.VIRTUAL, {o: 3, a: 2})
    right = WeightedCluster(tree, WeightKind.VIRTUAL, {o: 5, b: 4})
    assert noether_pairing(left, right) == 15  # only the origin is shared


def test_downward_closure_enforced():
    tree, _, names = fb.ex04_bp()
    with pytest.raises(NotDownwardClosed):
        WeightedCluster(tree, WeightKind.VIRTUAL, {names["p3"]: 1})


def test_virtual_zero_weight_allowed_but_not_for_curves():
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o)
    WeightedCluster(tree, WeightKind.VIRTUAL, {o: 1, p1: 0})
    with pytest.raises(InvalidWeight):
        WeightedCluster(tree, WeightKind.MULTIPLICITY, {o: 1, p1: 0})


@pytest.mark.parametrize("kind", list(WeightKind))
@pytest.mark.parametrize("weight", [True, False])
def test_bool_weight_rejected(kind, weight):
    # bool is an int subclass, so only an explicit check keeps it out
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o)
    with pytest.raises(InvalidWeight, match="is a bool"):
        WeightedCluster(tree, kind, {o: 2, p1: weight})


class _Weight(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize("kind", list(WeightKind))
@pytest.mark.parametrize("weight", [2.0, -1])
def test_non_integer_and_negative_weight_rejected(kind, weight):
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o)
    floor = 0 if kind is WeightKind.VIRTUAL else 1
    with pytest.raises(InvalidWeight, match=(
            f"weight {weight!r} at point {p1} below {floor}"
            f" for kind {kind.value}")):
        WeightedCluster(tree, kind, {o: 2, p1: weight})


@pytest.mark.parametrize("kind", list(WeightKind))
def test_int_subclass_weight_accepted(kind):
    # a weight need not be an exact int: an int subclass other than bool
    # passes the checks that a plain int passes
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o)
    cluster = WeightedCluster(tree, kind, {o: 3, p1: _Weight.TWO})
    assert cluster[p1] == 2 and cluster[p1] is _Weight.TWO


def test_unknown_points_rejected():
    tree = ArenaTree()
    o = tree.add_point()
    for bad in (1, -1, "0", None, 0.5):
        with pytest.raises(UnknownPoint):
            WeightedCluster(tree, WeightKind.VIRTUAL, {o: 1, bad: 1})


@pytest.mark.parametrize("kind", ["virtual", None, 3])
def test_kind_must_be_a_weight_kind(kind):
    # checked before the weights, so even a sound cluster is refused
    tree = ArenaTree()
    tree.add_point()
    with pytest.raises(WrongKind, match=f"kind {kind!r} is not a WeightKind"):
        WeightedCluster(tree, kind, {0: 1})


@pytest.mark.parametrize("kind", list(WeightKind))
def test_points_without_facts_rejected(kind):
    # point 1 is its own parent, so it could have no facts; the arena
    # refuses it, so no cluster of any kind can hold it
    records = [(None, None, "O"), (1, None, "a")]
    with pytest.raises(ArenaValidationError,
                       match="SelfReference at point 1") as info:
        ArenaTree.from_records(records)
    assert [d.point for d in info.value.diagnostics] == [1]
    tree = ArenaTree.from_records(records[:1])  # the sound part
    assert WeightedCluster(tree, kind, {0: 2})[0] == 2


@pytest.mark.parametrize("kind", list(WeightKind))
def test_tree_must_be_an_arena_and_weight_a_mapping(kind):
    # checked right after the kind, before anything reads either
    tree = ArenaTree()
    tree.add_point()
    for bad in (None, [0], {0: 1}):
        with pytest.raises(ArenaMismatch, match="is not an ArenaTree"):
            WeightedCluster(bad, kind, {})
    for bad in (5, None, [(0, 1)]):
        with pytest.raises(InvalidWeight, match="is not a mapping"):
            WeightedCluster(tree, kind, bad)
    with pytest.raises(WrongKind):  # the kind still comes first
        WeightedCluster(None, "virtual", 5)
