import random
import time
from fractions import Fraction

import pytest

from enriques import (
    ArenaTree,
    WeightKind,
    WeightedCluster,
    base_free_point,
    classify_free_points,
    compute,
    dicritical_invariant,
    dicritical_points,
    invariant_quotient,
    noether_pairing,
    recover,
    recover_grouped,
    rupture_points,
    satellite_walk,
    unibranch_chain,
    values_from_multiplicities,
)
from enriques.errors import (
    NoQualifyingPair,
    NotDicritical,
    WalkDiverged,
)

import fixture_builders as fb
import randgen


def rev(names):
    return {v: k for k, v in names.items()}


def test_dicritical_invariants():
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    assert dicritical_invariant(bp, inv, names["p8"]) == 11
    assert dicritical_invariant(bp, inv, names["p9"]) == 11
    with pytest.raises(NotDicritical):
        dicritical_invariant(bp, inv, names["p3"])

    tree5, bp5, _ = fb.ex05_bp()
    inv5 = compute(bp5)
    created = recover(bp5).created
    assert created
    for q in created:  # satellites the walk added, outside bp
        with pytest.raises(NotDicritical):
            dicritical_invariant(bp5, inv5, q)

    tree6, bp6, names6 = fb.ex06_bp()
    inv6 = compute(bp6)
    assert dicritical_invariant(bp6, inv6, names6["p20"]) == Fraction(694, 9)
    assert dicritical_invariant(bp6, inv6, names6["p19"]) == Fraction(236, 3)

    tree7, bp7, names7 = fb.ex07_bp()
    inv7 = compute(bp7)
    assert dicritical_invariant(bp7, inv7, names7["p29"]) == Fraction(543, 4)


def test_base_free_point():
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    assert base_free_point(bp, inv, names["p8"], Fraction(11)) == \
        (names["p2"], names["p3"])

    tree6, bp6, names6 = fb.ex06_bp()
    inv6 = compute(bp6)
    assert base_free_point(bp6, inv6, names6["p12"], Fraction(79)) == \
        (names6["p1"], names6["p2"])

    tree7, bp7, names7 = fb.ex07_bp()
    inv7 = compute(bp7)
    assert base_free_point(bp7, inv7, names7["p29"], Fraction(543, 4)) == \
        (names7["p9"], names7["p10"])


def test_satellite_walk_traces():
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    steps = []
    q = satellite_walk(tree, inv, names["p3"], Fraction(11), steps.append)
    assert q == names["p5"]
    assert steps == [
        (names["p3"], 12, 1, "first"),
        (names["p4"], 21, 2, "second"),
        (names["p5"], 33, 3, "stop"),
    ]


def test_satellite_walk_two_exponent_example():
    tree, bp, names = fb.ex07_bp()
    inv = compute(bp)
    steps = []
    q = satellite_walk(tree, inv, names["p10"], Fraction(543, 4), steps.append)
    assert q == names["p13"]
    assert [(s[0], s[3]) for s in steps] == [
        (names["p10"], "first"),
        (names["p11"], "second"),
        (names["p12"], "second"),
        (names["p13"], "stop"),
    ]


def test_satellite_walk_zero_iterations():
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    assert satellite_walk(tree, inv, names["p3"], Fraction(12)) == names["p3"]


def test_satellite_walk_diverges_with_cap():
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    # quotients below p3 stay above 9, so 17/2 keeps the walk descending
    # until the cap (numerator + denominator) trips
    size = len(tree)
    with pytest.raises(WalkDiverged):
        satellite_walk(tree, inv, names["p3"], Fraction(17, 2))
    assert len(tree) - size <= 17 + 2


def test_recover_topology_creates_points_when_needed():
    tree, bp, names = fb.ex05_bp()
    size = len(tree)
    result = recover(bp)
    rupture, singular, association = (
        result.rupture, result.singular, result.association)
    assert len(tree) == size + 2
    assert result.created == {size, size + 1}
    assert rupture <= singular
    (q,) = rupture
    assert tree.proximities(q) == {size, names["p3"]}
    assert association[names["p4"]].invariant == 11
    assert association[names["p4"]].base_free_point == names["p3"]


def test_recover_full_ex04():
    tree, bp, names = fb.ex04_bp()
    result = recover(bp)
    r = rev(names)
    assert {r[q] for q in result.rupture} == {"p5"}
    assert {r[q] for q in result.singular} == {"O", "p1", "p2", "p3", "p4", "p5"}
    order = ["O", "p1", "p2", "p3", "p4", "p5"]
    assert [result.values[names[l]] for l in order] == [3, 6, 9, 11, 21, 33]
    assert [result.multiplicities[names[l]] for l in order] == [3, 3, 3, 2, 1, 1]
    assert result.created == frozenset()
    for d in ("p8", "p9"):
        assoc = result.association[names[d]]
        assert assoc.invariant == 11
        assert assoc.rupture_point == names["p5"]


def test_recover_full_ex06():
    tree, bp, names = fb.ex06_bp()
    result = recover(bp)
    r = rev(names)
    assert {r[q] for q in result.rupture} == {"p4", "p5", "p9", "p10", "p11"}
    order = ["O", "p1", "p2", "p3", "p4", "p5",
             "p6", "p7", "p8", "p9", "p10", "p11"]
    assert [result.values[names[l]] for l in order] == \
        [32, 64, 79, 155, 236, 316, 223, 381, 538, 694, 288, 920]
    assert [result.multiplicities[names[l]] for l in order] == \
        [32, 32, 15, 12, 2, 1, 4, 3, 2, 1, 1, 1]
    expected_assoc = {
        "p12": (Fraction(79), "p2", "p5"),
        "p14": (Fraction(79), "p2", "p5"),
        "p19": (Fraction(236, 3), "p2", "p4"),
        "p20": (Fraction(694, 9), "p2", "p9"),
        "p21": (Fraction(230, 3), "p2", "p11"),
        "p22": (Fraction(72), "p2", "p10"),
    }
    got = {
        r[d]: (a.invariant, r[a.base_free_point], r[a.rupture_point])
        for d, a in result.association.items()
    }
    assert got == expected_assoc


def test_recover_full_ex07():
    tree, bp, names = fb.ex07_bp()
    result = recover(bp)
    r = rev(names)
    assert {r[q] for q in result.rupture} == \
        {"p4", "p5", "p7", "p8", "p13", "p14"}
    values = {r[p]: v for p, v in result.values.weight.items()}
    assert values == {
        "O": 50, "p1": 100, "p2": 132, "p3": 245, "p4": 387, "p5": 528,
        "p6": 348, "p7": 450, "p8": 799, "p9": 537, "p10": 543,
        "p11": 1083, "p12": 1628, "p13": 2172, "p14": 2712,
    }
    invariants = sorted(a.invariant for a in result.association.values())
    assert invariants == sorted([
        Fraction(132), Fraction(132), Fraction(129), Fraction(799, 7),
        Fraction(225, 2), Fraction(543, 4), Fraction(678, 5),
    ])


def test_recover_single_dicritical_origin():
    # ordinary multiple point: base points reduce to a weighted origin
    from enriques import ArenaTree

    tree = ArenaTree()
    o = tree.add_point(label="O")
    bp = WeightedCluster(tree, WeightKind.VIRTUAL, {o: 3})
    result = recover(bp)
    assert result.rupture == result.singular == frozenset({o})
    assert result.values[o] == 4
    assert result.multiplicities[o] == 4
    assert result.association[o].invariant == 4


def test_grouped_matches_basic_on_fixtures():
    for builder in (fb.ex04_bp, fb.ex05_bp, fb.ex06_bp, fb.ex07_bp):
        tree, bp, _ = builder()
        basic = recover(bp)
        grouped = recover_grouped(bp)
        assert grouped.same_result(basic)
        assert grouped.created == frozenset()  # finds what basic created


def test_grouped_walks_each_pair_once():
    # after recover has created the walk points, the grouped run walks each
    # distinct (base free point, invariant) pair once and creates nothing
    tree, bp, names = fb.ex07_bp()
    recover(bp)
    size = len(tree)
    steps = []
    result = recover_grouped(bp, steps.append)
    assert len(tree) == size
    assert result.created == frozenset()
    assert len(result.association) == 7
    assert sum(entry[3] == "stop" for entry in steps) == 6
    pairs = {(a.base_free_point, a.invariant)
             for a in result.association.values()}
    assert len(pairs) == 6  # one dicritical repeats a pair: one memo hit
    r = rev(names)
    assert {r[a.rupture_point] for a in result.association.values()} == \
        {"p4", "p5", "p7", "p8", "p13", "p14"}


def test_rupture_points_precede_their_dicriticals():
    from enriques import prec_compare
    from enriques.ordering import PrecComparison

    for builder in (fb.ex04_bp, fb.ex06_bp, fb.ex07_bp):
        tree, bp, _ = builder()
        result = recover(bp)
        for d, assoc in result.association.items():
            assert prec_compare(tree, assoc.rupture_point, d) in (
                PrecComparison.LESS, PrecComparison.EQUAL)
        assert len(result.rupture) <= len(dicritical_points(bp))


def test_rupture_height_quotients_distinct_per_cone():
    from enriques import defining_free_point

    tree, bp, names = fb.ex07_bp()
    inv = compute(bp)
    result = recover(bp)
    by_cone = {}
    for q in result.rupture:
        by_cone.setdefault(defining_free_point(tree, q), []).append(q)
    for cone in by_cone.values():
        quotients = [inv.height_quotient(q) for q in cone]
        assert len(set(quotients)) == len(quotients)


def test_classify_free_points():
    tree, bp, names = fb.ex04_bp()
    result = recover(bp)
    flags = classify_free_points(result)
    assert flags == {
        names["O"]: False, names["p1"]: False,
        names["p2"]: False, names["p3"]: False,
    }
    tree7, bp7, names7 = fb.ex07_bp()
    result7 = recover(bp7)
    flags7 = classify_free_points(result7)
    # one branch leaves free right after p9 (towards p10 and beyond)
    assert flags7[names7["p9"]] is False
    assert flags7[names7["p10"]] is False
    assert flags7[names7["p2"]] is False


def test_classify_true_on_free_rupture_point():
    # two transversal cusps: the origin carries two leaving free branches
    from enriques import ArenaTree

    tree = ArenaTree()
    o = tree.add_point(label="O")
    bp = WeightedCluster(tree, WeightKind.VIRTUAL, {o: 2})
    result = recover(bp)
    assert classify_free_points(result)[o] is True


def _build_raw(rows):
    from enriques import ArenaTree

    tree = ArenaTree()
    weights = {}
    for parent, second, weight in rows:
        p = tree.add_point(parent, second)
        weights[p] = weight
    return tree, WeightedCluster(tree, WeightKind.VIRTUAL, weights)


@pytest.mark.parametrize("rows, error", [
    # consistent clusters that are not base points of any polar system
    ([(None, None, 11), (0, None, 8), (0, None, 3), (1, None, 4),
      (3, 1, 2), (3, None, 1), (2, None, 1), (1, None, 2)],
     "NonPositiveMultiplicity"),
    ([(None, None, 19), (0, None, 17), (1, None, 9), (2, 1, 5),
      (3, 1, 1), (3, 2, 1), (1, 0, 2), (5, 3, 1), (6, None, 2)],
     "EmptyRuptureSet"),
    ([(None, None, 3), (0, None, 2), (0, None, 1), (2, None, 1)],
     "InconsistentCluster"),
])
def test_invalid_input_diagnosed_with_partial_association(rows, error):
    from enriques import errors, is_consistent

    tree, bp = _build_raw(rows)
    assert is_consistent(bp)
    with pytest.raises(getattr(errors, error)) as info:
        recover(bp)
    assert info.value.association  # partial dicritical table for debugging


def test_values_on_recovered_cluster_match_forward_conversion():
    tree, bp, _ = fb.ex06_bp()
    result = recover(bp)
    assert values_from_multiplicities(result.multiplicities) == result.values


# -- O(1) invariant and backward base-free-point scan against references ------


def _pairing_invariant(bp, d):
    """The invariant's definition: pairing(bp, chain of d) / n_d + 1."""
    chain = unibranch_chain(bp.tree, d)
    return Fraction(noether_pairing(bp, chain), chain[bp.tree.origin]) + 1


def _forward_base_free_point(bp, inv, d, invariant):
    """The last qualifying link, scanning d's chain from the origin."""
    tree = bp.tree
    chain = tree.ancestors(d)
    found = None
    for p_prev, p in zip(chain, chain[1:]):
        if tree.is_satellite(p):
            continue
        if inv.height_quotient(p_prev) < invariant:
            found = (p_prev, p)
    if found is None:
        raise NoQualifyingPair(f"no chain link of point {d} qualifies")
    return found


def _grown_bp(seed):
    """A consistent base-point cluster over an arena grown past it.

    The satellite walks add points outside bp, so the suites below see
    weightless points as well as weighted ones.
    """
    bp = randgen.random_consistent_bp(seed)
    randgen.grow_by_satellite_walks(
        bp.tree, random.Random(seed), walks=6, max_steps=12)
    return bp


def _call(f, *args):
    try:
        return f(*args)
    except NoQualifyingPair:
        return NoQualifyingPair


def test_o1_invariant_matches_pairing_reference():
    points = dicriticals = outside = 0
    for seed in range(1000):
        bp = _grown_bp(seed)
        tree = bp.tree
        inv = compute(bp)
        dicritical = dicritical_points(bp)
        for d in tree.points():
            _, m_d = inv.extend_to(d)
            assert m_d - tree.facts(d).m0 == noether_pairing(
                bp, unibranch_chain(tree, d))
            points += 1
            if d in dicritical:
                assert dicritical_invariant(bp, inv, d) == \
                    _pairing_invariant(bp, d)
                dicriticals += 1
            else:
                with pytest.raises(NotDicritical):
                    dicritical_invariant(bp, inv, d)
                outside += d not in bp
    assert points > 30000 and dicriticals > 4000 and outside > 25000


def test_base_free_point_matches_forward_scan_reference():
    calls = raised = 0
    for seed in range(1000):
        bp = _grown_bp(seed)
        tree = bp.tree
        inv = compute(bp)
        dicritical = dicritical_points(bp)
        for d in tree.points():
            # the height quotient at each free link's lower end, and just
            # above it, hits the strict comparison at each link
            quotients = {inv.height_quotient(tree.parent(p))
                         for p in tree.ancestors(d)[1:] if tree.is_free(p)}
            candidates = {Fraction(1, 2)} | {
                x + delta for x in quotients
                for delta in (0, Fraction(1, 7))}
            if d in dicritical:
                candidates.add(dicritical_invariant(bp, inv, d))
            for invariant in candidates:
                got = _call(base_free_point, bp, inv, d, invariant)
                assert got == _call(
                    _forward_base_free_point, bp, inv, d, invariant)
                calls += 1
                raised += got is NoQualifyingPair
    assert calls > 100000 and raised > 50000


# -- deep walks (polar base points of y^n = x^(1 + j(n-1))) -------------------


def _polar_bp(n, j):
    """A chain of j free points from the origin, each of weight n - 1."""
    tree = ArenaTree()
    p = tree.add_point()
    weights = {p: n - 1}
    for _ in range(j - 1):
        p = tree.add_point(p)
        weights[p] = n - 1
    return WeightedCluster(tree, WeightKind.VIRTUAL, weights)


@pytest.mark.parametrize("j, created", [(2, 3999), (3, 1999)])
def test_deep_polar_walk(j, created):
    bp = _polar_bp(4000, j)
    start = time.perf_counter()
    result = recover(bp)
    elapsed = time.perf_counter() - start
    assert len(result.created) == created
    assert elapsed < 2.0, f"recover took {elapsed:.2f} s"
    curve = result.multiplicities
    assert rupture_points(curve) == result.rupture
    for assoc in result.association.values():
        assert invariant_quotient(curve, assoc.rupture_point) == \
            assoc.invariant
    assert recover_grouped(bp).same_result(result)
