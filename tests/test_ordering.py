import random
from fractions import Fraction

import pytest

from enriques import (
    ArenaTree,
    MorphismInvariants,
    WeightKind,
    WeightedCluster,
    compute,
    satellite_walk,
    unibranch_chain,
)
from enriques.errors import (
    ArenaValidationError,
    OriginHasNoSatellite,
    SecondSatelliteOfFreePoint,
)

import fixture_builders as fb
from arena_reference import proximities
from chain_reference import (
    NotAChain,
    PrecComparison,
    compare_point_to_branch_reference,
    fraction_at,
    max_by_fraction,
    prec_compare_reference,
    precedes,
)
from paper_reference import first_satellite, second_satellite
from randgen import grow_past_cones, random_proximity_tree

L, E, G = PrecComparison.LESS, PrecComparison.EQUAL, PrecComparison.GREATER


def test_defining_free_point():
    tree, _, names = fb.ex04_bp()
    assert tree.facts(names["p4"]).defining_free_point == names["p3"]
    assert tree.facts(names["p5"]).defining_free_point == names["p3"]
    assert tree.facts(names["p1"]).defining_free_point == names["p1"]
    tree6, _, names6 = fb.ex06_bp()
    assert tree6.facts(names6["p14"]).defining_free_point == names6["p13"]
    assert tree6.facts(names6["p11"]).defining_free_point == names6["p2"]


def test_satellite_quotients():
    # a point's position in its cone is the k/n of its facts
    def quotient(tree, q):
        facts = tree.facts(q)
        return facts.defining_free_point, Fraction(facts.k, facts.n)

    tree, _, names = fb.ex04_bp()
    assert quotient(tree, names["p4"]) == (names["p3"], Fraction(1, 2))
    assert quotient(tree, names["p5"]) == (names["p3"], Fraction(2, 3))
    assert quotient(tree, names["p2"]) == (names["p2"], Fraction(1))
    # a free point's own fraction is 1/n, below 1 past a satellite
    tree6, _, names6 = fb.ex06_bp()
    assert quotient(tree6, names6["p15"]) == (names6["p15"], Fraction(1, 3))
    tree7, _, names7 = fb.ex07_bp()
    assert quotient(tree7, names7["p9"])[1] == Fraction(1, 4)


def test_prec_compare_examples():
    tree, _, names = fb.ex04_bp()
    assert prec_compare_reference(tree, names["p2"], names["p4"]) is L
    assert prec_compare_reference(tree, names["p4"], names["p3"]) is L
    assert prec_compare_reference(tree, names["p4"], names["p5"]) is L
    assert prec_compare_reference(tree, names["p5"], names["p3"]) is L
    assert prec_compare_reference(tree, names["p5"], names["p4"]) is G
    assert prec_compare_reference(tree, names["p4"], names["p4"]) is E


def test_prec_incomparable_across_unrelated_free_points():
    tree, _, names = fb.ex04_bp()
    # p8 and p9 sit over sibling free points
    assert prec_compare_reference(tree, names["p8"], names["p9"]) is \
        PrecComparison.INCOMPARABLE


def test_first_satellite_finds_existing():
    tree, _, names = fb.ex04_bp()
    size = len(tree)
    assert first_satellite(tree, names["p3"]) == names["p4"]
    assert second_satellite(tree, names["p4"]) == names["p5"]
    assert proximities(tree, names["p5"]) == {names["p4"], names["p3"]}
    assert len(tree) == size


def test_satellite_navigation_creates_when_missing():
    tree, _, names = fb.ex05_bp()
    size = len(tree)
    q1 = first_satellite(tree, names["p3"])
    assert q1 == size  # appended
    assert proximities(tree, q1) == {names["p3"], names["p2"]}
    q2 = second_satellite(tree, q1)
    assert proximities(tree, q2) == {q1, names["p3"]}
    # idempotent: a second call finds the same points
    assert first_satellite(tree, names["p3"]) == q1
    assert second_satellite(tree, q1) == q2


def test_second_satellite_in_two_exponent_example():
    tree, _, names = fb.ex07_bp()
    assert second_satellite(tree, names["p12"]) == names["p13"]
    assert proximities(tree, names["p13"]) == {names["p12"], names["p10"]}
    assert first_satellite(tree, names["p12"]) == names["p14"]


def test_satellite_navigation_errors():
    # the walk from the origin asks for its first satellite (m/n = 3 is
    # above 1/2), and from the free point p3 for its second (m/n is below
    # m/n + 7); neither exists, and the walk appends nothing
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    size = len(tree)
    with pytest.raises(OriginHasNoSatellite):
        satellite_walk(tree, inv, names["O"], Fraction(1, 2))
    p3 = names["p3"]
    with pytest.raises(SecondSatelliteOfFreePoint):
        satellite_walk(tree, inv, p3, inv.height_quotient(p3) + 7)
    assert len(tree) == size


def test_max_under_prec():
    tree, _, names = fb.ex04_bp()
    assert max_by_fraction(tree, [names["p4"], names["p5"]]) == names["p5"]
    assert max_by_fraction(tree, [names["p4"]]) == names["p4"]
    tree7, _, names7 = fb.ex07_bp()
    assert max_by_fraction(tree7, [names7["p13"], names7["p14"]]) \
        == names7["p13"]
    # a point that would break an arena rule has no cone to compare in,
    # and no arena holds one
    records = [(None, None, None), (0, None, None), (1, 0, None),
               (1, 0, None)]
    with pytest.raises(ArenaValidationError,
                       match="DuplicateSatellite at point 3"):
        ArenaTree.from_records(records)
    assert max_by_fraction(ArenaTree.from_records(records[:3]), [1, 2]) == 1


def test_compare_point_to_branch_y5x8():
    tree, curve, names = fb.y5x8_curve()
    smaller = compare_point_to_branch_reference
    assert not smaller(tree, names["p3"], curve)  # 2/3 >= 3/5
    assert smaller(tree, names["p2"], curve)      # 1/2 < 3/5
    # a point whose defining free point misses the branch
    stray = tree.add_point(names["p1"])
    assert not smaller(tree, stray, curve)


def test_compare_point_to_branch_requires_chain():
    tree, bp, names = fb.ex04_bp()
    curve = WeightedCluster(
        tree, WeightKind.MULTIPLICITY, dict.fromkeys(bp.points, 1))
    with pytest.raises(NotAChain):
        compare_point_to_branch_reference(tree, names["p4"], curve)


def test_satellite_sandwich_of_proximities():
    # a satellite sits strictly between its two proximities
    for builder in (fb.ex04_bp, fb.ex06_bp, fb.ex07_bp):
        tree, _, _ = builder()
        for p in tree.points():
            if tree.seconds[p] is None:
                continue
            a, b = tree.parent(p), tree.second_proximity(p)
            lo, hi = ((a, b) if prec_compare_reference(tree, a, b) is L
                      else (b, a))
            assert prec_compare_reference(tree, lo, p) is L
            assert prec_compare_reference(tree, p, hi) is L


def _chain_defining_free_point(tree, q):
    while tree.seconds[q] is not None:
        q = tree.parent(q)
    return q


def _chain_less(tree, q1, q2):
    """q1 < q2 by the definition, with fractions rebuilt from chains."""
    p1 = _chain_defining_free_point(tree, q1)
    p2 = _chain_defining_free_point(tree, q2)
    return precedes(tree, p1, p2) and (
        fraction_at(tree, p1, q1) <= fraction_at(tree, p1, q2))


def test_cached_facts_match_chain_reference():
    checked = 0
    for seed in range(1000):
        rng = random.Random(seed)
        tree = random_proximity_tree(rng, 12)
        for _ in range(4):
            q = rng.randrange(1, len(tree)) if len(tree) > 1 else None
            for _ in range(rng.randint(0, 8) if q is not None else 0):
                if tree.seconds[q] is not None and rng.random() < 0.5:
                    q = second_satellite(tree, q)
                else:
                    q = first_satellite(tree, q)
        # the m recursion over the empty cluster
        zero_weight = MorphismInvariants(
            WeightedCluster(tree, WeightKind.VIRTUAL, {}))
        for q in tree.points():
            facts = tree.facts(q)
            p = _chain_defining_free_point(tree, q)
            assert facts.defining_free_point == p
            assert facts.n == unibranch_chain(tree, q)[tree.origin]
            assert facts.m0 == zero_weight.extend_to(q)[1]
            assert Fraction(facts.k, facts.n) == fraction_at(tree, p, q)
            if tree.seconds[q] is not None:
                a, b = tree.parent(q), tree.second_proximity(q)
                assert facts.ordered_proximities == (
                    (a, b) if _chain_less(tree, a, b) else (b, a))
            else:
                assert facts.ordered_proximities is None
            checked += 1
    assert checked > 20000


def _grown_tree(seed):
    rng = random.Random(seed)
    tree = random_proximity_tree(rng, rng.randint(2, 16))
    grow_past_cones(tree, rng)
    return tree


def test_fraction_at_a_free_point_is_the_cone_exit_fact():
    # the fraction of q at a free point p of its chain is the k/n of the
    # last point of q's chain in the cone of p
    checked = deep = 0
    for seed in range(1200):
        tree = _grown_tree(seed)
        for q in tree.points():
            chain = tree.ancestors(q)
            for p in chain:
                if tree.seconds[p] is not None:
                    continue
                r = [c for c in chain if tree.free_points[c] == p][-1]
                assert fraction_at(tree, p, q) == \
                    Fraction(tree.ks[r], tree.ns[r]), (seed, p, q)
                checked += 1
                deep += r not in (p, q)
    assert checked > 80000 and deep > 5000
