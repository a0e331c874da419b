import random
from fractions import Fraction

import pytest

from enriques import (
    MorphismInvariants,
    WeightKind,
    WeightedCluster,
    compare_point_to_branch,
    defining_free_point,
    first_satellite,
    max_under_prec,
    prec_compare,
    satellite_quotient,
    second_satellite,
    unibranch_chain,
)
from enriques.oracle import random_proximity_tree
from enriques.ordering import PrecComparison, fraction_at
from enriques.errors import (
    EmptySet,
    NotComparable,
    NotUnibranch,
    OriginHasNoSatellite,
    SecondSatelliteOfFreePoint,
)

import fixture_builders as fb

L, E, G = PrecComparison.LESS, PrecComparison.EQUAL, PrecComparison.GREATER


def test_defining_free_point():
    tree, _, names = fb.ex04_bp()
    assert defining_free_point(tree, names["p4"]) == names["p3"]
    assert defining_free_point(tree, names["p5"]) == names["p3"]
    assert defining_free_point(tree, names["p1"]) == names["p1"]
    tree6, _, names6 = fb.ex06_bp()
    assert defining_free_point(tree6, names6["p14"]) == names6["p13"]
    assert defining_free_point(tree6, names6["p11"]) == names6["p2"]


def test_satellite_quotients():
    tree, _, names = fb.ex04_bp()
    q4 = satellite_quotient(tree, names["p4"])
    assert (q4.defining_free_point, q4.fraction) == (names["p3"], Fraction(1, 2))
    q5 = satellite_quotient(tree, names["p5"])
    assert (q5.defining_free_point, q5.fraction) == (names["p3"], Fraction(2, 3))
    q_free = satellite_quotient(tree, names["p2"])
    assert (q_free.defining_free_point, q_free.fraction) == (names["p2"], Fraction(1))
    # a free point's own fraction is 1/n, below 1 past a satellite
    tree6, _, names6 = fb.ex06_bp()
    q15 = satellite_quotient(tree6, names6["p15"])
    assert (q15.defining_free_point, q15.fraction) == (names6["p15"], Fraction(1, 3))
    tree7, _, names7 = fb.ex07_bp()
    assert satellite_quotient(tree7, names7["p9"]).fraction == Fraction(1, 4)


def test_prec_compare_examples():
    tree, _, names = fb.ex04_bp()
    assert prec_compare(tree, names["p2"], names["p4"]) is L
    assert prec_compare(tree, names["p4"], names["p3"]) is L
    assert prec_compare(tree, names["p4"], names["p5"]) is L
    assert prec_compare(tree, names["p5"], names["p3"]) is L
    assert prec_compare(tree, names["p5"], names["p4"]) is G
    assert prec_compare(tree, names["p4"], names["p4"]) is E


def test_prec_incomparable_across_unrelated_free_points():
    tree, _, names = fb.ex04_bp()
    # p8 and p9 sit over sibling free points
    assert prec_compare(tree, names["p8"], names["p9"]) is \
        PrecComparison.INCOMPARABLE


def test_first_satellite_finds_existing():
    tree, _, names = fb.ex04_bp()
    size = len(tree)
    assert first_satellite(tree, names["p3"]) == names["p4"]
    assert second_satellite(tree, names["p4"]) == names["p5"]
    assert tree.proximities(names["p5"]) == {names["p4"], names["p3"]}
    assert len(tree) == size


def test_satellite_navigation_creates_when_missing():
    tree, _, names = fb.ex05_bp()
    size = len(tree)
    q1 = first_satellite(tree, names["p3"])
    assert q1 == size  # appended
    assert tree.proximities(q1) == {names["p3"], names["p2"]}
    q2 = second_satellite(tree, q1)
    assert tree.proximities(q2) == {q1, names["p3"]}
    # idempotent: a second call finds the same points
    assert first_satellite(tree, names["p3"]) == q1
    assert second_satellite(tree, q1) == q2


def test_second_satellite_in_two_exponent_example():
    tree, _, names = fb.ex07_bp()
    assert second_satellite(tree, names["p12"]) == names["p13"]
    assert tree.proximities(names["p13"]) == {names["p12"], names["p10"]}
    assert first_satellite(tree, names["p12"]) == names["p14"]


def test_satellite_navigation_errors():
    tree, _, names = fb.ex04_bp()
    with pytest.raises(OriginHasNoSatellite):
        first_satellite(tree, names["O"])
    with pytest.raises(SecondSatelliteOfFreePoint):
        second_satellite(tree, names["p3"])


def test_max_under_prec():
    tree, _, names = fb.ex04_bp()
    assert max_under_prec(tree, [names["p4"], names["p5"]]) == names["p5"]
    assert max_under_prec(tree, [names["p4"]]) == names["p4"]
    tree7, _, names7 = fb.ex07_bp()
    assert max_under_prec(tree7, [names7["p13"], names7["p14"]]) == names7["p13"]
    with pytest.raises(EmptySet):
        max_under_prec(tree, [])
    with pytest.raises(NotComparable):
        max_under_prec(tree, [names["p8"], names["p5"]])


def test_compare_point_to_branch_y5x8():
    tree, curve, names = fb.y5x8_curve()
    assert not compare_point_to_branch(tree, names["p3"], curve)  # 2/3 >= 3/5
    assert compare_point_to_branch(tree, names["p2"], curve)      # 1/2 < 3/5
    # a point whose defining free point misses the branch
    stray = tree.add_point(names["p1"])
    assert not compare_point_to_branch(tree, stray, curve)


def test_compare_point_to_branch_requires_chain():
    tree, bp, names = fb.ex04_bp()
    curve = WeightedCluster(
        tree, WeightKind.MULTIPLICITY, dict.fromkeys(bp.points, 1))
    with pytest.raises(NotUnibranch):
        compare_point_to_branch(tree, names["p4"], curve)


def test_satellite_sandwich_of_proximities():
    # a satellite sits strictly between its two proximities
    for builder in (fb.ex04_bp, fb.ex06_bp, fb.ex07_bp):
        tree, _, _ = builder()
        for p in tree.points():
            if not tree.is_satellite(p):
                continue
            a, b = tree.parent(p), tree.second_proximity(p)
            lo, hi = (a, b) if prec_compare(tree, a, b) is L else (b, a)
            assert prec_compare(tree, lo, p) is L
            assert prec_compare(tree, p, hi) is L


def _chain_defining_free_point(tree, q):
    while tree.is_satellite(q):
        q = tree.parent(q)
    return q


def _chain_less(tree, q1, q2):
    """q1 < q2 by the definition, with fractions rebuilt from chains."""
    p1 = _chain_defining_free_point(tree, q1)
    p2 = _chain_defining_free_point(tree, q2)
    return tree.precedes(p1, p2) and (
        fraction_at(tree, p1, q1) <= fraction_at(tree, p1, q2))


def test_cached_facts_match_chain_reference():
    checked = 0
    for seed in range(1000):
        rng = random.Random(seed)
        tree = random_proximity_tree(rng, 12)
        for _ in range(4):
            q = rng.randrange(1, len(tree)) if len(tree) > 1 else None
            for _ in range(rng.randint(0, 8) if q is not None else 0):
                if tree.is_satellite(q) and rng.random() < 0.5:
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
            if tree.is_satellite(q):
                a, b = tree.parent(q), tree.second_proximity(q)
                assert facts.ordered_proximities == (
                    (a, b) if _chain_less(tree, a, b) else (b, a))
            else:
                assert facts.ordered_proximities is None
            checked += 1
    assert checked > 20000
