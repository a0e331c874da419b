"""Property tests driven by hypothesis over seeded structure generators."""

import random

from hypothesis import given, settings, strategies as st

from enriques import (
    WeightKind,
    compute,
    excess,
    is_consistent,
    multiplicities_from_values,
    noether_pairing,
    recover,
    recover_grouped,
    unibranch_chain,
    canonical_form,
)
from enriques.errors import EnriquesError

import randgen
from chain_reference import (
    PrecComparison, fraction_at, prec_compare_reference)
from paper_reference import (
    jacobian_multiplicity_check, validate_curve_cluster,
    values_from_multiplicities)
from randgen import random_curve

seeds = st.integers(min_value=0, max_value=10**9)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_value_multiplicity_round_trip(seed):
    cluster = randgen.random_multiplicity_cluster(seed)
    assert multiplicities_from_values(
        values_from_multiplicities(cluster)) == cluster


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_pairing_symmetric_and_matches_self_intersection(seed):
    a = randgen.random_multiplicity_cluster(seed)
    rng = random.Random(seed + 1)
    b_weights = {p: rng.randint(1, 9) for p in a.tree.points()}
    from enriques import WeightedCluster

    b = WeightedCluster(a.tree, WeightKind.MULTIPLICITY, b_weights)
    assert noether_pairing(a, b) == noether_pairing(b, a)
    assert noether_pairing(a, a) == sum(w * w for w in a.weight.values())


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_unibranch_chain_excesses(seed):
    tree = randgen.random_tree(seed)
    for p in tree.points():
        chain = unibranch_chain(tree, p)
        assert excess(chain, p) == 1
        for q in tree.ancestors(p)[:-1]:
            assert excess(chain, q) == 0
        if all(tree.second_proximity(q) is None for q in chain.points):
            assert set(chain.weight.values()) == {1}


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_morphism_invariants_on_random_consistent_clusters(seed):
    bp = randgen.random_consistent_bp(seed)
    tree = bp.tree
    inv = compute(bp)
    for p in tree.points():
        n, m = inv.extend_to(p)
        assert n == unibranch_chain(tree, p)[tree.origin]
        parent = tree.parent(p)
        if parent is not None:
            assert m > inv.extend_to(parent)[1]
        assert jacobian_multiplicity_check(inv, p) == bp.get(p, 0)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_prec_total_order_within_cones(seed):
    tree = randgen.random_tree(seed)
    cones = {}
    for p in tree.points():
        cones.setdefault(tree.facts(p).defining_free_point, []).append(p)
    for base, members in cones.items():
        fractions = [fraction_at(tree, base, q) for q in members]
        assert len(set(fractions)) == len(fractions)
        for i, q1 in enumerate(members):
            for q2 in members[i + 1:]:
                assert prec_compare_reference(tree, q1, q2) in (
                    PrecComparison.LESS, PrecComparison.GREATER)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_random_curves_are_valid(seed):
    curve = random_curve(seed)
    assert is_consistent(curve)
    assert validate_curve_cluster(curve) == []


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_recovery_variants_agree_on_random_consistent_input(seed):
    bp = randgen.random_consistent_bp(seed, max_points=8)
    try:
        basic = recover(bp)
    except EnriquesError:
        # not a genuine base-point cluster: the grouped run must be
        # rejected as well (which faulty dicritical trips first may
        # differ between the two processing orders)
        try:
            recover_grouped(bp)
        except EnriquesError:
            return
        raise AssertionError(
            "grouped succeeded where the basic run failed")
    grouped = recover_grouped(bp)
    assert grouped.same_result(basic)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_recovery_invariant_under_relabeling(seed):
    bp = randgen.random_consistent_bp(seed, max_points=8)
    rows = randgen.cluster_rows(bp)
    shuffled = randgen.shuffle_rows(rows, random.Random(seed ^ 0xABCD))
    _, bp2 = randgen.build_cluster(shuffled, WeightKind.VIRTUAL)
    assert canonical_form(bp) == canonical_form(bp2)
    try:
        first = recover(bp)
    except EnriquesError:
        try:
            recover(bp2)
        except EnriquesError:
            return
        raise AssertionError("relabeled input recovered differently")
    second = recover(bp2)
    assert canonical_form(first.values) == canonical_form(second.values)
    assert canonical_form(first.multiplicities) == \
        canonical_form(second.multiplicities)
