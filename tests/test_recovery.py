import copy
import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from enriques import (
    ArenaTree,
    DicriticalAssociation,
    MorphismInvariants,
    RecoveryResult,
    WeightKind,
    WeightedCluster,
    base_free_point,
    compute,
    dicritical_invariant,
    dicritical_points,
    invariant_quotient,
    is_consistent,
    multiplicities_from_values,
    noether_pairing,
    parse,
    recover,
    recover_grouped,
    recover_values,
    rupture_points,
    satellite_walk,
    serialize,
    unibranch_chain,
)
from enriques.arena import CHAIN_CROSSOVER
from enriques.recovery import (
    _biggest_rupture_by_cone,
    _downward_closure,
)
from enriques.errors import (
    ArenaMismatch,
    ArenaValidationError,
    Diagnostic,
    EmptyRuptureSet,
    EnriquesError,
    InconsistentCluster,
    NonPositiveMultiplicity,
    NoQualifyingPair,
    NotDicritical,
    NotDownwardClosed,
    RecoveryError,
    SecondSatelliteOfFreePoint,
    UnknownPoint,
    WalkDiverged,
)

import fixture_builders as fb
import randgen
from arena_reference import proximities, triples
from chain_reference import (
    PrecComparison, max_by_fraction, prec_compare_reference)
from paper_reference import (
    classify_free_points, first_satellite, second_satellite,
    values_from_multiplicities)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


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
    # for ever.  It follows p3 -> p4, which exist; from p4 every first move
    # adds the share of p2, whose quotient 9 is above 17/2, so the gap never
    # closes, and the walk stops before it creates a point (_stepwise_walk
    # below creates 19, up to the cap of 17 + 2 moves)
    size = len(tree)
    steps = []
    with pytest.raises(WalkDiverged):
        satellite_walk(tree, inv, names["p3"], Fraction(17, 2), steps.append)
    assert len(tree) == size
    assert steps == [(names["p3"], 12, 1, "first"),
                     (names["p4"], 21, 2, "first")]


def test_scan_and_walk_errors_print_the_invariant_as_fraction_does():
    # the scan and the walk compare in integers; their errors still print
    # the invariant as str(Fraction) does: 3, not 3/1
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    with pytest.raises(NoQualifyingPair) as info:
        base_free_point(bp, inv, names["p8"], Fraction(3))
    assert str(info.value) == (
        "no chain link of point 8 qualifies for invariant 3")
    for invariant, text in ((Fraction(6), "6 within 7"),
                            (Fraction(17, 2), "17/2 within 19")):
        with pytest.raises(WalkDiverged) as info:
            satellite_walk(tree, inv, names["p3"], invariant)
        assert str(info.value) == (
            f"no height quotient equal to {text} steps below point 3")


def test_scan_and_walk_errors_name_a_too_long_number_by_its_digits():
    # Python writes no int of more digits than its limit as text, so a
    # message shows such a number, and each such part of a fraction, by
    # its digit count
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    big = 10 ** sys.get_int_max_str_digits()
    long = f"<{sys.get_int_max_str_digits() + 1} digits>"
    with pytest.raises(NoQualifyingPair) as info:
        base_free_point(bp, inv, names["p8"], Fraction(3 * big - 1, big))
    assert str(info.value) == (
        f"no chain link of point 8 qualifies for invariant {long}/{long}")
    with pytest.raises(WalkDiverged) as info:
        satellite_walk(tree, inv, names["p3"], Fraction(6 * big + 1, big))
    assert str(info.value) == (
        f"no height quotient equal to {long}/{long} within {long} steps"
        " below point 3")


def test_walk_refuses_a_run_longer_than_a_list_holds():
    # below p the walk appends point 2, and from there its next run would
    # close the gap after about 10**30 points; it raises before it appends
    # any of them or extends the m table (it used to reach
    # ArenaTree._append_run and raise a bare OverflowError from range)
    weight = 10 ** 30
    tree, bp = parse(json.dumps({
        "format_version": 1, "weight_kind": "virtual",
        "points": [{"id": "O", "weight": weight},
                   {"id": "p", "parent": "O", "weight": weight}]}))
    refused = "^the run below point 2 would take the arena past"
    with pytest.raises(WalkDiverged, match=refused):
        recover(bp)
    assert len(tree) == 3
    inv = compute(bp)
    invariant = dicritical_invariant(bp, inv, 1)
    _, p = base_free_point(bp, inv, 1, invariant)
    inv.extend_to(2)
    table = list(inv.m)
    with pytest.raises(WalkDiverged, match=refused):
        satellite_walk(tree, inv, p, invariant)
    assert (len(tree), inv.m) == (3, table)


def test_recover_never_reaches_no_qualifying_pair():
    # the proof in _base_free_point's docstring: for every dicritical d
    # other than the origin O, the link (O, p1) qualifies, because
    # m_O / n_O = w_O + 1 < I_d; so recover's scan always stops
    bps = [randgen.random_consistent_bp(seed) for seed in range(6000)]
    bps += [builder()[1] for builder in (fb.ex04_bp, fb.ex05_bp,
                                         fb.ex06_bp, fb.ex07_bp)]
    bps += [_fan_bp(k) for k in (8, 23, 60)]
    checked = 0
    for bp in bps:
        origin = bp.tree.origin
        inv = compute(bp)
        for d in dicritical_points(bp) - {origin}:
            assert bp[origin] + 1 < dicritical_invariant(bp, inv, d)
            checked += 1
    assert checked > 25000


def test_recover_raises_arena_error_at_a_dicritical_without_facts():
    # point 3 names a second proximity that its parent is not proximate
    # to, so it could have no facts and no m.  No arena holds it, so no
    # cluster and no run reaches it; a run on the sound points still
    # associates the origin as before.  The partial association on a
    # raised error is pinned by
    # test_invalid_input_diagnosed_with_partial_association
    records = [(None, None, "O"), (0, None, "p1"), (1, None, "p2"),
               (2, 0, "bad")]
    with pytest.raises(ArenaValidationError) as info:
        ArenaTree.from_records(records)
    assert info.value.diagnostics == [Diagnostic(
        "IllegalProximity", 3,
        "second proximity 0 is not among the proximities of parent 2")]
    for run in (recover, recover_grouped):
        tree = ArenaTree.from_records(records[:3])
        bp = WeightedCluster(tree, WeightKind.VIRTUAL, {0: 3, 1: 1, 2: 1})
        assert sorted(dicritical_points(bp)) == [0, 2]
        assert run(bp).association[0] == DicriticalAssociation(
            Fraction(4), 0, 0)


def test_satellite_walk_finds_points_appended_after_its_table():
    tree, bp, _ = fb.ex05_bp()
    inv = compute(bp)
    size = len(tree)
    result = recover(bp)  # appends the points its walks create
    found = 0
    for assoc in result.association.values():
        steps, fresh = [], []
        assert satellite_walk(tree, inv, assoc.base_free_point,
                              assoc.invariant, steps.append) == \
            assoc.rupture_point
        satellite_walk(tree, compute(bp), assoc.base_free_point,
                       assoc.invariant, fresh.append)
        assert steps == fresh
        found += sum(q >= size for q, _, _, _ in steps)
    assert found > 0 and len(tree) == size + len(result.created)


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
    assert proximities(tree, q) == {size, names["p3"]}
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
    # a run walks each distinct (base free point, invariant) pair once: on
    # a fresh arena, where the walks create points, and after recover has
    # created them, where the grouped run creates nothing
    tree, bp, names = fb.ex07_bp()
    steps = []
    recover(bp, steps.append)
    assert sum(entry[3] == "stop" for entry in steps) == 6
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


def _state(*arenas_and_tables):
    """Deep copies of the arenas' columns and pair indexes and the tables."""
    return [copy.deepcopy(x.m) if isinstance(x, MorphismInvariants) else
            copy.deepcopy([getattr(x, c) for c in _COLUMNS]
                          + [x._satellite_index])
            for x in arenas_and_tables]


def test_steps_refuse_a_table_built_for_another_cluster():
    # the table must be the given cluster's, over the given arena: each
    # step refuses a table over a clone of the arena, over another arena
    # and for other weights on the same arena, and neither arena nor
    # table changes; an equal cluster's table is its own
    tree, bp, names = fb.ex05_bp()
    clone = ArenaTree.from_records(triples(tree))
    on_clone = MorphismInvariants(WeightedCluster(clone, bp.kind, bp.weight))
    state = _state(tree, clone, on_clone)
    with pytest.raises(ArenaMismatch):
        satellite_walk(tree, on_clone, names["p3"], Fraction(11))
    assert _state(tree, clone, on_clone) == state
    assert satellite_walk(clone, on_clone, names["p3"], Fraction(11)) == 6

    tree4, bp4, names4 = fb.ex04_bp()
    tree7, bp7, _ = fb.ex07_bp()
    reweighted = MorphismInvariants(WeightedCluster(
        tree4, bp4.kind, {**bp4.weight, 0: bp4[0] + 1}))
    result = recover(bp4)
    d = names4["p8"]
    cluster_steps = (
        lambda inv: dicritical_invariant(bp4, inv, d),
        lambda inv: base_free_point(bp4, inv, d, Fraction(11)),
        lambda inv: recover_values(bp4, inv, result.rupture, result.singular),
    )
    walk = (lambda inv: satellite_walk(tree4, inv, names4["p3"], Fraction(11)),)
    # the walk takes an arena, not a cluster, so only a table over another
    # arena is foreign to it
    for inv, refusing in ((compute(bp7), cluster_steps + walk),
                          (reweighted, cluster_steps)):
        for step in refusing:
            state = _state(tree4, tree7, inv)
            with pytest.raises(ArenaMismatch):
                step(inv)
            assert _state(tree4, tree7, inv) == state
    own = compute(bp4)
    equal = compute(WeightedCluster(tree4, bp4.kind, dict(bp4.weight)))
    assert dicritical_invariant(bp4, equal, d) == 11
    for step in cluster_steps + walk:
        assert step(equal) == step(own)


def _fan_bp(k):
    """The base points of the benchmark's fan of k chains."""
    return parse(workloads.fan(k, random.Random(k)))[1]


@pytest.mark.parametrize("k", [8, 23, 60])
def test_legal_walk_runs_append_unchecked(k, monkeypatch):
    # every run a walk appends is legal, so ArenaTree._append_run writes it in
    # closed form and no point it appends is checked against the arena rules
    bp = _fan_bp(k)
    calls = []
    check = ArenaTree._violations

    def spy(tree, *point):
        calls.append(point)
        return check(tree, *point)

    monkeypatch.setattr(ArenaTree, "_violations", spy)
    assert recover(bp).created and calls == []


@pytest.mark.parametrize("k", [8, 23, 60])
def test_recover_builds_one_fraction_per_distinct_invariant(k):
    result = recover(_fan_bp(k))
    invariants = [a.invariant for a in result.association.values()]
    assert len(set(invariants)) < len(invariants)  # fans repeat invariants
    assert len({id(i) for i in invariants}) == len(set(invariants))


def _fresh_documents(fixture_dir):
    """(name, base-point document) pairs: the four fixtures, a sample of
    the Euclid family, random consistent clusters and the benchmark's
    fans."""
    for name in ("ex04", "ex05", "ex06", "ex07"):
        yield name, (fixture_dir / f"{name}_bp.json").read_text(
            encoding="utf-8")
    for n in range(2, 30, 3):
        for m in range(n + 1, 90, 11):
            yield f"euclid {m} {n}", serialize(*randgen.build_cluster(
                randgen.euclid_rows(m - 1, n - 1), WeightKind.VIRTUAL))
    for seed in range(400):
        bp = randgen.random_consistent_bp(seed)
        yield f"seed {seed}", serialize(bp.tree, bp)
    for k in (2, 3, 5, 8, 13, 23, 60, 110):
        yield f"fan {k}", workloads.fan(k, random.Random(k))


_AGREEING_COLUMNS = ("parents", "seconds", "ns", "ks", "pairs")


def test_grouped_matches_basic_on_fresh_arenas(fixture_dir):
    # each name runs on its own parse of one document, so the points the
    # walks create get their ids from that run alone
    ok = 0
    for name, text in _fresh_documents(fixture_dir):
        (_, basic_bp), (_, grouped_bp) = parse(text), parse(text)
        basic = _outcome(recover, basic_bp)
        assert _outcome(recover_grouped, grouped_bp) == basic, name
        for column in _AGREEING_COLUMNS:
            assert getattr(grouped_bp.tree, column) == \
                getattr(basic_bp.tree, column), (name, column)
        ok += len(basic) > 3
    assert ok > 150


def test_rupture_points_precede_their_dicriticals():
    for builder in (fb.ex04_bp, fb.ex06_bp, fb.ex07_bp):
        tree, bp, _ = builder()
        result = recover(bp)
        for d, assoc in result.association.items():
            assert prec_compare_reference(tree, assoc.rupture_point, d) in (
                PrecComparison.LESS, PrecComparison.EQUAL)
        assert len(result.rupture) <= len(dicritical_points(bp))


def test_rupture_height_quotients_distinct_per_cone():
    tree, bp, names = fb.ex07_bp()
    inv = compute(bp)
    result = recover(bp)
    by_cone = {}
    for q in result.rupture:
        by_cone.setdefault(tree.facts(q).defining_free_point, []).append(q)
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
        if tree.seconds[p] is not None:
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
                         for p in tree.ancestors(d)[1:] if tree.seconds[p] is None}
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


# -- the walk by runs against the walk by moves --------------------------------


def _stepwise_walk(tree, inv, p, invariant, trace=None):
    """The walk one move at a time, finding or creating every point."""
    n, m = inv.extend_to(p)
    num, den = invariant.numerator, invariant.denominator
    cap = num + den
    q = p
    for _ in range(cap + 1):
        gap = m * den - num * n
        if gap == 0:
            if trace:
                trace((q, m, n, "stop"))
            return q
        if gap > 0:
            if trace:
                trace((q, m, n, "first"))
            q = first_satellite(tree, q)
        else:
            if trace:
                trace((q, m, n, "second"))
            q = second_satellite(tree, q)
        n, m = inv.extend_to(q)
    raise WalkDiverged(f"no height quotient equal to {invariant}")


_COLUMNS = ("parents", "seconds", "labels", "free_points", "ns", "m0s", "ks",
            "pairs")


def _assert_prefix(tree, inv, ref, ref_inv):
    """The arena and m table hold the reference's first len(tree) points."""
    size = len(tree)
    assert size <= len(ref)
    inv.extend_to(size - 1)  # catch up with the point added before the walk
    ref_inv.extend_to(len(ref) - 1)
    for name in _COLUMNS:
        assert getattr(tree, name) == getattr(ref, name)[:size], name
    assert tree._satellite_index == {
        pair: q for pair, q in ref._satellite_index.items() if q < size}
    assert inv.m == ref_inv.m[:size]


def _walk_on_copy(walk, bp, p, invariant):
    """Walk on a copy of bp's arena; return (outcome, trace, arena, table).

    A free point appended after the m table was built leaves the table one
    point behind the arena, as any growth outside the walk does.
    """
    tree = ArenaTree.from_records(triples(bp.tree))
    inv = MorphismInvariants(WeightedCluster(tree, bp.kind, bp.weight))
    tree.add_point(tree.origin)
    steps = []
    try:
        outcome = walk(tree, inv, p, invariant, steps.append)
    except EnriquesError as err:
        outcome = type(err)
    return outcome, steps, tree, inv


def _longest_created_run(steps, size):
    """The most trace entries in a row at created points with one move."""
    longest = run = 0
    before = None
    for q, _, _, word in steps:
        run = run + 1 if q >= size and word == before else 1
        longest, before = max(longest, run), word
    return longest


def _walk_cases(bp, rng):
    """(p, invariant) pairs: every dicritical's, random ones, and ones
    just off the height quotient of a proximity of p, which makes long
    runs toward it.

    Only invariants with numerator + denominator at most 2,000 are kept:
    the reference creates up to that many points, one at a time, before
    it gives up.
    """
    tree = bp.tree
    inv = compute(bp)
    cases = []
    for d in sorted(dicritical_points(bp)):
        invariant = dicritical_invariant(bp, inv, d)
        try:
            cases.append((base_free_point(bp, inv, d, invariant)[1], invariant))
        except NoQualifyingPair:
            pass

    def near_a_proximity(p, closeness):
        s = rng.choice(sorted(proximities(tree, p)))
        offset = Fraction(rng.choice((-1, 1)), rng.randint(*closeness))
        return p, max(Fraction(1, 2), inv.height_quotient(s) + offset)

    for _ in range(6):
        p = rng.randrange(len(tree))
        cases.append((p, Fraction(rng.randint(1, 120), rng.randint(1, 12))))
        if p:
            cases.append(near_a_proximity(p, (1, 40)))
    for _ in range(2):  # closer still: runs of 32 points and more
        p = rng.randrange(len(tree))
        if p:
            cases.append(near_a_proximity(p, (32, 120)))
    return [(p, invariant) for p, invariant in cases
            if invariant.numerator + invariant.denominator <= 2000]


def test_satellite_walk_matches_stepwise_reference():
    counts = Counter()
    long_runs = 0
    for seed in range(300):
        bp = _grown_bp(seed)
        for p, invariant in _walk_cases(bp, random.Random(seed)):
            got, steps, tree, inv = _walk_on_copy(
                satellite_walk, bp, p, invariant)
            want, ref_steps, ref, ref_inv = _walk_on_copy(
                _stepwise_walk, bp, p, invariant)
            assert got == want, (seed, p, invariant)
            if got is WalkDiverged:
                # the walk stops before the run that overshoots the cap
                assert steps == ref_steps[:len(steps)]
            else:
                assert steps == ref_steps
                assert len(tree) == len(ref)
            _assert_prefix(tree, inv, ref, ref_inv)
            if isinstance(got, type):
                counts[got] += 1
            else:
                counts["ok"] += 1
                long_runs += _longest_created_run(
                    steps, len(bp.tree)) >= CHAIN_CROSSOVER
    assert counts["ok"] > 1500 and counts[WalkDiverged] > 2000
    assert counts[SecondSatelliteOfFreePoint] > 50 and long_runs > 150


@pytest.mark.parametrize("w, created, prewalked", [
    pytest.param(5, 5, False, id="5-5"),
    pytest.param(6, 6, False, id="6-6"),
    pytest.param(7, None, False, id="7-None"),
    pytest.param(5, 5, True, id="5-5-prewalked"),
    pytest.param(6, 6, True, id="6-6-prewalked"),
    pytest.param(7, None, True, id="7-None-prewalked")])
def test_satellite_walk_cap_cuts_a_closing_run(w, created, prewalked):
    # O has m/n = 4/1 and its free child q of weight w has (w + 5)/1, so a
    # walk from q to I = 5 closes after w first moves towards O; its cap is
    # 5 + 1 moves.  The weights are not consistent, which lets a single
    # run outgrow the cap.  A prewalked arena already holds every point of
    # the path, so the walk finds each one and moves one point at a time.
    tree = ArenaTree()
    q = tree.add_point(tree.add_point())
    bp = WeightedCluster(tree, WeightKind.VIRTUAL, {0: 3, q: w})
    if prewalked:
        try:
            _stepwise_walk(tree, MorphismInvariants(bp), q, Fraction(5))
        except WalkDiverged:
            pass
    got, steps, walked, inv = _walk_on_copy(satellite_walk, bp, q, Fraction(5))
    want, ref_steps, ref, ref_inv = _walk_on_copy(
        _stepwise_walk, bp, q, Fraction(5))
    if created is None:
        assert got is want is WalkDiverged and len(ref) == 3 + 7
        if prewalked:
            assert len(walked) == len(ref) and steps == ref_steps
        else:  # the closing run is cut before it is appended
            assert len(walked) == 3 and steps == ref_steps[:1]
    else:
        assert got == want == created + (1 if prewalked else 2)
        assert steps == ref_steps and len(steps) == created + 1
    _assert_prefix(walked, inv, ref, ref_inv)


# -- the one-sweep second half against the pass-by-pass reference -------------


def _reference_values(bp, inv, rupture, singular):
    """The value rules pass by pass: rupture, then free, then satellite
    points, each group in the iteration order of ``singular``."""
    tree = bp.tree
    if singular:
        if min(singular) < 0:
            raise UnknownPoint(f"no point with id {min(singular)}")
        inv.extend_to(max(singular))
    m = inv.m
    parents, seconds = tree.parents, tree.seconds
    free_points, ns, ks = tree.free_points, tree.ns, tree.ks
    children = [[] for _ in parents]
    for c, a in enumerate(parents):
        if a is not None:
            children[a].append(c)
    values = {q: m[q] for q in rupture}
    free_rest, satellite_rest = [], []
    for p in singular:
        if p not in rupture:
            if seconds[p] is None:
                free_rest.append(p)
            else:
                satellite_rest.append(p)
    biggest_rupture = _biggest_rupture_by_cone(tree, rupture)
    for p in free_rest:
        if any(c in singular and seconds[c] is None for c in children[p]):
            values[p] = m[p]
            continue
        q = biggest_rupture.get(p)
        if q is None:
            raise EmptyRuptureSet(
                f"free singular point {p} has no rupture point in its"
                " satellite cone")
        values[p] = -(-(ns[p] * m[q]) // ns[q])
    for p in satellite_rest:
        p_free = free_points[p]
        q = biggest_rupture.get(p_free)
        if q is None:
            raise EmptyRuptureSet(
                f"satellite point {p} has no rupture point in the cone"
                f" of its defining free point {p_free}")
        n_q, m_q, n_pf = ns[q], m[q], ns[p_free]
        v_pf = values[p_free]
        if ks[p] * n_q > ks[q] * ns[p] and v_pf * n_q == n_pf * m_q:
            numerator = ns[p] * v_pf
            assert numerator % n_pf == 0
            values[p] = numerator // n_pf
        else:
            values[p] = m[p]
    return WeightedCluster(tree, WeightKind.VALUE, values)


def _reference_recover(bp):
    """``recover`` through its public steps, with the second half as
    separate passes: values, conversion, consistency, Fraction quotients.
    Each distinct (base free point, invariant) pair is walked once."""
    tree = bp.tree
    before = len(tree)
    inv = compute(bp)
    association = {}
    try:
        origin = tree.origin
        schedule = [(dicritical_invariant(bp, inv, d), d)
                    for d in sorted(dicritical_points(bp))]
        if schedule and schedule[0][1] == origin:
            association[origin] = DicriticalAssociation(
                schedule.pop(0)[0], origin, origin)
        walked = {}
        for invariant, d in schedule:
            _, p = base_free_point(bp, inv, d, invariant)
            if (p, invariant) not in walked:
                walked[p, invariant] = satellite_walk(tree, inv, p, invariant)
            association[d] = DicriticalAssociation(
                invariant, p, walked[p, invariant])
        rupture = frozenset(a.rupture_point for a in association.values())
        singular = _downward_closure(tree, rupture)
        values = _reference_values(bp, inv, rupture, singular)
        multiplicities = multiplicities_from_values(values)
        if not is_consistent(multiplicities):
            raise InconsistentCluster(
                "recovered multiplicities are not consistent; the input is"
                " not a cluster of polar base points")
        for d, assoc in association.items():
            if inv.height_quotient(assoc.rupture_point) != assoc.invariant:
                raise RecoveryError(
                    f"height quotient at {assoc.rupture_point} does not"
                    f" match the invariant of dicritical {d}")
    except EnriquesError as err:
        err.association = dict(association)
        raise
    return RecoveryResult(rupture, singular, values, multiplicities,
                          association, frozenset(range(before, len(tree))))


def _outcome(run, *args):
    """A run's result, or its error's class, message and partial table."""
    try:
        r = run(*args)
    except EnriquesError as err:
        return type(err), str(err), getattr(err, "association", None)
    if isinstance(r, WeightedCluster):
        return r.kind, r.weight
    return (r.rupture, r.singular, r.values.kind, r.values.weight,
            r.multiplicities.kind, r.multiplicities.weight, r.association,
            r.created)


def _sweep_inputs():
    """Factories of fresh base-point clusters: random ones, then the
    perturbations of the golden fixtures."""
    for max_points, seeds in ((8, 6000), (14, 1500)):
        for seed in range(seeds):
            yield partial(randgen.random_consistent_bp, seed, max_points)
    plan = [(fb.ex04_bp, 350), (fb.ex05_bp, 250),
            (fb.ex06_bp, 250), (fb.ex07_bp, 150)]
    for builder, count in plan:
        tree0, bp0, _ = builder()
        for i in range(count):
            weights = randgen.perturb_weights(
                tree0, dict(bp0.weight), random.Random(i * 7919 + count))
            yield lambda tree0=tree0, weights=weights: WeightedCluster(
                ArenaTree.from_records(triples(tree0)), WeightKind.VIRTUAL,
                weights)


def test_one_sweep_second_half_matches_pass_reference():
    counts = Counter()
    for make in _sweep_inputs():
        want = _outcome(_reference_recover, make())
        for run in (recover, recover_grouped):
            got = _outcome(run, make())
            assert got == want
            counts[got[0] if len(got) == 3 else "ok"] += 1
    assert counts["ok"] > 5000 and counts[NonPositiveMultiplicity] > 10000
    assert counts[InconsistentCluster] > 1000
    assert counts[EmptyRuptureSet] > 40


def test_satellite_n_is_a_multiple_of_its_free_point_n():
    # so the satellite value rule's n_p v_p' / n_p' is always an integer,
    # which lets the sweep divide exactly and keeps no error for the rule
    satellites = 0
    for seed in range(1000):
        tree = _grown_bp(seed).tree
        for p in tree.points():
            if tree.seconds[p] is not None:
                assert tree.ns[p] % tree.ns[tree.free_points[p]] == 0
                satellites += 1
    assert satellites > 20000


def test_recover_values_matches_pass_reference():
    counts = Counter()
    for seed in range(1000):
        bp = _grown_bp(seed)
        tree, inv = bp.tree, compute(bp)
        rng = random.Random(seed)
        for _ in range(10):
            rupture = frozenset(rng.sample(
                range(len(tree)), rng.randint(1, min(4, len(tree)))))
            singular = _downward_closure(tree, rupture)
            got = _outcome(recover_values, bp, inv, rupture, singular)
            want = _outcome(_reference_values, bp, inv, rupture, singular)
            assert got == want, (seed, rupture)
            counts[got[0]] += 1
    assert counts[WeightKind.VALUE] > 9000 and counts[EmptyRuptureSet] > 500



def test_recover_values_rejects_singular_set_not_downward_closed():
    # without one ancestor, the sweep reads a value that was never set; a
    # free point's value rule may fail on the gap first
    raised = Counter()
    for builder in (fb.ex04_bp, fb.ex06_bp, fb.ex07_bp):
        _, bp, _ = builder()
        result = recover(bp)
        inv = compute(bp)
        for x in result.singular - result.rupture:
            with pytest.raises(EnriquesError) as info:
                recover_values(bp, inv, result.rupture, result.singular - {x})
            raised[type(info.value)] += 1
    assert raised == {NotDownwardClosed: 13, EmptyRuptureSet: 8}
    for seed in range(300):  # random rupture sets, never a bare KeyError
        bp = _grown_bp(seed)
        tree, inv, rng = bp.tree, compute(bp), random.Random(seed)
        rupture = frozenset(rng.sample(range(len(tree)), min(3, len(tree))))
        singular = _downward_closure(tree, rupture)
        for x in singular - rupture:
            with pytest.raises(EnriquesError) as info:
                recover_values(bp, inv, rupture, singular - {x})
            raised[type(info.value)] += 1
    assert raised[NotDownwardClosed] > 1000


def test_recover_values_rejects_a_rupture_point_outside_the_singular_set():
    # the sweep visits the singular set only, and a rupture point above it
    # went unread
    for builder in (fb.ex04_bp, fb.ex06_bp, fb.ex07_bp):
        _, bp, _ = builder()
        result = recover(bp)
        inv = compute(bp)
        for x in result.singular:
            with pytest.raises(NotDownwardClosed,
                               match=f"rupture point {x} is not in"):
                recover_values(bp, inv, result.rupture | {x},
                               result.singular - {x})


def test_recover_values_rejects_unknown_and_broken_points():
    # point 3 repeats point 2's proximity pair, so the arena refuses it;
    # without it, 3 is the free child of 1 and 4 names no point
    records = [(None, None, None), (0, None, None), (1, 0, None),
               (1, 0, None), (1, None, None)]
    with pytest.raises(ArenaValidationError,
                       match="DuplicateSatellite at point 3"):
        ArenaTree.from_records(records)
    tree = ArenaTree.from_records(records[:3] + records[4:])
    bp = WeightedCluster(tree, WeightKind.VIRTUAL, {0: 2, 1: 1})
    inv = compute(bp)
    with pytest.raises(UnknownPoint, match="no point with id 4"):
        recover_values(bp, inv, frozenset({4}), frozenset({0, 1, 3, 4}))
    with pytest.raises(UnknownPoint, match="no point with id -1"):
        recover_values(bp, inv, frozenset({1}), frozenset({-1, 0, 1}))


def test_recover_values_rejects_a_broken_singular_point():
    # point 3 repeats point 2's proximity pair, so it could have no facts
    # and no m, and as a singular point that is no rupture point the sweep
    # would subtract from its missing value; the arena refuses it, and a
    # singular point that names no point is refused before the sweep
    records = [(None, None, None), (0, None, None), (1, 0, None),
               (1, 0, None), (1, None, None)]
    with pytest.raises(ArenaValidationError,
                       match="DuplicateSatellite at point 3"):
        ArenaTree.from_records(records)
    tree = ArenaTree.from_records(records[:3] + records[4:])
    bp = WeightedCluster(tree, WeightKind.VIRTUAL, {0: 2, 1: 1})
    with pytest.raises(UnknownPoint, match="no point with id 4"):
        recover_values(bp, compute(bp), frozenset({3}),
                       frozenset({0, 1, 3, 4}))


def _biggest_rupture_by_cone_reference(tree, rupture):
    """The map as a list per cone, then one max each, by fractions built
    from whole chains."""
    cones = {}
    for q in rupture:
        cones.setdefault(tree.free_points[q], []).append(q)
    return {p: max_by_fraction(tree, cone) for p, cone in cones.items()}


def test_cone_maxima_match_per_cone_max_under_prec():
    maps = shared = 0
    for seed in range(1500):
        tree = _grown_bp(seed).tree
        rng = random.Random(seed)
        for _ in range(6):
            rupture = frozenset(rng.sample(
                range(len(tree)), rng.randint(1, min(8, len(tree)))))
            want = _biggest_rupture_by_cone_reference(tree, rupture)
            assert _biggest_rupture_by_cone(tree, rupture) == want
            maps += 1
            shared += len(want) < len(rupture)
    assert maps == 9000 and shared > 3000


def _result_inputs():
    """Fresh base-point clusters on which recover succeeds or fails: random
    ones, the Euclid family and the golden fixtures."""
    for seed in range(3000):
        yield randgen.random_consistent_bp(seed, 10)
    for n in range(2, 30):
        for m in range(n + 1, 90):
            yield randgen.build_cluster(
                randgen.euclid_rows(m - 1, n - 1), WeightKind.VIRTUAL)[1]
    for builder in (fb.ex04_bp, fb.ex05_bp, fb.ex06_bp, fb.ex07_bp):
        yield builder()[1]


def test_adopted_result_clusters_equal_checked_ones():
    # the sweep's dicts become the result without the constructor's copy
    # and checks; building them checked gives equal clusters
    ok = Counter()
    for bp in _result_inputs():
        for run in (recover, recover_grouped):
            try:
                result = run(bp)
            except EnriquesError:
                continue
            for cluster in (result.values, result.multiplicities):
                assert WeightedCluster(cluster.tree, cluster.kind,
                                       dict(cluster.weight)) == cluster
            # the quotient postcondition that no run checks: the walk
            # stops only where m/n equals the invariant
            inv = compute(bp)
            for assoc in result.association.values():
                assert inv.height_quotient(assoc.rupture_point) == \
                    assoc.invariant
            ok[run] += 1
    assert min(ok.values()) > 2000

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


@pytest.mark.parametrize("n, j, created", [
    pytest.param(4000, 2, 3999, id="2-3999"),
    pytest.param(4000, 3, 1999, id="3-1999"),
    (40000, 2, 39999), (40000, 3, 19999)])
def test_deep_polar_walk(n, j, created):
    bp = _polar_bp(n, j)
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
