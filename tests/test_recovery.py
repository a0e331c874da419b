import copy
import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import starmap
from pathlib import Path

import pytest

from enriques import (
    ArenaTree,
    DicriticalAssociation,
    MorphismInvariants,
    RecoveryResult,
    WeightKind,
    WeightedCluster,
    are_similar,
    base_free_point,
    compute,
    dicritical_invariant,
    dicritical_points,
    excesses,
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
from enriques import arena, recovery
from enriques.arena import CHAIN_CROSSOVER
from enriques.recovery import (
    _biggest_rupture_by_cone,
    _downward_closure,
    _second_half,
)
from enriques.errors import (
    ArenaMismatch,
    ArenaValidationError,
    Diagnostic,
    DuplicateSatellite,
    EmptyRuptureSet,
    EnriquesError,
    InconsistentCluster,
    NonPositiveMultiplicity,
    NoQualifyingPair,
    NotDicritical,
    NotDownwardClosed,
    RecoveryError,
    UnknownPoint,
    WalkDiverged,
)

import fixture_builders as fb
import randgen
from test_euclid import PAIRS, euclid_bp
from arena_reference import (
    check_index_rule, point_by_point, proximities, reference_facts,
    satellite_answers, scan_answers, triples)
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
    # quotients below p3 stay above 9, so 17/2 would keep the walk
    # descending for ever: the first move from the free p3 adds the share
    # of its parent p2, whose quotient 9 is above 17/2 as p3's 12 is, so
    # the start is not bracketed, and the walk refuses it before it traces
    # or creates anything (_stepwise_walk below creates 19, up to the cap
    # of 17 + 2 moves)
    size = len(tree)
    steps = []
    with pytest.raises(WalkDiverged):
        satellite_walk(tree, inv, names["p3"], Fraction(17, 2), steps.append)
    assert len(tree) == size
    assert steps == []


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
    check = arena._violations

    def spy(*point):
        calls.append(point)
        return check(*point)

    monkeypatch.setattr(arena, "_violations", spy)
    assert recover(bp).created and calls == []


@pytest.mark.parametrize("k", [8, 23, 60])
def test_a_short_run_costs_one_pair_index_entry(k, monkeypatch):
    # a fan's walks write only runs shorter than CHAIN_CROSSOVER, so its
    # arena records no run; the pair index still holds the parsed
    # satellites and one entry per run, answers every lookup as a scan of
    # the columns does, and a point inside a short run refuses a second
    # satellite with the run's proximity, leaving the arena as it was
    bp = _fan_bp(k)
    tree = bp.tree
    parsed = sum(s is not None for s in tree.seconds)
    runs = []
    append = ArenaTree._append_run

    def spy(self, a, s, t):
        last = append(self, a, s, t)
        runs.append((last - t + 1, last, s))
        return last

    monkeypatch.setattr(ArenaTree, "_append_run", spy)
    recover(bp)
    monkeypatch.undo()
    assert not tree._runs and any(first < last for first, last, _ in runs)
    assert len(tree._satellite_index) == parsed + len(runs)
    assert satellite_answers(tree) == scan_answers(tree)
    state = _state(tree)
    for first, last, s in runs:
        for x in range(first, last):
            assert (x, s) not in tree._satellite_index
            with pytest.raises(DuplicateSatellite):
                tree.add_point(x, s)
            assert _state(tree) == state and not tree._runs


@pytest.mark.parametrize("k", [8, 23, 60])
def test_recover_builds_one_fraction_per_distinct_invariant(k):
    result = recover(_fan_bp(k))
    invariants = [a.invariant for a in result.association.values()]
    assert len(set(invariants)) < len(invariants)  # fans repeat invariants
    assert len({id(i) for i in invariants}) == len(set(invariants))


@pytest.mark.parametrize("k", [8, 23, 60])
def test_excesses_are_counted_once_per_table(k):
    # a table counts bp's excesses in its m pass, when it is built, and
    # the points that walks append later carry no weight, so the table's
    # excesses stay those of cluster.excesses; recovery does not read
    # that function, which the oracle then shares with no recovery code
    assert not hasattr(recovery, "excesses")
    fixtures = [builder()[1] for builder in
                (fb.ex04_bp, fb.ex05_bp, fb.ex06_bp, fb.ex07_bp)]
    for bp in [_fan_bp(k), *fixtures]:
        want = excesses(bp)
        assert compute(bp)._excess == want
        inv = MorphismInvariants(bp)
        assert inv._excess == want
        size = len(bp.tree)
        assert recover(bp).created == frozenset(range(size, len(bp.tree)))
        inv._grow()  # over the points that recover appended
        assert len(inv.m) == len(bp.tree) and inv._excess == want


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


_AGREEING_COLUMNS = ("parents", "seconds", "ns", "ks")


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


def test_sweep_raises_the_first_empty_rupture_set_in_id_order():
    # the rupture points p2 and J are free points alone in their cones, so
    # the cone of p1 holds the satellite x = (p1, O) and no rupture point,
    # and so does the cone of H, a free point of x's first neighbourhood;
    # the sweep raises at x, the first of the two in id order
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o)
    p2 = tree.add_point(p1)
    x = tree.add_point(p1, o)
    h = tree.add_point(x)
    j = tree.add_point(tree.add_point(h, x))
    bp = WeightedCluster(tree, WeightKind.VIRTUAL, {o: 1})
    rupture = frozenset({p2, j})
    singular, _ = _downward_closure(tree, rupture)
    assert singular == frozenset(tree.points())
    with pytest.raises(EmptyRuptureSet) as info:
        recover_values(bp, compute(bp), rupture, singular)
    assert str(info.value) == (
        f"satellite point {x} has no rupture point in the cone of its"
        f" defining free point {p1}")


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


_COLUMNS = ("parents", "seconds", "labels", "free_points", "ns", "m0s", "ks")


def _assert_prefix(tree, inv, ref, ref_inv):
    """The arena and m table hold the reference's first len(tree) points."""
    size = len(tree)
    assert size <= len(ref)
    inv.extend_to(size - 1)  # catch up with the point added before the walk
    ref_inv.extend_to(len(ref) - 1)
    for name in _COLUMNS:
        assert getattr(tree, name) == getattr(ref, name)[:size], name
    got = satellite_answers(tree)  # the index's contract, not its entries
    assert got == [q if q is not None and q < size else None
                   for q in satellite_answers(ref)[:len(got)]]
    assert inv.m == ref_inv.m[:size]


def _walk_on_copy(walk, bp, p, invariant):
    """Walk on a copy of bp's arena; return (outcome, trace, arena, table).

    A free point appended after the m table was built leaves the table one
    point behind the arena, as any growth outside the walk does.  Both
    walks trace at most numerator + denominator + 1 entries, one per move
    up to the cap and the last, so the trace raises AssertionError past
    that: a walk that loses its way fails instead of running on.
    """
    tree = ArenaTree.from_records(triples(bp.tree))
    inv = MorphismInvariants(WeightedCluster(tree, bp.kind, bp.weight))
    tree.add_point(tree.origin)
    steps = []
    bound = invariant.numerator + invariant.denominator + 1

    def trace(entry):
        assert len(steps) < bound, f"more than {bound} trace entries"
        steps.append(entry)

    try:
        outcome = walk(tree, inv, p, invariant, trace)
    except (EnriquesError, LookupError) as err:  # the reference's lookups
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


def _start(tree, m, p, invariant):
    """How a walk from p to the invariant starts, read with fractions from
    the arena's columns and the m table: "bracketed" when m/n at p equals
    the invariant, or when the point that the satellite of p's first move
    is also proximate to has m/n strictly on the other side of it (p's
    parent for a free p above it, p's first or second proximity for a
    satellite p above or below it); "free second" for a free point below
    it, the origin included, "origin first" for the origin above it, and
    "same side" otherwise."""
    side = Fraction(m[p], tree.ns[p]) - invariant
    if side == 0:
        return "bracketed"
    pair = tree.facts(p).ordered_proximities
    if pair is None and side < 0:
        return "free second"
    s = tree.parents[p] if pair is None else pair[side < 0]
    if s is None:
        return "origin first"
    across = (Fraction(m[s], tree.ns[s]) - invariant) * side < 0
    return "bracketed" if across else "same side"


def test_satellite_walk_matches_stepwise_reference():
    # a bracketed start walks as the reference does; any other is refused
    # before the walk traces or appends anything, and the reference, which
    # checks no start, finds no point from it either
    counts = Counter()
    long_runs = 0
    for seed in range(300):
        bp = _grown_bp(seed)
        inv0 = compute(bp)
        for p, invariant in _walk_cases(bp, random.Random(seed)):
            want, ref_steps, ref, ref_inv = _walk_on_copy(
                _stepwise_walk, bp, p, invariant)
            start = _start(bp.tree, inv0.m, p, invariant)
            if start != "bracketed":
                size, steps = len(bp.tree), []
                with pytest.raises(WalkDiverged) as info:
                    satellite_walk(bp.tree, inv0, p, invariant, steps.append)
                num, den = invariant.numerator, invariant.denominator
                assert str(info.value) == str(
                    recovery._diverged(num, den, num + den, p))
                assert steps == [] and len(bp.tree) == size
                assert want in (WalkDiverged, LookupError), (seed, p)
                assert (want is LookupError) == (start != "same side")
                counts[start] += 1
                counts[WalkDiverged] += 1
                continue
            got, steps, tree, inv = _walk_on_copy(
                satellite_walk, bp, p, invariant)
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
    assert counts["free second"] > 50 and counts["origin first"] > 20
    assert long_runs > 150


def _bracket_check(inv, walks, seen):
    """A trace callback that asserts the bracket at each entry as the walk
    traces it, so that a walk which loses it fails at once instead of
    running on.  ``walks`` yields (start, invariant) for each walk in trace
    order, and a "stop" entry ends one.  The start must be bracketed (see
    :func:`_start`), and every later point must lie in the first
    neighbourhood of the one before, so its id is bigger, and have ordered
    proximities (lo, hi) with m/n strictly below the invariant at lo and
    strictly above it at hi.  m comes from ``inv``, a table over the walked
    arena that the callback extends itself; each entry goes to ``seen``."""
    tree, walk, last = inv.bp.tree, None, None

    def check(entry):
        nonlocal walk, last
        q, word = entry[0], entry[3]
        inv.extend_to(q)
        if walk is None:
            walk = next(walks)
            assert q == walk[0]
            assert _start(tree, inv.m, q, walk[1]) == "bracketed", walk
        else:
            assert q > last, (q, walk)
            lo, hi = (Fraction(inv.m[s], tree.ns[s])
                      for s in tree.facts(q).ordered_proximities)
            assert lo < walk[1] < hi, (q, walk)
        walk, last = (None if word == "stop" else walk), q
        seen.append(entry)
    return check


def test_walk_keeps_its_bracket_at_every_visited_point():
    # the proof in _satellite_walk's docstring, at every point that the
    # walks of recover over the sweep inputs visit, and at every point
    # that the public walk visits from the cases of the stepwise test,
    # whose starts that are not bracketed must trace nothing
    seen = []
    for make in _sweep_inputs():
        bp = make()
        try:
            inv = compute(bp)
        except InconsistentCluster:  # recover refuses it before any walk
            continue
        walks = {}  # recover's walks in its order, one per distinct pair
        for d in sorted(dicritical_points(bp) - {bp.tree.origin}):
            invariant = dicritical_invariant(bp, inv, d)
            walks[base_free_point(bp, inv, d, invariant)[1], invariant] = None
        walks = iter(walks)
        try:
            recover(bp, _bracket_check(inv, walks, seen))
        except EnriquesError:
            pass
        assert next(walks, None) is None
    assert sum(e[3] == "stop" for e in seen) > 30000 and len(seen) > 150000
    seen = []

    def walk(tree, inv, p, invariant, trace):
        return satellite_walk(tree, inv, p, invariant, _bracket_check(
            inv, iter([(p, invariant)]), seen))

    for seed in range(300):
        bp = _grown_bp(seed)
        for p, invariant in _walk_cases(bp, random.Random(seed)):
            _walk_on_copy(walk, bp, p, invariant)
    assert len(seen) > 30000


def test_walk_written_points_match_reference_facts(fixture_dir):
    # after recover, every point's facts, ordered proximities included,
    # equal the reference's derivation from the records alone: points of
    # both run writers, a long polar run and wide_fan's short ones, and
    # points the walk reaches by held moves in the fixtures
    texts = [workloads.polar(4000, 2)]
    texts += [document.text for document in workloads.wide_fan(1)]
    texts += [(fixture_dir / f"{name}_bp.json").read_text(encoding="utf-8")
              for name in ("ex04", "ex05", "ex06", "ex07")]
    ranged = short = held = 0
    for text in texts:
        tree, bp = parse(text)
        size, visited = len(tree), []
        created = recover(bp, visited.append).created
        ranged += sum(last - first + 1 for first, last in tree._runs.items())
        short += len(created)
        held += sum(q < size and tree.seconds[q] is not None
                    for q, *_ in visited)
        assert [tree.facts(q) for q in tree.points()] == \
            reference_facts(triples(tree))
    short -= ranged
    assert ranged > 3900 and short > 9000 and held > 30


def test_every_move_over_held_points_is_a_run_of_one(fixture_dir):
    # a document written after one recovery holds the points the walks
    # created, with weight 0; recovering it again makes every move over a
    # held point, a run of one, and traces and answers as the fresh run did
    texts = [(fixture_dir / f"{name}_bp.json").read_text(encoding="utf-8")
             for name in ("ex04", "ex05", "ex06", "ex07")]
    for pool in (workloads.golden_perturbed, workloads.polar_walk,
                 workloads.wide_fan):
        texts += [document.text for document in pool(1)]
    held = 0
    for text in texts:
        tree, bp = parse(text)
        fresh, again = [], []
        want = _outcome(recover, bp, fresh.append)
        held_tree, held_bp = parse(serialize(tree, bp))
        size = len(held_tree)
        got = _outcome(recover, held_bp, again.append)
        if len(want) > 3:  # a result, whose created points differ
            want, got = want[:-1], got[:-1]
        assert got == want and again == fresh and len(held_tree) == size
        held += sum(decision != "stop" for *_, decision in again)
    assert len(texts) == 1112 and held > 23000


def _lookups_and_run_writes(bp, monkeypatch):
    """Recover bp; return its trace and the calls of the arena's pair
    lookup and of its run writer that the recovery made."""
    calls = Counter()
    find, append = ArenaTree._find, ArenaTree._append_run

    def spy_find(self, a, s):
        calls["lookups"] += 1
        return find(self, a, s)

    def spy_append(self, a, s, t):
        calls["run writes"] += 1
        return append(self, a, s, t)

    monkeypatch.setattr(ArenaTree, "_find", spy_find)
    monkeypatch.setattr(ArenaTree, "_append_run", spy_append)
    trace = []
    recover(bp, trace.append)
    monkeypatch.undo()
    return trace, calls["lookups"], calls["run writes"]


def test_walk_looks_up_points_only_before_its_first_append(monkeypatch):
    # after a walk appends, its point is the arena's last and has no
    # satellite, so a fresh fan pays one lookup per walk that moves; the
    # document written back after one recovery holds every point, so
    # each move pays one lookup and nothing is written
    tree, bp = parse(workloads.fan(160, random.Random(160)))
    trace, lookups, writes = _lookups_and_run_writes(bp, monkeypatch)
    decisions = [decision for *_, decision in trace]
    moving = sum(word != "stop" and (i == 0 or decisions[i - 1] == "stop")
                 for i, word in enumerate(decisions))
    assert (lookups, writes) == (moving, 288) and moving == 154
    held_bp = parse(serialize(tree, bp))[1]
    again, lookups, writes = _lookups_and_run_writes(held_bp, monkeypatch)
    moves = sum(word != "stop" for word in decisions)
    assert again == trace and (lookups, writes) == (moves, 0) == (535, 0)
    _, lookups, writes = _lookups_and_run_writes(
        parse(workloads.polar(4000, 2))[1], monkeypatch)
    assert (lookups, writes) == (1, 2)


def _pool_documents_that_create(pool, count):
    """The first ``count`` documents of a seed-1 pool whose recovery
    succeeds and creates at least 2 points."""
    out = []
    for document in pool(1):
        try:
            created = recover(parse(document.text)[1]).created
        except EnriquesError:
            continue
        if len(created) > 1:
            out.append(document.text)
            if len(out) == count:
                break
    return out


def test_partly_held_documents_trace_and_answer_as_fresh():
    # a document written back after one recovery, cut to a prefix of the
    # points its walks created: recovering it walks over the held ones,
    # creates the rest, and traces and answers as the fresh document did
    texts = [workloads.polar(4000, 2), workloads.polar(300, 3),
             workloads.fan(160, random.Random(160))]
    texts += _pool_documents_that_create(workloads.golden_perturbed, 7)
    texts += _pool_documents_that_create(workloads.polar_walk, 7)
    texts += _pool_documents_that_create(workloads.wide_fan, 6)
    cuts = 0
    for text in texts:
        tree, bp = parse(text)
        size, fresh = len(tree), []
        want = _outcome(recover, bp, fresh.append)[:-1]
        doc = json.loads(serialize(tree, bp))
        points = doc["points"]
        made = len(points) - size
        for c in sorted({1, made // 4, made // 3, made // 2,
                         2 * made // 3, made - 1}):
            doc["points"] = points[:size + c]
            cut_tree, cut_bp = parse(json.dumps(doc))
            again = []
            got = _outcome(recover, cut_bp, again.append)
            assert got[:-1] == want and again == fresh
            assert len(got[-1]) == made - c and len(cut_tree) == len(tree)
            cuts += 1
    assert len(texts) == 23 and cuts == 110


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
        singular, _ = _downward_closure(tree, rupture)
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
    """Factories of fresh base-point clusters: random ones, the
    perturbations of the golden fixtures, then polar and Euclid ones whose
    sweep meets the runs that the walk records."""
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
    for n in (12, 17, 40):
        for j in (2, 3, 4):
            yield lambda n=n, j=j: parse(workloads.polar(n, j))[1]
    for seed in range(200):
        yield partial(_weighted_polar, seed)
    for seed in range(100):
        yield partial(_polar_with_a_branching_proximity, seed)
    for m, n in PAIRS:
        yield lambda m=m, n=n: euclid_bp(m, n)[1]


def _recovered_polar(n, j):
    """The base points of the polars of y^n = x^(1 + j(n-1)), recovered
    once, so that their arena holds the runs the walk wrote as ranges."""
    _, bp = parse(workloads.polar(n, j))
    recover(bp)
    return bp


def _recovered_euclid(m, n):
    """The base points of the polars of y^n = x^m, recovered once, so
    that their arena holds the runs the walk wrote as ranges; their
    satellite rule scales the first points of some runs."""
    _, bp = euclid_bp(m, n)
    recover(bp)
    return bp


def _walked_twice(n, j, weights):
    """A recovered polar arena, walked again by the recovery of other
    weights on its free points, whose walks leave the first run inside
    it: the cone then holds runs on both paths."""
    bp = _recovered_polar(n, j)
    recover(WeightedCluster(bp.tree, WeightKind.VIRTUAL, weights))
    return bp


def _weighted_polar(seed):
    """Random consistent weights over a recovered polar arena.  They
    weight the points of its runs, so the sweep visits one by one each
    run that bp weights after its second point f + 1; a run whose only
    weighted point after f is f + 1 still has its piece after f + 1
    taken.  They also move the walks, which may stop inside a run."""
    rng = random.Random(seed)
    tree = _recovered_polar(rng.choice((12, 20, 33)), rng.choice((2, 3))).tree
    excess = {p: rng.randint(0, 1) for p in tree.points()}
    excess[len(tree) - 1] = 1
    return WeightedCluster(tree, WeightKind.VIRTUAL,
                           randgen.weights_from_excesses(tree, excess))


def _polar_with_a_branching_proximity(seed):
    """A recovered polar arena whose first run f.. has second proximity
    p1, with a new free child of p1 and weights on it, on f and below f.
    The free child in S gives p1 the value m, so every multiplicity after
    f's in the run is 0, while f's weight can keep f's own at 1 or more."""
    rng = random.Random(seed)
    tree = _recovered_polar(rng.choice((12, 20, 33)), 2).tree
    f = next(iter(tree._runs))
    child = tree.add_point(tree.seconds[f])
    excess = {p: rng.randint(0, 4) for p in range(f) if rng.random() < 0.5}
    excess.update({f: rng.randint(1, 3), child: rng.randint(1, 3)})
    return WeightedCluster(tree, WeightKind.VIRTUAL,
                           randgen.weights_from_excesses(tree, excess))


def _run_cases(bp, rupture, singular, low=None, values=None):
    """The cases of the sweep's run step that bp's arena meets.

    For each recorded run whose first point f lies in S, with f..e the
    run's points in S and e > f: "weighted" when bp weights a point of
    f+1..e (the sweep then visits the run one by one, or, when f+1 is
    the only one, takes the piece after f+1), else "taken", and
    then "strict prefix" when e is not the run's last point, "rupture
    inside" for a rupture point strictly between f and e, "flip inside"
    when the order test against the biggest rupture point q of the cone
    answers differently at f+1 and at e, and "low inside" when ``low``,
    the point of the first multiplicity below 1, lies in f+1..e.  Given
    the ``values`` of a result, "scaled from the first point" when the
    satellite rule scales f+1 (the test holds there and V_F n_q = n_F v_q
    at f's defining free point F), and then "flip back" when the test
    fails at e and e is not q, so some point after the flip is not q."""
    tree, cases = bp.tree, set()
    ns, ks = tree.ns, tree.ks
    biggest = _biggest_rupture_by_cone_reference(tree, rupture)
    for f, last in tree._runs.items():
        prefix = [p for p in range(f, last + 1) if p in singular]
        if len(prefix) < 2:
            continue
        e = prefix[-1]
        assert prefix == list(range(f, e + 1))
        if any(bp.get(p, 0) for p in prefix[1:]):
            cases.add("weighted")
            continue
        cases.add("taken")
        if e < last:
            cases.add("strict prefix")
        if any(f < r < e for r in rupture):
            cases.add("rupture inside")
        free = tree.free_points[f]
        q = biggest.get(free)
        if q is not None:
            first, at_e = (ks[p] * ns[q] > ks[q] * ns[p] for p in (f + 1, e))
            if first != at_e:
                cases.add("flip inside")
            if (values is not None and first
                    and values[free] * ns[q] == ns[free] * values[q]):
                cases.add("scaled from the first point")
                if not at_e and e != q:
                    cases.add("flip back")
        if low is not None and f < low <= e:
            cases.add("low inside")
    return cases


def _recover_run_cases(bp, outcome):
    """:func:`_run_cases` of a recover outcome, whose rupture set an error
    carries in its association."""
    if len(outcome) == 3:
        error, message, association = outcome
        rupture = frozenset(a.rupture_point
                            for a in (association or {}).values())
        low = (int(message.rsplit(" ", 1)[1])
               if error is NonPositiveMultiplicity else None)
        values = None
    else:
        rupture, low, values = outcome[0], None, outcome[3]
    return _run_cases(bp, rupture, _downward_closure(bp.tree, rupture)[0],
                      low, values)


def test_one_sweep_second_half_matches_pass_reference():
    counts, runs = Counter(), Counter()
    for make in _sweep_inputs():
        want = _outcome(_reference_recover, make())
        for run in (recover, recover_grouped):
            bp = make()
            got = _outcome(run, bp)
            assert got == want
            counts[got[0] if len(got) == 3 else "ok"] += 1
        runs.update(_recover_run_cases(bp, got))
    assert counts["ok"] > 5000 and counts[NonPositiveMultiplicity] > 10000
    # the sweep sees a negative excess at the write that makes it one, on
    # each of the 589 inputs whose recovered multiplicities the reference
    # finds inconsistent, through both names
    assert counts[InconsistentCluster] == 2 * 589
    assert counts[EmptyRuptureSet] > 40
    # no walk of recover is refused at its start or cut by its cap (see
    # _satellite_walk)
    assert WalkDiverged not in counts
    assert runs["taken"] > 400 and runs["weighted"] > 100
    assert runs["low inside"] > 30 and runs["rupture inside"] > 10
    assert runs["flip inside"] > 8
    assert runs["scaled from the first point"] > 40
    assert runs["strict prefix"] > 30


class _RunLookups(dict):
    """A run record that keeps the points looked up in it, counts the
    lookups and fails when it is read whole."""

    def __init__(self, runs):
        super().__init__(runs)
        self.looked = set()
        self.lookups = 0

    def _look(self, p):
        self.looked.add(p)
        self.lookups += 1

    def __contains__(self, p):
        self._look(p)
        return super().__contains__(p)

    def __getitem__(self, p):
        self._look(p)
        return super().__getitem__(p)

    def get(self, p, default=None):
        self._look(p)
        return super().get(p, default)

    def _whole(self, *args):
        raise AssertionError("the sweep read the whole run record")

    __iter__ = items = keys = values = _whole


def test_sweep_reads_the_run_record_only_at_points_of_s(monkeypatch):
    # the sweep looks the parent of a visited satellite, a point of S, up
    # in the run record and reads nothing else of it, so a recorded run
    # outside S costs it nothing
    polar = _recovered_polar(40, 2)
    twice = _walked_twice(33, 3, {0: 13, 1: 4})
    cases = [(polar, frozenset({2})),  # below the run 3..40
             (polar, frozenset({40})),  # the run's last point
             (WeightedCluster(twice.tree, WeightKind.VIRTUAL, {0: 13, 1: 4}),
              frozenset({0, 23}))]  # another path than the run 4..18
    outside = taken = 0
    for bp, rupture in cases:
        tree, m = bp.tree, compute(bp).m
        singular, branching = _downward_closure(tree, rupture)
        values, mults, rejected = _second_half(tree, m, rupture, singular,
                                               branching)
        assert rejected is None
        runs = _RunLookups(tree._runs)
        monkeypatch.setattr(tree, "_runs", runs)
        assert _second_half(tree, m, rupture, singular, branching) == (
            values, mults, None)
        monkeypatch.undo()
        assert runs.looked <= singular
        starts = {f for f in dict.keys(runs) if f in singular}
        assert starts <= runs.looked
        taken += len(starts)
        outside += len(dict.keys(runs) - singular)
    assert taken == 1 and outside == 2


class _CountedReads(list):
    """A column that counts the reads of its entries."""

    reads = 0

    def __getitem__(self, p):
        self.reads += 1
        return super().__getitem__(p)


def test_run_shortcuts_keep_the_closure_and_sweep_work_constant(monkeypatch):
    # counted work, no clock: the walk's runs on the polars of
    # y^n = x^(1 + j(n-1)) grow with n, but the closure adds a recorded run
    # as one range and the sweep takes its piece at once, so neither the
    # closure's point-by-point steps nor the sweep's visits (one read of
    # the seconds column each) nor its run-record lookups grow with n.  The
    # counts are exact: below the run f.. lie the j free points and one
    # satellite, f = j + 1, so the closure steps over those j + 1 points,
    # the sweep visits them and f and f+1, and it looks the run record up
    # at its three satellites and once more for the run's last point.
    # From f itself the closure goes point by point: f is no point after
    # a run's first, and is added with the points below it
    expected = {2: (3, 5, 4), 3: (4, 6, 4)}
    for j in (2, 3):
        for n in (4000, 40000):
            _, bp = parse(workloads.polar(n, j))
            rupture = recover(bp).rupture
            tree, m = bp.tree, compute(bp).m
            assert max(last - f for f, last in tree._runs.items()) >= n // 3
            closure_reads = _CountedReads(tree.seconds)
            monkeypatch.setattr(tree, "seconds", closure_reads)
            singular, branching = _downward_closure(tree, rupture)
            sweep_reads = _CountedReads(tree.seconds)
            runs = _RunLookups(tree._runs)
            monkeypatch.setattr(tree, "seconds", sweep_reads)
            monkeypatch.setattr(tree, "_runs", runs)
            _, _, rejected = _second_half(tree, m, rupture, singular,
                                          branching)
            monkeypatch.undo()
            assert rejected is None
            counts = (closure_reads.reads, sweep_reads.reads, runs.lookups)
            assert counts == expected[j], (j, n, counts)
            (f, _), = tree._runs.items()
            assert f == j + 1
            first_reads = _CountedReads(tree.seconds)
            monkeypatch.setattr(tree, "seconds", first_reads)
            closed, _ = _downward_closure(tree, {f})
            monkeypatch.undo()
            assert closed == frozenset(range(f + 1))
            assert first_reads.reads == f + 1


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


def _sweep_values(bp, inv, rupture, singular):
    """The sweep's values whatever its verdict, which ``recover_values``
    raises: the value rules on rupture sets that no curve has.  S must be
    a downward closure; the sweep still raises :class:`EmptyRuptureSet`."""
    tree = bp.tree
    inv._grow()
    _, branching = _downward_closure(tree, singular)
    values, _, _ = _second_half(tree, inv.m, rupture, singular, branching)
    return WeightedCluster(tree, WeightKind.VALUE, values)


def _reference_values_verdict(bp, inv, rupture, singular):
    """The reference passes' values, once their verdict is clean."""
    _reference_verdict(bp, inv, rupture, singular)
    return _reference_values(bp, inv, rupture, singular)


def test_recover_values_matches_pass_reference():
    # the values of every rupture set, rejected or not, through the sweep,
    # and recover_values' verdict on them, which raises the sweep's
    counts, verdicts, runs = Counter(), Counter(), Counter()
    polar = [_recovered_polar(n, j) for n in (12, 17, 25, 40) for j in (2, 3)]
    polar += [_walked_twice(n, j, {0: a, 1: b}) for n in (20, 33)
              for j in (2, 3) for a, b in ((7, 5), (13, 4), (29, 28))]
    polar += [_weighted_polar(seed) for seed in range(8)]
    polar += [bp for bp in starmap(_recovered_euclid, PAIRS) if bp.tree._runs]
    for seed, bp in enumerate([_grown_bp(seed) for seed in range(1000)]
                              + polar):
        tree, inv = bp.tree, compute(bp)
        rng = random.Random(seed)
        for _ in range(10 if seed < 1000 else 50):
            rupture = frozenset(rng.sample(
                range(len(tree)), rng.randint(1, min(4, len(tree)))))
            singular, _ = _downward_closure(tree, rupture)
            got = _outcome(_sweep_values, bp, inv, rupture, singular)
            want = _outcome(_reference_values, bp, inv, rupture, singular)
            assert got == want, (seed, rupture)
            counts[got[0]] += 1
            verdict = _outcome(recover_values, bp, inv, rupture, singular)
            assert verdict == _outcome(_reference_values_verdict, bp, inv,
                                       rupture, singular), (seed, rupture)
            verdicts[verdict[0]] += 1
            runs.update(_run_cases(
                bp, rupture, singular,
                values=got[1] if got[0] is WeightKind.VALUE else None))
    assert counts[WeightKind.VALUE] > 9000 and counts[EmptyRuptureSet] > 500
    assert verdicts[NonPositiveMultiplicity] > 12000
    assert verdicts[WeightKind.VALUE] > 4500
    assert verdicts[InconsistentCluster] > 20
    assert runs["taken"] > 700 and runs["weighted"] > 250
    assert runs["rupture inside"] > 400 and runs["flip inside"] > 10
    assert runs["strict prefix"] > 4000
    assert runs["scaled from the first point"] > 60 and runs["flip back"] > 12



def _polar_with_a_weighted_second_point(seed):
    """A recovered polar arena whose first run f.. has second proximity
    p1, with a new free child of p1 and weights on it, on the run's second
    point f+1 and below f.  The free child in S gives p1 the value m, so
    every multiplicity after f+1's in the run is 0, while f+1's weight can
    keep its own at 1 or more; the sweep takes the piece after f+1."""
    rng = random.Random(seed)
    tree = _recovered_polar(rng.choice((12, 20, 33)), 2).tree
    f = next(iter(tree._runs))
    child = tree.add_point(tree.seconds[f])
    excess = {p: rng.randint(0, 4) for p in range(f) if rng.random() < 0.5}
    excess.update({f + 1: rng.randint(1, 3), child: rng.randint(1, 3)})
    return WeightedCluster(tree, WeightKind.VIRTUAL,
                           randgen.weights_from_excesses(tree, excess))


def _polar_with_a_free_child_on_its_run(seed):
    """A recovered polar arena whose first run f.. gets a new free child of
    its second point f+1 or of a later one, with weights below f.  A
    rupture set that holds the child holds the run in S up to the child's
    parent, past the run's other rupture points: the sweep's piece then
    takes the run's share off the excess of its second proximity, and the
    child takes its own off its parent's."""
    rng = random.Random(seed)
    tree = _recovered_polar(rng.choice((12, 20, 33)), 2).tree
    f, last = next(iter(tree._runs.items()))
    tree.add_point(rng.choice((f + 1, rng.randint(f + 2, last))))
    excess = {p: rng.randint(0, 4) for p in range(f) if rng.random() < 0.5}
    excess[f - 1] = rng.randint(1, 3)
    return WeightedCluster(tree, WeightKind.VIRTUAL,
                           randgen.weights_from_excesses(tree, excess))


def _polar_with_an_empty_piece(n, excess):
    """A recovered polar(n, 2) arena, whose first run 3.. has the free
    point 1 as its second proximity and rises towards it in its cone, with
    two new points over the run's second point b = 4: the satellite
    x = (b+1, b), whose k/n lies between b's and b+1's, and a free child
    G of b; and weights from ``excess``, which must weight b and no point
    after it.  With the rupture set {x, G}, x is its cone's biggest
    rupture point, so the order test flips at b+1 from below x to above
    it, and the piece after b is empty.  With ``excess`` 8 mod 9 at point
    1, V_1 n_x = n_1 m_x, so the points above x take the scaled value."""
    tree = _recovered_polar(n, 2).tree
    assert next(iter(tree._runs)) == 3 and tree.seconds[3] == 1
    g, x = tree.add_point(4), tree.add_point(5, 4)
    return (WeightedCluster(tree, WeightKind.VIRTUAL,
                            randgen.weights_from_excesses(tree, excess)),
            frozenset({x, g}))


def _sweep_verdict(tree, m, rupture, singular, branching):
    """The sweep's multiplicities, or the error it returns or raises."""
    _, mults, rejected = _second_half(tree, m, rupture, singular, branching)
    if rejected is not None:
        raise rejected
    return WeightedCluster(tree, WeightKind.MULTIPLICITY, mults)


def _reference_verdict(bp, inv, rupture, singular):
    """The same by the reference passes: values, conversion, consistency."""
    multiplicities = multiplicities_from_values(
        _reference_values(bp, inv, rupture, singular))
    if not is_consistent(multiplicities):
        raise InconsistentCluster(
            "recovered multiplicities are not consistent; the input is"
            " not a cluster of polar base points")
    return multiplicities


def test_sweep_verdict_matches_reference_on_random_rupture_sets():
    # recover meets only the rupture sets its walks find, and
    # recover_values raises the sweep's verdict without its multiplicities:
    # here the verdict and the multiplicities meet random rupture sets over
    # arenas with recorded runs, among them pieces that follow a weighted
    # second point and hold multiplicities below 1
    arenas = [_recovered_polar(n, j) for n in (12, 17, 25, 40)
              for j in (2, 3)]
    arenas += [_walked_twice(n, j, {0: a, 1: b}) for n in (20, 33)
               for j in (2, 3) for a, b in ((7, 5), (13, 4), (29, 28))]
    arenas += [_weighted_polar(seed) for seed in range(20)]
    arenas += [_polar_with_a_branching_proximity(seed) for seed in range(20)]
    arenas += [_polar_with_a_weighted_second_point(seed)
               for seed in range(20)]
    arenas += [_polar_with_a_free_child_on_its_run(seed)
               for seed in range(60)]
    verdicts = Counter()
    for seed, bp in enumerate(arenas):
        tree, inv, rng = bp.tree, compute(bp), random.Random(seed)
        for _ in range(60):
            rupture = frozenset(rng.sample(range(len(tree)),
                                           rng.randint(1, 4)))
            if rng.random() < 0.5:  # the last point: a child or a run's end
                rupture |= {len(tree) - 1}
            singular, branching = _downward_closure(tree, rupture)
            got = _outcome(_sweep_verdict, tree, inv.m, rupture, singular,
                           branching)
            assert got == _outcome(_reference_verdict, bp, inv, rupture,
                                   singular), (seed, rupture)
            verdicts[got[0]] += 1
    # a free child G of the point 5 inside the piece 5..7 of a polar(40,
    # 2) arena's run, with R = {7, G}: 40 mod 7 != 0, so no point takes
    # the scaled value, the multiplicity of each of 2..7 is floor(40 / 7)
    # and G's is 1, and 5's excess, its multiplicity less 6's and G's, is
    # -1.  The piece leaves 5's excess at the 0 of the zero-filled list,
    # and G's visit takes it below 0
    bp = _recovered_polar(40, 2)
    tree = bp.tree
    child = tree.add_point(5)
    inv, rupture = compute(bp), frozenset({7, child})
    singular, branching = _downward_closure(tree, rupture)
    got = _outcome(_sweep_verdict, tree, inv.m, rupture, singular, branching)
    assert got == _outcome(_reference_verdict, bp, inv, rupture, singular)
    assert got[0] is InconsistentCluster
    # an empty piece after a weighted b: b's excess ends at w_b - 1 >= 0,
    # and would end at -1 if the empty piece's writes set it to rest, so
    # the sweep would call a consistent result inconsistent
    for n in (12, 20, 33):
        for excess in ({1: 8, 4: 1}, {0: 2, 1: 17, 4: 3}):
            bp, rupture = _polar_with_an_empty_piece(n, excess)
            tree, inv = bp.tree, compute(bp)
            singular, branching = _downward_closure(tree, rupture)
            got = _outcome(_sweep_verdict, tree, inv.m, rupture, singular,
                           branching)
            assert got == _outcome(_reference_verdict, bp, inv, rupture,
                                   singular)
            assert got[0] is WeightKind.MULTIPLICITY, (n, excess, got)
            verdicts[got[0]] += 1
    assert verdicts[WeightKind.MULTIPLICITY] > 2000
    assert verdicts[NonPositiveMultiplicity] > 5000
    assert verdicts[InconsistentCluster] > 10


def _run_above_its_second_proximity():
    """A hand-built arena whose recorded run 4..15 goes from point 3
    towards point 2, a satellite in the cone of the free point 1.  3 lies
    above 2 in the cone (k/n 2/3 against 1/2), and so does every point of
    the run, whose k/n falls towards 2's.  With weights 2 and 1 on the
    origin and on 1, m_2 = 8 is even, so V_1 = m_2 / 2 and V_1 n_2 =
    n_1 m_2: with 2 the cone's biggest rupture point, every point above
    it takes the scaled value."""
    tree = ArenaTree()
    origin = tree.add_point()
    free = tree.add_point(origin)
    s = tree.add_point(free, origin)
    a = tree.add_point(s, free)
    tree._append_run(a, s, CHAIN_CROSSOVER + 2)
    return WeightedCluster(tree, WeightKind.VIRTUAL, {origin: 2, free: 1})


def _order_test_terms(tree, q, b):
    """The piece's order test at a run's second point b against q: g(b) =
    k_b n_q - k_q n_b, and its step, g's change per point of the run."""
    ns, ks, a, s = tree.ns, tree.ks, tree.parents[b], tree.seconds[b]
    return (ks[b] * ns[q] - ks[q] * ns[b],
            (ks[b] - ks[a]) * ns[q] - ks[q] * ns[s])


def test_piece_on_a_run_towards_its_cones_biggest_rupture_point():
    # the order test's step is 0 exactly when the run's second proximity s
    # is the cone's biggest rupture point q, since distinct points of a
    # cone have distinct fractions: the test then never flips along the
    # run, and the piece runs to e, from below q (a polar arena's run
    # rises towards its free point 1) and from above it (a hand-built run
    # falls towards its satellite 2), each with V_F n_q = n_F m_q; S is
    # the closure of the run's point 10
    cases = [(_recovered_polar(40, 2), -1),
             (_run_above_its_second_proximity(), 1)]
    for bp, side in cases:
        tree, inv = bp.tree, compute(bp)
        f = next(iter(tree._runs))
        s = tree.seconds[f]
        rupture = frozenset({s})
        g, step = _order_test_terms(tree, s, f + 1)
        assert step == 0 and g * side > 0
        singular, _ = _downward_closure(tree, {10})
        got = _sweep_values(bp, inv, rupture, singular)
        assert got == _reference_values(bp, inv, rupture, singular)
        assert "taken" in _run_cases(bp, rupture, singular,
                                     values=got.weight)
        if side > 0:  # the points above q take the scaled value
            assert "scaled from the first point" in _run_cases(
                bp, rupture, singular, values=got.weight)


def _run_in_the_cone_of_a_free_point_after_a_satellite():
    """A hand-built arena: the satellite 2 = (1, O), its free child F = 3,
    so n_F = 2, and a recorded run 4..15 from F towards its parent 2, so
    n_s = 2.  The run lies in F's cone, where 2 is not, so k stays 1
    along it while n grows by 2: its points fall in the cone.  Weights
    8, 4, 4 and 4 on O, 1, 2 and F make bp consistent; with q = 7 in R,
    q - 2 = 5 divides w_F + 1, which gives V_F n_q = n_F m_q."""
    tree = ArenaTree()
    origin = tree.add_point()
    p1 = tree.add_point(origin)
    s = tree.add_point(p1, origin)
    free = tree.add_point(s)
    tree._append_run(free, s, CHAIN_CROSSOVER + 2)
    return WeightedCluster(tree, WeightKind.VIRTUAL,
                           {origin: 8, p1: 4, s: 4, free: 4})


def test_piece_flip_and_step_read_every_share_of_the_run():
    # the order test's step is (s's k share) n_q - k_q n_s, and a scaled
    # piece grows by d = n_s V_F / n_F.  On a polar(40, 2) arena the run
    # 3..40 goes towards the free point 1, so every run point adds 1's k,
    # 1, to k: with q = 5, which divides n = 40 and so gives V_1 n_q =
    # n_1 m_q, the test flips from below q to above it at q, and the
    # points after q take the scaled value.  A step that dropped the k
    # share's product with n_q would miss the flip and give them m
    bp = _recovered_polar(40, 2)
    tree, inv = bp.tree, compute(bp)
    rupture = frozenset({5})
    singular, _ = _downward_closure(tree, {10})
    g, step = _order_test_terms(tree, 5, 4)
    assert tree.ks[4] - tree.ks[3] == 1 and (g, step) == (-1, 1)
    got = _sweep_values(bp, inv, rupture, singular)
    assert got == _reference_values(bp, inv, rupture, singular)
    assert "flip inside" in _run_cases(bp, rupture, singular)
    m = inv.m
    assert [got[p] for p in range(4, 11)] == [
        *m[4:6], *(tree.ns[p] * got[1] for p in range(6, 11))]
    assert got[6] != m[6]
    # in the cone of a free point F with n_F = 2, on a run towards s with
    # n_s = 2, the test flips back from above q = 7 to below it: g = 4 at
    # b = 5 and step = -2, so the piece is 6..6, the last point above q.
    # Each of n_s, n_F and the division by -step decides a value there
    bp = _run_in_the_cone_of_a_free_point_after_a_satellite()
    tree, inv = bp.tree, compute(bp)
    rupture = frozenset({1, 7})
    singular, _ = _downward_closure(tree, {8})
    assert tree.ns[3] == tree.ns[2] == 2
    assert _order_test_terms(tree, 7, 5) == (4, -2)
    got = _sweep_values(bp, inv, rupture, singular)
    assert got == _reference_values(bp, inv, rupture, singular)
    assert "flip back" in _run_cases(bp, rupture, singular,
                                     values=got.weight)
    m = inv.m
    assert [got[p] for p in range(4, 9)] == [
        *(tree.ns[p] * got[3] // 2 for p in range(4, 7)), m[7], m[8]]
    assert got[6] != m[6]


def test_recover_values_rejects_singular_set_not_downward_closed():
    # without one ancestor, the sweep would read a value that was never
    # set, or take a run whole across the gap; the check before the sweep
    # names the missing point, which has a child in the set, since every
    # point of the closure outside R lies below a rupture point.  Without
    # two consecutive ancestors x and its parent a, the closure of S adds
    # both, and the message names the lower one, a, even where S holds no
    # other child of a
    def check(bp, inv, rupture, singular):
        raised = pairs = 0
        parents = bp.tree.parents
        inner = singular - rupture
        for x in inner:
            with pytest.raises(NotDownwardClosed, match=f"lacks point {x}$"):
                recover_values(bp, inv, rupture, singular - {x})
            raised += 1
            a = parents[x]
            if a in inner:
                with pytest.raises(NotDownwardClosed,
                                   match=f"lacks point {a}$"):
                    recover_values(bp, inv, rupture, singular - {x, a})
                pairs += 1
        return raised, pairs

    raised = pairs = 0
    for builder in (fb.ex04_bp, fb.ex06_bp, fb.ex07_bp):
        _, bp, _ = builder()
        result = recover(bp)
        counts = check(bp, compute(bp), result.rupture, result.singular)
        raised, pairs = raised + counts[0], pairs + counts[1]
    assert raised == 21 and pairs == 17
    for seed in range(300):  # random rupture sets
        bp = _grown_bp(seed)
        tree, inv, rng = bp.tree, compute(bp), random.Random(seed)
        rupture = frozenset(rng.sample(range(len(tree)), min(3, len(tree))))
        singular, _ = _downward_closure(tree, rupture)
        counts = check(bp, inv, rupture, singular)
        raised, pairs = raised + counts[0], pairs + counts[1]
    assert raised > 1000 and pairs > 3000
    # a gap inside the run that the walk wrote: the sweep, trusting S to
    # hold a prefix of the run, would take the run whole
    bp = parse(workloads.polar(120, 2))[1]
    result = recover(bp)
    singular = sorted(result.singular)
    middle = singular[len(singular) // 2]
    assert any(f < middle - 1 < last for f, last in bp.tree._runs.items())
    inv = compute(bp)
    with pytest.raises(NotDownwardClosed, match=f"lacks point {middle}$"):
        recover_values(bp, inv, result.rupture, result.singular - {middle})
    with pytest.raises(NotDownwardClosed,
                       match=f"lacks point {middle - 1}$"):
        recover_values(bp, inv, result.rupture,
                       result.singular - {middle - 1, middle})


def test_a_recorded_run_costs_one_pair_index_entry():
    # counted work, no clock: the walk's runs on the polars of y^n = x^(2n-1)
    # grow with n, but each run written as ranges enters the pair index by
    # its first point alone, so the index does not grow; every lookup still
    # answers as on the same records appended point by point, with a full
    # index, and every run point before the last refuses a second satellite
    # with the run's proximity
    entries = set()
    for n in (1000, 16000):
        _, bp = parse(workloads.polar(n, 2))
        recover(bp)
        tree = bp.tree
        assert max(last - f for f, last in tree._runs.items()) >= n // 2
        full = point_by_point(tree)
        assert len(full._satellite_index) == sum(
            s is not None for s in tree.seconds)
        assert satellite_answers(tree) == satellite_answers(full)
        size = len(tree)
        for f, last in tree._runs.items():
            s = tree.seconds[f]
            for x in range(f, last):
                with pytest.raises(DuplicateSatellite):
                    tree.add_point(x, s)
                assert len(tree) == size
        entries.add(len(tree._satellite_index))
    assert len(entries) == 1


def test_every_writer_keeps_the_index_rule(monkeypatch):
    # one rule, whoever writes: each arena's pair index and run record are
    # what a scan of its columns names, given where each write began.  A
    # parse or a from_records call is one write, and so is each add_point
    # call and each run the walk appends; so an arena built by add_point
    # (random grown trees and Euclid clusters) keeps a full index and no
    # run, and from_records rebuilds it in one write
    starts = []
    append = ArenaTree._append_run

    def spy(self, a, s, t):
        starts.append(len(self))
        return append(self, a, s, t)

    monkeypatch.setattr(ArenaTree, "_append_run", spy)
    counts = Counter()
    for seed in (1, 2, 3):
        for pool in workloads.WORKLOADS.values():
            for document in pool(seed):
                tree, bp = parse(document.text)
                counts["parse"] += check_index_rule(tree)
                starts[:] = [0]
                try:
                    recover(bp)
                except EnriquesError:
                    pass
                counts["walk"] += check_index_rule(tree, set(starts))
                held = parse(serialize(tree, bp))[0]
                counts["held"] += check_index_rule(held)
                assert held._satellite_index == tree._satellite_index
                assert held._runs == tree._runs
    built = [_grown_bp(seed).tree for seed in range(300)]
    built += [randgen.build_cluster(randgen.euclid_rows(m, n),
                                    WeightKind.MULTIPLICITY)[0]
              for m, n in ((233, 144), (799, 400), (1001, 100))]
    for tree in built:
        assert check_index_rule(tree, range(len(tree))) == 0
        copy = ArenaTree.from_records(triples(tree))
        counts["from_records"] += check_index_rule(copy)
    # the pools' documents hold no chain of CHAIN_CROSSOVER points; written
    # back after recover, each holds the index and the runs of the arena
    # that recover left
    assert counts == {"parse": 0, "walk": 151, "held": 151,
                      "from_records": 3}


def test_unchecked_lookup_answers_as_find_satellite():
    # the walk looks its points up with ArenaTree._find, which trusts its
    # ids; on every (point, proximity) pair of recovered golden, fan and
    # polar arenas it answers as the checked find_satellite, and the pair
    # of the last point reaches past the arena's end; find_satellite still
    # answers None for an id that is no arena point
    arenas, pairs = [], 0
    for builder in (fb.ex04_bp, fb.ex05_bp, fb.ex06_bp, fb.ex07_bp):
        arenas.append(builder()[1])
    arenas += [_fan_bp(k) for k in (8, 23, 60)]
    arenas += [parse(workloads.polar(n, j))[1] for n in (12, 40, 300)
               for j in (2, 3)]
    for bp in arenas:
        recover(bp)
        tree = bp.tree
        answers = satellite_answers(tree)
        assert satellite_answers(tree, tree._find) == answers
        pairs += len(answers)
        q = max(p for p in tree.points() if tree.seconds[p] is not None)
        a, s, size = tree.parents[q], tree.seconds[q], len(tree)
        assert tree.find_satellite(a, s) == q
        for bad in (float(a), -1, -size, size, size + 1):
            assert tree.find_satellite(bad, s) is None
        for bad in (float(s), -1, -size, size, size + 1):
            assert tree.find_satellite(a, bad) is None
        for bad in (True, False):
            assert tree.find_satellite(bad, 0) is None
            assert tree.find_satellite(1, bad) is None
    assert any(bp.tree._runs for bp in arenas)
    assert any(not bp.tree._runs for bp in arenas)
    assert pairs > 2000


def _pool_arenas():
    """The base points of the benchmark's seed-1 pools, recovered once:
    every tenth golden_perturbed input and the polar_walk and wide_fan
    inputs up to a size."""
    texts = [inp.text for inp in workloads.golden_perturbed(1)[::10]]
    texts += [inp.text for inp in workloads.polar_walk(1)
              if int(inp.name.rsplit("=", 1)[1]) <= 200]
    texts += [inp.text for inp in workloads.wide_fan(1)
              if int(inp.name.rsplit("=", 1)[1]) <= 60]
    for text in texts:
        bp = parse(text)[1]
        try:
            recover(bp)
        except EnriquesError:
            pass
        yield bp


def test_closure_returns_the_branching_points_of_s():
    # runs are satellites, so the closure adds every free point of S on its
    # own and records its parent there: the set that the sweep's value rule
    # for free points reads
    with_runs = without = 0
    for seed, bp in enumerate(_pool_arenas()):
        tree, rng = bp.tree, random.Random(seed)
        parents, seconds = tree.parents, tree.seconds
        samples = [frozenset(rng.sample(range(len(tree)), min(k, len(tree))))
                   for k in (1, 3, 8)]
        samples.append(frozenset({len(tree) - 1}))
        for points in samples:
            singular, branching = _downward_closure(tree, points)
            assert points <= singular
            assert branching == {parents[c] for c in singular
                                 if seconds[c] is None}
        with_runs += bool(tree._runs)
        without += not tree._runs
    assert with_runs > 20 and without > 100


def _recorded_runs(tree):
    """The number of runs the arena records, once each is checked against
    the columns: f+1..last are the children of f..last-1, f..last share
    one second proximity, and ``_firsts`` lists the first points."""
    parents, seconds = tree.parents, tree.seconds
    assert tree._firsts == [*tree._runs]
    for f, last in tree._runs.items():
        assert f + CHAIN_CROSSOVER - 1 <= last < len(tree)
        assert parents[f + 1:last + 1] == [*range(f, last)]
        assert seconds[f] is not None
        assert seconds[f:last + 1] == [seconds[f]] * (last - f + 1)
    return len(tree._runs)


def test_every_run_record_matches_the_columns():
    # the oracle's chain walk and the canonical encoder trust the record
    # as they trust the columns, so every run it names must be one
    counts = Counter()
    for make in _sweep_inputs():
        bp = make()
        try:
            recover(bp)
        except EnriquesError:
            pass
        counts["sweep"] += _recorded_runs(bp.tree)
    for seed in (1, 2, 3):
        for name, pool in workloads.WORKLOADS.items():
            for document in pool(seed):
                bp = parse(document.text)[1]
                try:
                    recover(bp)
                except EnriquesError:
                    pass
                counts[name] += _recorded_runs(bp.tree)
    # the selection of the run steps: polar arenas nearly all record a
    # run, golden ones rarely, fan ones never
    assert counts == {"sweep": 1263, "polar_walk": 148,
                      "golden_perturbed": 3, "wide_fan": 0}


def test_recover_values_rejects_a_rupture_point_outside_the_singular_set(
        monkeypatch):
    # the sweep visits the singular set only, and a rupture point above it
    # went unread; the check comes before the closure of S is taken
    def closure(*args):
        raise AssertionError("the closure ran before R <= S was checked")

    cases = []
    for builder in (fb.ex04_bp, fb.ex06_bp, fb.ex07_bp):
        _, bp, _ = builder()
        cases.append((bp, recover(bp), compute(bp)))
    monkeypatch.setattr(recovery, "_downward_closure", closure)
    for bp, result, inv in cases:
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
    # the known answer, the Euclid cluster of y^n = x^(1 + j(n-1)): it
    # checks the run pieces the sweep writes in closed form against the
    # curve itself, which the oracle's closure below does not
    _, known = randgen.build_cluster(
        randgen.euclid_rows(1 + j * (n - 1), n), WeightKind.MULTIPLICITY)
    assert are_similar(result.multiplicities, known)
    curve = result.multiplicities
    assert rupture_points(curve) == result.rupture
    for assoc in result.association.values():
        assert invariant_quotient(curve, assoc.rupture_point) == \
            assoc.invariant
    assert recover_grouped(bp).same_result(result)
