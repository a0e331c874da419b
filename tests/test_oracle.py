import dataclasses
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from enriques import (
    ArenaTree,
    WeightKind,
    WeightedCluster,
    canonical_form,
    invariant_quotient,
    is_consistent,
    noether_pairing,
    parse,
    recover,
    rupture_points,
    rupture_quotients,
    serialize,
    unibranch_chain,
)
from enriques.errors import NegativeResidual, UnknownPoint

import fixture_builders as fb
import randgen
from arena_reference import point_by_point
from chain_reference import (
    branch_clusters,
    chain_inside,
    check_growth,
    compare_point_to_branch_reference,
    max_by_fraction,
)
from paper_reference import (
    first_satellite, free_count_first_neighbourhood, validate_curve_cluster)
from randgen import random_curve
from run_arenas import RUN_CASES, run_cases, run_curve

import workloads  # noqa: E402  (on the path that run_arenas sets)


def _outcome(f, *args):
    try:
        return f(*args)
    except NegativeResidual:
        return NegativeResidual


def _perturbed(curve, rng):
    """An ancestor-closed cluster near ``curve`` that need not be consistent.

    Grows the arena by a few satellite walks, then keeps most curve points
    and some points outside the curve, with weights moved by up to 2.
    """
    tree = curve.tree
    randgen.grow_by_satellite_walks(tree, rng, walks=2, max_steps=6)
    weights = {}
    for p in tree.points():
        parent = tree.parent(p)
        keep = 0.95 if p in curve else 0.5
        if parent is None or (parent in weights and rng.random() < keep):
            weights[p] = max(1, curve.get(p, 1) + rng.randint(-2, 2))
    return WeightedCluster(tree, WeightKind.MULTIPLICITY, weights)


def test_free_counts_and_rupture_points_match_scan_reference():
    # a point is a rupture point when its free count reaches 2, or 1 at a
    # satellite, and rupture_points refuses a cluster with a negative count
    checked = negative = 0
    for seed in range(1000):
        curve = random_curve(seed)
        for cluster in (curve, _perturbed(curve, random.Random(seed))):
            seconds = cluster.tree.seconds
            counts = {p: _outcome(free_count_first_neighbourhood, cluster, p)
                      for p in cluster.points}
            checked += len(counts)
            got = _outcome(rupture_points, cluster)
            if NegativeResidual in counts.values():
                assert got is NegativeResidual, seed
                negative += 1
                continue
            for p, count in counts.items():
                assert (p in got) == (
                    count >= (2 if seconds[p] is None else 1)), (seed, p)
    assert checked > 12000 and negative > 500


def test_free_counts_ex04():
    tree, curve, names = fb.ex04_curve()
    assert free_count_first_neighbourhood(curve, names["O"]) == 1
    assert free_count_first_neighbourhood(curve, names["p3"]) == 0
    assert free_count_first_neighbourhood(curve, names["p4"]) == 0
    assert free_count_first_neighbourhood(curve, names["p5"]) == 1


def test_free_counts_ex06():
    tree, curve, names = fb.ex06_curve()
    assert free_count_first_neighbourhood(curve, names["p2"]) == 0
    assert free_count_first_neighbourhood(curve, names["p3"]) == 0
    # one branch leaves right after each of the five rupture points
    for l in ("p4", "p5", "p9", "p10", "p11"):
        assert free_count_first_neighbourhood(curve, names[l]) == 1


def test_rupture_points_on_curves():
    for builder, expected in [
        (fb.ex04_curve, {"p5"}),
        (fb.ex06_curve, {"p4", "p5", "p9", "p10", "p11"}),
        (fb.ex07_curve, {"p4", "p5", "p7", "p8", "p13", "p14"}),
        (fb.y5x8_curve, {"p4"}),
    ]:
        tree, curve, names = builder()
        got = {tree.labels[q] for q in rupture_points(curve)}
        assert got == expected, builder.__name__


def test_invariant_quotients():
    tree, curve, names = fb.ex04_curve()
    assert invariant_quotient(curve, names["O"]) == 3
    assert invariant_quotient(curve, names["p5"]) == 11
    assert invariant_quotient(curve, names["p4"]) == Fraction(21, 2)

    tree8, curve8, names8 = fb.y5x8_curve()
    assert invariant_quotient(curve8, names8["p3"]) == 8
    assert invariant_quotient(curve8, names8["p1"]) == 8
    assert invariant_quotient(curve8, names8["p4"]) == 8


def _quotient_by_chain(curve, p):
    """Reference: the definition, through the chain cluster of p."""
    chain = unibranch_chain(curve.tree, p)
    return Fraction(noether_pairing(curve, chain), chain[curve.tree.origin])


def test_quotient_matches_chain_reference_at_every_arena_point():
    # the random curves record no run; the run curves take the run step
    # wherever the walk meets a recorded run, inside the curve or not
    inside = outside = 0
    cases, in_runs = Counter(), Counter()
    curves = [(seed, random_curve(seed)) for seed in range(500)]
    curves += [(seed, run_curve(seed)) for seed in range(150)]
    for seed, curve in curves:
        for cluster in (curve, _perturbed(curve, random.Random(seed))):
            for p in cluster.tree.points():
                got = invariant_quotient(cluster, p)
                assert type(got) is Fraction
                assert got == _quotient_by_chain(cluster, p), (seed, p)
                if p in cluster:
                    inside += 1
                else:
                    outside += 1
                if cluster.tree._run_of(p) is not None:
                    in_runs[p in cluster] += 1
        cases.update(run_cases(curve))
        for bad in (-1, len(curve.tree), True, None):
            with pytest.raises(UnknownPoint):
                invariant_quotient(curve, bad)
    assert inside > 6000 and outside > 1500
    assert in_runs[True] > 2000 and in_runs[False] > 5000, in_runs
    assert min(cases[case] for case in RUN_CASES) > 10, cases


def test_quotient_matches_chain_reference_on_recovered_fixtures():
    for builder in (fb.ex04_bp, fb.ex05_bp, fb.ex06_bp, fb.ex07_bp):
        _, bp, _ = builder()
        result = recover(bp)
        for cluster in (result.values, result.multiplicities):
            for p in cluster.tree.points():
                assert invariant_quotient(cluster, p) == \
                    _quotient_by_chain(cluster, p), (builder.__name__, p)


def test_polar_invariants_sets():
    def polar_invariants(curve):
        return set(rupture_quotients(curve).values())

    _, curve4, _ = fb.ex04_curve()
    assert polar_invariants(curve4) == {Fraction(11)}
    _, curve6, _ = fb.ex06_curve()
    assert polar_invariants(curve6) == {
        Fraction(79), Fraction(236, 3), Fraction(694, 9),
        Fraction(230, 3), Fraction(72),
    }
    _, curve7, _ = fb.ex07_curve()
    assert polar_invariants(curve7) == {
        Fraction(132), Fraction(129), Fraction(799, 7),
        Fraction(225, 2), Fraction(543, 4), Fraction(678, 5),
    }


def test_polar_invariants_local():
    tree, curve, names = fb.ex07_curve()
    at_p2 = set(rupture_quotients(curve, names["p2"]).values())
    assert at_p2 == {Fraction(132), Fraction(129), Fraction(799, 7),
                     Fraction(225, 2)}
    at_p10 = set(rupture_quotients(curve, names["p10"]).values())
    assert at_p10 == {Fraction(543, 4), Fraction(678, 5)}
    # quotients within one cone are pairwise distinct
    assert len(at_p2) == 4 and len(at_p10) == 2


def test_ids_that_are_no_curve_point_raise():
    # a label, a bool (True == 1 as a dict key) or an id outside the arena
    # names no point, so no oracle call answers for one
    _, curve, _ = fb.ex07_curve()
    for bad in (999, -1, "p10", True):
        with pytest.raises(UnknownPoint):
            invariant_quotient(curve, bad)
        with pytest.raises(UnknownPoint):
            rupture_quotients(curve, bad)


def _local_quotients_by_filter(curve, p):
    """Reference: the filter and the per-point quotients that the local
    polar invariants and ``enriques invariants --local`` ran before
    :func:`rupture_quotients`."""
    free_points = curve.tree.free_points
    return {q: invariant_quotient(curve, q) for q in rupture_points(curve)
            if q == p or free_points[q] == p}


def test_rupture_quotients_match_invariant_quotient():
    curves = [builder()[1] for builder in (
        fb.ex04_curve, fb.ex06_curve, fb.ex07_curve, fb.y5x8_curve)]
    curves += [random_curve(seed) for seed in range(1500)]
    curves += [run_curve(seed) for seed in range(150)]
    checked = 0
    cases = Counter()
    for curve in curves:
        cases.update(run_cases(curve))
        got = rupture_quotients(curve)
        assert list(got) == sorted(rupture_points(curve))
        for q, quotient in got.items():
            assert type(quotient) is Fraction
            assert quotient == invariant_quotient(curve, q), q
        checked += len(got)
    assert checked > 6000
    assert min(cases[case] for case in RUN_CASES) > 10, cases


def test_local_rupture_quotients_match_filter_reference():
    for builder in (fb.ex06_curve, fb.ex07_curve):
        tree, curve, _ = builder()
        locals_ = [rupture_quotients(curve, p) for p in curve.points]
        for p, got in zip(curve.points, locals_):
            assert got == _local_quotients_by_filter(curve, p), p
        assert set().union(*locals_) == rupture_points(curve)


def test_rupture_quotients_on_deep_comb():
    # one sweep per rupture point made this quadratic: every comb point is
    # a rupture point
    curve, chain = _comb(20000)
    start = time.perf_counter()
    got = rupture_quotients(curve)
    elapsed = time.perf_counter() - start
    assert list(got) == chain
    assert got[chain[0]] == 20002
    assert got[chain[-1]] == invariant_quotient(curve, chain[-1])
    assert elapsed < 2.0


def test_quotient_outside_cluster_counts_missing_points_as_zero():
    tree, curve, names = fb.ex04_curve()
    stray = tree.add_point(names["p2"])
    assert not chain_inside(curve, stray)
    assert invariant_quotient(curve, stray) == 9  # = I at p2


def test_branch_decomposition():
    tree, curve, names = fb.ex06_curve()
    branches = branch_clusters(curve)
    assert len(branches) == 5
    tops = sorted(max(b.points) for b in branches)
    assert tops == sorted(names[l] for l in ("p4", "p5", "p9", "p10", "p11"))


def _has_bigger_branch(curve, q):
    return any(compare_point_to_branch_reference(curve.tree, q, b)
               for b in branch_clusters(curve))


def test_has_bigger_branch():
    tree, curve, names = fb.ex04_curve()
    assert _has_bigger_branch(curve, names["p4"])       # 1/2 < 2/3
    assert not _has_bigger_branch(curve, names["p5"])   # the branch itself


def test_has_bigger_branch_matches_chain_reference():
    # the growth check on a valid curve, a perturbed and often inconsistent
    # cluster, and arbitrary weights on every point, all on one arena grown
    # by walks and by free points on top of them: it finds nothing on the
    # curve and reports only strings on the others
    samples = inconsistent = 0
    for seed in range(480):
        curve = random_curve(seed)
        rng = random.Random(seed)
        tree = curve.tree
        randgen.grow_past_cones(tree, rng)
        perturbed = _perturbed(curve, rng)
        arbitrary = WeightedCluster(tree, WeightKind.MULTIPLICITY, {
            p: rng.randint(1, 9) for p in tree.points()})
        clusters = (curve, perturbed, arbitrary)
        for cluster in clusters:
            inconsistent += not is_consistent(cluster)
            pairs = [(first_satellite(tree, p), p) for p in cluster.points
                     if p != tree.origin and tree.seconds[p] is None]
            found = check_growth(cluster, pairs)
            assert found == [] if cluster is curve else \
                all(isinstance(v, str) for v in found)
            samples += len(pairs)
    assert samples > 8000
    assert inconsistent > 600


def _comb(length):
    """The comb curve: a free chain of ``length`` points, multiplicity
    length - i + 2 at depth i, so one branch leaves at every point (three
    at the last)."""
    tree = ArenaTree()
    chain = [tree.add_point()]
    for _ in range(length - 1):
        chain.append(tree.add_point(chain[-1]))
    curve = WeightedCluster(tree, WeightKind.MULTIPLICITY, {
        p: length - i + 2 for i, p in enumerate(chain)})
    return curve, chain


def test_check_growth_on_deep_comb():
    # one chain cluster per leaving branch per sample made this cubic
    curve, chain = _comb(400)
    tree = curve.tree
    samples = [(first_satellite(tree, p), p) for p in chain[1:]]
    start = time.perf_counter()
    found = check_growth(curve, samples)
    elapsed = time.perf_counter() - start
    assert found == []
    assert elapsed < 2.0


def test_check_growth_on_example_triples():
    tree, curve, names = fb.ex04_curve()
    assert check_growth(curve, [(names["p4"], names["p5"])]) == []
    # strictness of both inequalities on this sample
    assert invariant_quotient(curve, names["p2"]) \
        < invariant_quotient(curve, names["p4"]) \
        < invariant_quotient(curve, names["p5"])


def test_check_growth_equality_off_the_curve():
    tree, curve, names = fb.ex04_curve()
    stray = tree.add_point(names["p2"], label="off")
    sat = first_satellite(tree, stray)
    assert check_growth(curve, [(sat, stray)]) == []
    assert invariant_quotient(curve, sat) == \
        invariant_quotient(curve, names["p2"])


def test_check_growth_equality_y5x8():
    tree, curve, names = fb.y5x8_curve()
    assert check_growth(curve, [(names["p3"], names["p1"])]) == []
    assert invariant_quotient(curve, names["p3"]) == \
        invariant_quotient(curve, names["p1"])


def test_check_growth_reports_violations():
    # break the curve by hand: p4's multiplicity above its parent's
    tree, curve, names = fb.ex04_curve()
    q1, q2 = names["p4"], names["p5"]
    expected = {
        4: [f"equality I({q1}) = I({q2}) disagrees with branches"
            f" bigger than {q1}"],
        5: [f"I({q1}) > I({q2})"],
    }
    for weight, violations in expected.items():
        tweaked = WeightedCluster(tree, WeightKind.MULTIPLICITY, {
            **dict(curve.weight), q1: weight,
        })
        assert check_growth(tweaked, [(q1, q2)]) == violations


def test_refined_bound_at_free_point_with_one_leaving_branch():
    # a smooth branch leaves at p2 while a second branch continues into the
    # satellite cone: the biggest cone rupture point q then satisfies
    # I(p2) - 1/n(p2) < I(q) < I(p2)
    tree = ArenaTree()
    o = tree.add_point(label="O")
    p1 = tree.add_point(o, label="p1")
    p2 = tree.add_point(p1, label="p2")
    p3 = tree.add_point(p2, p1, label="p3")
    p4 = tree.add_point(p3, p2, label="p4")
    p5 = tree.add_point(p4, p3, label="p5")
    curve = WeightedCluster(tree, WeightKind.MULTIPLICITY, {
        o: 6, p1: 6, p2: 4, p3: 2, p4: 1, p5: 1,
    })
    assert validate_curve_cluster(curve) == []
    assert free_count_first_neighbourhood(curve, p2) == 1
    q = max_by_fraction(tree, rupture_points(curve))
    assert q == p5
    i_p2 = invariant_quotient(curve, p2)
    i_q = invariant_quotient(curve, q)
    n_p2 = unibranch_chain(tree, p2)[o]
    assert i_p2 - Fraction(1, n_p2) < i_q < i_p2
    assert (i_p2, i_q) == (Fraction(16), Fraction(78, 5))


def test_validate_curve_cluster_accepts_fixtures():
    for builder in (fb.ex04_curve, fb.ex06_curve, fb.ex07_curve,
                    fb.y5x8_curve):
        _, curve, _ = builder()
        assert validate_curve_cluster(curve) == []


def test_validate_curve_cluster_flags_problems():
    tree = ArenaTree()
    o = tree.add_point()
    p1 = tree.add_point(o)
    smooth = WeightedCluster(tree, WeightKind.MULTIPLICITY, {o: 1, p1: 1})
    codes = {d.code for d in validate_curve_cluster(smooth)}
    assert "NotSaturated" in codes
    assert "NotSingular" in codes
    inconsistent = WeightedCluster(
        tree, WeightKind.MULTIPLICITY, {o: 2, p1: 3})
    codes = {d.code for d in validate_curve_cluster(inconsistent)}
    assert "Inconsistent" in codes


def test_random_curve_is_deterministic_and_valid():
    a = random_curve(7)
    b = random_curve(7)
    assert dict(a.weight) == dict(b.weight)
    for seed in range(50):
        curve = random_curve(seed)
        assert validate_curve_cluster(curve) == []


def test_oracle_closes_the_loop_with_recovery():
    for builder in (fb.ex04_bp, fb.ex05_bp, fb.ex06_bp, fb.ex07_bp):
        _, bp, _ = builder()
        result = recover(bp)
        curve = result.multiplicities
        assert rupture_points(curve) == set(result.rupture)
        for assoc in result.association.values():
            assert invariant_quotient(curve, assoc.rupture_point) == \
                assoc.invariant


class _CountedReads(list):
    """A column that counts the reads of its entries."""

    reads = 0

    def __getitem__(self, p):
        self.reads += 1
        return super().__getitem__(p)


def _counted_quotient_and_form(curve, last, monkeypatch):
    """The quotient at ``last`` and the canonical form of ``curve``, and
    the reads of the seconds column that each makes."""
    tree = curve.tree
    quotient_reads = _CountedReads(tree.seconds)
    monkeypatch.setattr(tree, "seconds", quotient_reads)
    quotient = invariant_quotient(curve, last)
    form_reads = _CountedReads(tree.seconds)
    monkeypatch.setattr(tree, "seconds", form_reads)
    form = canonical_form(curve)
    monkeypatch.undo()
    return quotient, form, (quotient_reads.reads, form_reads.reads)


def test_run_steps_keep_the_quotient_and_form_work_constant(monkeypatch):
    # counted work, no clock: on the polars of y^n = x^(1 + j(n-1)) the
    # walk records one run f..last, f = j + 1, of about n/(j-1) points;
    # the curve holds it whole, and its last point is the rupture point.
    # The quotient's walk and the encoder read the seconds column once per
    # point they visit one at a time, and neither grows with n.  The
    # quotient visits last, whose run step takes the piece f..last, then
    # the j + 1 points below f: j free points and one satellite.  The
    # encoder visits last, whose run step takes last-1..f+1, then f and
    # the j + 1 points below it
    expected = {2: (4, 5), 3: (5, 6)}
    for j in (2, 3):
        for n in (4000, 40000):
            _, bp = parse(workloads.polar(n, j))
            result = recover(bp)
            tree, curve = bp.tree, result.multiplicities
            (f, last), = tree._runs.items()
            assert f == j + 1 and last - f >= n // 3
            assert set(curve.weight) == set(range(last + 1))
            (assoc,) = result.association.values()
            assert assoc.rupture_point == last
            quotient, form, counts = _counted_quotient_and_form(
                curve, last, monkeypatch)
            # the same curve on an arena built point by point, which
            # records no run
            plain = WeightedCluster(
                point_by_point(tree), curve.kind, curve.weight)
            assert not plain.tree._runs
            assert quotient == invariant_quotient(plain, last)
            assert quotient == assoc.invariant
            assert form == canonical_form(plain)
            assert counts == expected[j], (j, n, counts)


def test_held_documents_take_their_runs_whole(monkeypatch):
    # counted work, no clock: the polar document written back after recover
    # holds the walk's run, and parse records it by the arena's index rule
    # as the walk did, so it costs the pair index 2 entries at every n, the
    # quotient and the form are the fresh curve's and read the seconds
    # column as often, and recover on it gives the fresh result and trace
    for n in (1000, 16000):
        tree, bp = parse(workloads.polar(n, 2))
        trace = []
        result = recover(bp, trace.append)
        (assoc,) = result.association.values()
        last = assoc.rupture_point
        held_tree, held_bp = parse(serialize(tree, bp))
        assert (held_tree.parents, held_tree.seconds) == (
            tree.parents, tree.seconds)
        assert len(held_tree._satellite_index) == 2
        assert held_tree._runs == tree._runs and tree._runs
        held_trace = []
        held = recover(held_bp, held_trace.append)
        assert held_trace == trace
        # the fresh result, its clusters on the held arena of equal records
        assert held.same_result(dataclasses.replace(result, **{
            name: WeightedCluster(held_tree, cluster.kind, cluster.weight)
            for name, cluster in (("values", result.values),
                                  ("multiplicities", result.multiplicities))}))
        fresh = _counted_quotient_and_form(
            result.multiplicities, last, monkeypatch)
        assert fresh[2] == (4, 5) and fresh == _counted_quotient_and_form(
            held.multiplicities, last, monkeypatch), n


def _timed_rupture_points(curve):
    start = time.perf_counter()
    ruptures = rupture_points(curve)
    return ruptures, time.perf_counter() - start


def test_rupture_points_on_deep_free_chain():
    tree = ArenaTree()
    chain = [tree.add_point()]
    for _ in range(4999):
        chain.append(tree.add_point(chain[-1]))
    curve = WeightedCluster(
        tree, WeightKind.MULTIPLICITY, {p: 2 for p in chain})
    ruptures, elapsed = _timed_rupture_points(curve)
    assert ruptures == {chain[-1]}
    assert elapsed < 2.0


def test_rupture_points_on_wide_fan():
    # 1,000 free chains of three points on one origin
    tree = ArenaTree()
    o = tree.add_point()
    weights = {o: 2000}
    tops = set()
    for _ in range(1000):
        p = o
        for _ in range(3):
            p = tree.add_point(p)
            weights[p] = 2
        tops.add(p)
    curve = WeightedCluster(tree, WeightKind.MULTIPLICITY, weights)
    ruptures, elapsed = _timed_rupture_points(curve)
    assert ruptures == tops | {o}
    assert elapsed < 2.0
