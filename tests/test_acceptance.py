"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  All comparisons are exact; the only tolerances are the wall-clock
bounds stated per criterion."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from enriques import (
    WeightKind,
    WeightedCluster,
    canonical_form,
    compute,
    invariant_quotient,
    is_consistent,
    noether_pairing,
    parse,
    recover,
    recover_grouped,
    rupture_points,
    self_intersection,
    unibranch_chain,
    values_from_multiplicities,
    multiplicities_from_values,
)
from enriques.cli import main as cli_main
from enriques.errors import EnriquesError
import fixture_builders as fb
import randgen
from chain_reference import (
    PrecComparison,
    branch_clusters,
    chain_inside,
    compare_point_to_branch_reference,
    fraction_at,
    max_by_fraction,
    prec_compare_reference,
)
from paper_reference import (
    child_list, first_satellite, jacobian_multiplicity_check,
    second_satellite)
from randgen import random_curve

F = Fraction


def _report(number: int, name: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"\nACCEPTANCE {number} ({name}): {verdict}")
            return False

    return _Reporter()


def _labels(tree, points):
    return {tree.label(p) for p in points}


def _run_recover(builder):
    tree, bp, names = builder()
    start = time.perf_counter()
    result = recover(bp)
    elapsed = time.perf_counter() - start
    return tree, bp, names, result, elapsed


def test_criterion_1_cusp_with_generic_term(fixture_dir):
    with _report(1, "perturbed cusp: exact recovery"):
        text = (fixture_dir / "ex04_bp.json").read_text()
        tree, bp = parse(text)
        start = time.perf_counter()
        result = recover(bp)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1
        assert _labels(tree, result.singular) == \
            {"O", "p1", "p2", "p3", "p4", "p5"}
        assert _labels(tree, result.rupture) == {"p5"}
        by_label = {tree.label(p): p for p in result.singular}
        order = ["O", "p1", "p2", "p3", "p4", "p5"]
        assert [result.values[by_label[l]] for l in order] == \
            [3, 6, 9, 11, 21, 33]
        assert [result.multiplicities[by_label[l]] for l in order] == \
            [3, 3, 3, 2, 1, 1]
        assert len(result.association) == 2
        assert all(a.invariant == 11 for a in result.association.values())


def test_criterion_2_equisingular_curves_dissimilar_base_points(fixture_dir, capsys):
    with _report(2, "equisingular curves, dissimilar base points"):
        _, bp4 = parse((fixture_dir / "ex04_bp.json").read_text())
        _, bp5 = parse((fixture_dir / "ex05_bp.json").read_text())
        r4, r5 = recover(bp4), recover(bp5)
        assert canonical_form(r4.multiplicities) == \
            canonical_form(r5.multiplicities)
        assert canonical_form(r4.values) == canonical_form(r5.values)
        code = cli_main([
            "compare", str(fixture_dir / "ex04_bp.json"),
            str(fixture_dir / "ex05_bp.json"), "--mode", "similar"])
        capsys.readouterr()
        assert code == 1


def test_criterion_3_five_branch_example():
    with _report(3, "five single-exponent branches: exact recovery"):
        tree, bp, names, result, elapsed = _run_recover(fb.ex06_bp)
        assert elapsed < 0.1
        invariants = sorted(a.invariant for a in result.association.values())
        assert invariants == sorted(
            [F(79), F(79), F(236, 3), F(694, 9), F(230, 3), F(72)])
        assert _labels(tree, result.rupture) == \
            {"p4", "p5", "p9", "p10", "p11"}
        order = ["O", "p1", "p2", "p3", "p4", "p5",
                 "p6", "p7", "p8", "p9", "p10", "p11"]
        assert [result.values[names[l]] for l in order] == \
            [32, 64, 79, 155, 236, 316, 223, 381, 538, 694, 288, 920]
        assert [result.multiplicities[names[l]] for l in order] == \
            [32, 32, 15, 12, 2, 1, 4, 3, 2, 1, 1, 1]


def test_criterion_4_two_exponent_example():
    with _report(4, "branches with two exponents: exact recovery"):
        tree, bp, names, result, elapsed = _run_recover(fb.ex07_bp)
        assert elapsed < 0.1
        invariants = sorted(a.invariant for a in result.association.values())
        assert invariants == sorted([
            F(132), F(132), F(129), F(799, 7), F(225, 2), F(543, 4),
            F(678, 5)])
        assert _labels(tree, result.rupture) == \
            {"p4", "p5", "p7", "p8", "p13", "p14"}
        values = {tree.label(p): v for p, v in result.values.weight.items()}
        assert values == {
            "O": 50, "p1": 100, "p2": 132, "p3": 245, "p4": 387,
            "p5": 528, "p6": 348, "p7": 450, "p8": 799, "p9": 537,
            "p10": 543, "p11": 1083, "p12": 1628, "p13": 2172, "p14": 2712,
        }
        for v in (2172, 2712, 1083, 1628, 348, 245):
            assert v in values.values()


def test_criterion_5_variant_agreement():
    with _report(5, "grouped scheduling agrees with the basic run"):
        for builder in (fb.ex04_bp, fb.ex05_bp, fb.ex06_bp, fb.ex07_bp):
            _, bp, _ = builder()
            basic = recover(bp)
            assert recover_grouped(bp).same_result(basic)

        cases = 0
        plan = [(fb.ex04_bp, 350), (fb.ex05_bp, 250),
                (fb.ex06_bp, 250), (fb.ex07_bp, 150)]
        for builder, count in plan:
            tree0, bp0, _ = builder()
            base_weights = dict(bp0.weight)
            for i in range(count):
                rng = random.Random(i * 7919 + count)
                tree = tree0.clone()
                weights = randgen.perturb_weights(
                    tree, base_weights, rng, tweaks=6)
                bp = WeightedCluster(tree, WeightKind.VIRTUAL, weights)
                assert is_consistent(bp)
                try:
                    basic = recover(bp)
                except EnriquesError as err:
                    with pytest.raises(type(err)):
                        recover_grouped(bp)
                    cases += 1
                    continue
                assert recover_grouped(bp).same_result(basic)
                cases += 1
        assert cases >= 1000


def test_criterion_6_oracle_closure():
    with _report(6, "forward oracle reproduces invariants and ruptures"):
        for builder in (fb.ex04_bp, fb.ex05_bp, fb.ex06_bp, fb.ex07_bp):
            _, bp, _ = builder()
            result = recover(bp)
            curve = result.multiplicities
            assert rupture_points(curve) == set(result.rupture)
            for assoc in result.association.values():
                assert chain_inside(curve, assoc.rupture_point)
                assert invariant_quotient(curve, assoc.rupture_point) == \
                    assoc.invariant


# -- criterion 7: eight bulk property suites, >= 1000 cases each, < 10 s ----


def _suite_round_trip() -> int:
    cases = 0
    for seed in range(1000):
        cluster = randgen.random_multiplicity_cluster(seed, max_points=8)
        assert multiplicities_from_values(
            values_from_multiplicities(cluster)) == cluster
        cases += 1
    return cases


def _suite_pairing_symmetry() -> int:
    cases = 0
    for seed in range(1000):
        rng = random.Random(seed)
        tree = randgen.random_tree(seed, max_points=8)
        a = WeightedCluster(tree, WeightKind.VIRTUAL,
                            {p: rng.randint(1, 9) for p in tree.points()})
        b = WeightedCluster(tree, WeightKind.VIRTUAL,
                            {p: rng.randint(1, 9) for p in tree.points()})
        assert noether_pairing(a, b) == noether_pairing(b, a)
        assert noether_pairing(a, a) == self_intersection(a)
        cases += 1
    return cases


def _shared_bp_samples():
    return [randgen.random_consistent_bp(seed, max_points=8)
            for seed in range(280)]


def _suite_multiplicity_of_chains(samples) -> int:
    cases = 0
    for bp in samples:
        tree = bp.tree
        inv = compute(bp)
        for p in tree.points():
            n, _ = inv.extend_to(p)
            assert n == unibranch_chain(tree, p)[tree.origin]
            cases += 1
    return cases


def _suite_height_growth(samples) -> int:
    cases = 0
    for bp in samples:
        tree = bp.tree
        inv = compute(bp)
        for p in tree.points():
            _, m = inv.extend_to(p)
            for q in tree.proximities(p):
                assert m > inv.extend_to(q)[1]
            cases += 1
    return cases


def _suite_jacobian_check(samples) -> int:
    cases = 0
    for bp in samples:
        tree = bp.tree
        inv = compute(bp)
        points = list(tree.points())
        for p in points:
            assert jacobian_multiplicity_check(inv, p) == bp.get(p, 0)
            cases += 1
        # extend past the cluster: fresh satellites carry weight 0
        for p in points[1:3]:
            q = first_satellite(tree, p)
            assert jacobian_multiplicity_check(inv, q) == bp.get(q, 0)
            cases += 1
    return cases


def _suite_satellite_ordering_exhaustive() -> int:
    from enriques import ArenaTree

    tree = ArenaTree()
    origin = tree.add_point()
    base = tree.add_point(origin)      # free point whose cone is explored
    anchor = tree.parent(base)
    levels = [[first_satellite(tree, base)]]
    for _ in range(5):
        nxt = []
        for q in levels[-1]:
            nxt.append(first_satellite(tree, q))
            nxt.append(second_satellite(tree, q))
        levels.append(nxt)
    nodes = [q for level in levels for q in level]
    assert len(nodes) == 63

    cases = 0
    less = PrecComparison.LESS
    # each satellite sits strictly between its two proximities, and its
    # first/second satellites bracket it the same way
    for q in nodes:
        a, b = sorted(tree.proximities(q))
        lo, hi = ((a, b) if prec_compare_reference(tree, a, b) is less
                  else (b, a))
        assert prec_compare_reference(tree, lo, q) is less
        assert prec_compare_reference(tree, q, hi) is less
        q1, q2 = first_satellite(tree, q), second_satellite(tree, q)
        assert prec_compare_reference(tree, q1, q) is less
        assert prec_compare_reference(tree, q, q2) is less
        # the second satellite's fraction is the mediant-side refinement
        f_q, f_q2 = fraction_at(tree, base, q), fraction_at(tree, base, q2)
        f_hi = fraction_at(tree, base, hi) if hi != anchor else None
        assert f_q < f_q2
        if f_hi is not None:
            assert f_q2 < f_hi
        cases += 6
    # the cone is totally ordered with pairwise distinct fractions
    fractions = {}
    for q in nodes:
        f = fraction_at(tree, base, q)
        assert f not in fractions.values()
        fractions[q] = f
        cases += 1
    ordered = sorted(nodes, key=fractions.get)
    for i, q1 in enumerate(ordered):
        for q2 in ordered[i + 1:]:
            assert prec_compare_reference(tree, q1, q2) is less
            cases += 1
    # everything below a first satellite stays smaller, below a second bigger
    descendants: dict[int, list[int]] = {}
    for level in reversed(levels):
        for q in level:
            kids = [c for c in child_list(tree, q) if c in fractions]
            descendants[q] = kids + [
                d for c in kids for d in descendants.get(c, [])]
    for q in nodes:
        q1, q2 = first_satellite(tree, q), second_satellite(tree, q)
        for d in descendants.get(q1, []) + [q1]:
            assert fractions.get(d, fraction_at(tree, base, d)) < fractions[q]
            cases += 1
        for d in descendants.get(q2, []) + [q2]:
            assert fractions.get(d, fraction_at(tree, base, d)) > fractions[q]
            cases += 1
    return cases


def _suite_growth_monotonicity() -> int:
    from enriques import excesses
    from enriques.oracle import free_count_first_neighbourhood

    less = PrecComparison.LESS
    cases = 0
    seed = 0
    while cases < 1000:
        seed += 1
        curve = random_curve(seed, max_points=9, max_multiplicity=30)
        tree = curve.tree
        cones: dict[int, list[int]] = {}
        for p in tree.points():
            base = tree.facts(p).defining_free_point
            if base != p and tree.parents[base] is not None:
                cones.setdefault(base, []).append(p)
        branches = branch_clusters(curve)
        rng = random.Random(seed)
        for base, sats in cones.items():
            candidates = sats + [base]
            for q1 in sats:
                q2 = rng.choice(candidates)
                if q1 == q2:
                    q2 = base
                if prec_compare_reference(tree, q1, q2) is not less:
                    q1, q2 = q2, q1
                if q1 == base or \
                        prec_compare_reference(tree, q1, q2) is not less:
                    continue
                p_prev = tree.parent(base)
                i_prev = invariant_quotient(curve, p_prev)
                i_q1 = invariant_quotient(curve, q1)
                i_q2 = invariant_quotient(curve, q2)
                assert i_prev <= i_q1 <= i_q2
                assert (i_prev == i_q1) == (base not in curve)
                bigger = any(compare_point_to_branch_reference(tree, q1, b)
                             for b in branches)
                assert (i_q1 == i_q2) == (not bigger)
                cases += 1
        # refined two-sided bound where exactly one branch leaves free and
        # non-singular at a free cluster point with a satellite continuation
        rho = excesses(curve)
        ruptures = rupture_points(curve)
        for p in curve.points:
            if tree.is_satellite(p) or tree.parents[p] is None:
                continue
            kids = [c for c in child_list(tree, p) if c in curve]
            if rho[p] != 1 or any(not tree.is_satellite(c) for c in kids):
                continue
            if not any(tree.is_satellite(c) for c in kids):
                continue
            cone_ruptures = [
                q for q in ruptures
                if q != p and tree.facts(q).defining_free_point == p]
            if not cone_ruptures:
                continue
            assert free_count_first_neighbourhood(curve, p) == 1
            q = max_by_fraction(tree, cone_ruptures)
            n_p = unibranch_chain(tree, p)[tree.origin]
            i_p = invariant_quotient(curve, p)
            i_q = invariant_quotient(curve, q)
            assert i_p - Fraction(1, n_p) < i_q < i_p
            cases += 1
    return cases


def _suite_similarity_invariance() -> int:
    cases = 0
    for rows, kind in ((fb.EX04_BP, WeightKind.VIRTUAL),
                       (fb.EX05_BP, WeightKind.VIRTUAL)):
        _, reference_bp, _ = fb.build(rows, kind)
        reference = canonical_form(recover(reference_bp).values)
        raw = randgen.cluster_rows(reference_bp)
        for seed in range(500):
            shuffled = randgen.shuffle_rows(raw, random.Random(seed))
            _, bp = randgen.build_cluster(shuffled, kind)
            assert canonical_form(recover(bp).values) == reference
            cases += 1
    return cases


def test_criterion_7_property_suites():
    with _report(7, "bulk property suites, >= 1000 cases each in < 10 s"):
        start = time.perf_counter()
        counts = {}
        counts["round_trip"] = _suite_round_trip()
        counts["pairing_symmetry"] = _suite_pairing_symmetry()
        samples = _shared_bp_samples()
        counts["chain_multiplicity"] = _suite_multiplicity_of_chains(samples)
        counts["height_growth"] = _suite_height_growth(samples)
        counts["jacobian_check"] = _suite_jacobian_check(samples)
        counts["satellite_ordering"] = _suite_satellite_ordering_exhaustive()
        counts["growth_monotonicity"] = _suite_growth_monotonicity()
        counts["similarity_invariance"] = _suite_similarity_invariance()
        elapsed = time.perf_counter() - start
        for name, count in counts.items():
            assert count >= 1000, (name, count)
        assert elapsed < 10.0, f"property suites took {elapsed:.2f}s"


def test_criterion_8_y5x8_regression():
    with _report(8, "derived single-branch fixture"):
        tree, curve, names = fb.y5x8_curve()
        values = values_from_multiplicities(curve)
        order = ["O", "p1", "p2", "p3", "p4"]
        assert [values[names[l]] for l in order] == [5, 8, 15, 24, 40]
        assert {tree.label(q) for q in rupture_points(curve)} == {"p4"}
        assert invariant_quotient(curve, names["p4"]) == 8
        assert invariant_quotient(curve, names["p1"]) == 8
        assert invariant_quotient(curve, names["p3"]) == 8
        # satellite value rule, first case: the conditions hold exactly and
        # force v(p3) = 3 * v(p1) = 24
        n = {l: unibranch_chain(tree, names[l])[tree.origin] for l in order}
        assert (n["p1"], n["p3"], n["p4"]) == (1, 3, 5)
        q = names["p4"]  # the only rupture point of the cone over p1
        assert prec_compare_reference(tree, names["p3"], q) \
            is PrecComparison.GREATER
        assert values[names["p1"]] * n["p4"] == n["p1"] * values[names["p4"]]
        assert values[names["p3"]] * n["p1"] == n["p3"] * values[names["p1"]]
        assert values[names["p3"]] == 24
