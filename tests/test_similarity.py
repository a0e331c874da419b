import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from enriques import (
    ArenaTree,
    WeightKind,
    WeightedCluster,
    are_similar,
    canonical_digest,
    canonical_form,
    parse,
    recover,
)
from enriques.errors import NumberTooLong

import fixture_builders as fb
import randgen
from paper_reference import child_list
from run_arenas import RUN_CASES, run_cases, run_curve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


def _role_tag(tree, p):
    second = tree.seconds[p]
    if second is None:
        return b"f"
    if second == tree.parents[tree.parents[p]]:
        return b"g"
    return b"s"


def _form_by_nesting(cluster):
    """Reference: each point's bytes built whole, ``tag:weight(children)``.

    Copies every subtree's bytes again at each ancestor, so it is quadratic
    on chains; the library keeps chain encodings as runs of heads.
    """
    tree, weight = cluster.tree, cluster.weight
    origin = tree.origin
    if origin is None or origin not in weight:
        return b""
    encoded = {}
    for p in sorted(weight, reverse=True):
        children = sorted(
            encoded.pop(c) for c in child_list(tree, p) if c in weight)
        encoded[p] = b"%b:%d(%b)" % (
            _role_tag(tree, p), weight[p], b"".join(children))
    return encoded[origin]


def shuffled_copy(rows, seed):
    """Rebuild a fixture with sibling insertion order permuted and labels
    replaced; the result must stay similar to the original."""
    rng = random.Random(seed)
    by_parent = {}
    for label, parent, second, weight in rows:
        by_parent.setdefault(parent, []).append((label, parent, second, weight))
    order = []
    frontier = [None]
    while frontier:
        parent = frontier.pop()
        children = by_parent.get(parent, [])[:]
        rng.shuffle(children)
        for row in children:
            # a second proximity is an ancestor, so depth-first order keeps
            # every reference behind its point
            order.append(row)
            frontier.append(row[0])
    assert len(order) == len(rows)
    relabel = {label: f"x{i}" for i, (label, _, _, _) in enumerate(order)}
    rows2 = [
        (relabel[l], relabel.get(p), relabel.get(s), w)
        for l, p, s, w in order
    ]
    return rows2


def test_equisingular_pair_with_dissimilar_base_points():
    _, bp4, _ = fb.ex04_bp()
    _, bp5, _ = fb.ex05_bp()
    r4, r5 = recover(bp4), recover(bp5)
    assert r4.multiplicities.kind is r5.multiplicities.kind is (
        WeightKind.MULTIPLICITY)
    assert are_similar(r4.multiplicities, r5.multiplicities)
    assert are_similar(r4.values, r5.values)
    assert not are_similar(bp4, bp5)


def test_single_origin_forms():
    t1, t2 = ArenaTree(), ArenaTree()
    a = WeightedCluster(t1, WeightKind.VIRTUAL, {t1.add_point(): 4})
    b = WeightedCluster(t2, WeightKind.VIRTUAL, {t2.add_point(): 4})
    c = WeightedCluster(t2, WeightKind.VIRTUAL, {0: 5})
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a) != canonical_form(c)


def test_relabeled_copy_is_similar():
    for rows in (fb.EX04_BP, fb.EX06_BP, fb.EX07_CURVE):
        kind = (WeightKind.VIRTUAL if rows is not fb.EX07_CURVE
                else WeightKind.MULTIPLICITY)
        _, original, _ = fb.build(rows, kind)
        for seed in range(5):
            _, copy, _ = fb.build(shuffled_copy(rows, seed), kind)
            assert are_similar(original, copy)
            assert canonical_digest(original) == canonical_digest(copy)


def test_different_point_counts_not_similar():
    _, c4, _ = fb.ex04_curve()
    _, c6, _ = fb.ex06_curve()
    assert not are_similar(c4, c6)


def test_proximity_choice_distinguishes():
    # same tree shape and weights, but the deep satellite hangs on a
    # different proximity pair
    def build(second_of_last):
        tree = ArenaTree()
        o = tree.add_point()
        p1 = tree.add_point(o)
        p2 = tree.add_point(p1)
        p3 = tree.add_point(p2, p1)
        last = tree.add_point(p3, second_of_last(p1, p2))
        return WeightedCluster(
            tree, WeightKind.VIRTUAL, dict.fromkeys(range(5), 1))

    a = build(lambda p1, p2: p1)
    b = build(lambda p1, p2: p2)
    assert not are_similar(a, b)


def test_form_is_a_total_order_key():
    forms = []
    for builder in (fb.ex04_bp, fb.ex05_bp, fb.ex06_bp):
        _, bp, _ = builder()
        forms.append(canonical_form(bp))
    assert len(set(forms)) == 3
    assert sorted(forms) == sorted(forms, key=bytes)


def test_recovery_canonical_form_stable_under_relabeling():
    _, bp, _ = fb.ex04_bp()
    reference = canonical_form(recover(bp).values)
    for seed in range(5):
        _, bp2, _ = fb.build(shuffled_copy(fb.EX04_BP, seed),
                             WeightKind.VIRTUAL)
        assert canonical_form(recover(bp2).values) == reference


def test_deep_free_chain_has_canonical_form():
    # a 5,000-point chain is far deeper than the interpreter's recursion
    # limit; at 200,000 points a form that copies each subtree's bytes
    # again at every ancestor takes seconds
    for n, bound in ((5000, None), (200_000, 2.0)):
        tree = ArenaTree()
        p = tree.add_point()
        for _ in range(n - 1):
            p = tree.add_point(p)
        chain = WeightedCluster(
            tree, WeightKind.MULTIPLICITY, dict.fromkeys(tree.points(), 1))
        start = time.perf_counter()
        form = canonical_form(chain)
        elapsed = time.perf_counter() - start
        assert form == b"f:1(" * n + b")" * n
        if bound is not None:
            assert elapsed < bound, n


def _prefixes(cluster):
    """The cluster cut to the points up to p, for every arena point p.

    Ids are topological, so each cut is ancestor-closed; points the
    cluster does not weight get weight 1, so cuts reach past the cluster.
    """
    weight = cluster.weight
    for p in cluster.tree.points():
        yield WeightedCluster(cluster.tree, cluster.kind, {
            q: weight.get(q, 1) for q in range(p + 1)})


def test_form_matches_nesting_reference_on_random_clusters():
    forms = set()
    checked = 0
    for seed in range(300):
        curve = randgen.random_curve(seed)
        randgen.grow_by_satellite_walks(
            curve.tree, random.Random(seed), walks=3, max_steps=8)
        for cluster in (curve, randgen.random_consistent_bp(seed),
                        randgen.random_multiplicity_cluster(seed)):
            for cut in [cluster, *_prefixes(cluster)]:
                form = canonical_form(cut)
                assert form == _form_by_nesting(cut), seed
                forms.add(form)
                checked += 1
    assert checked > 6000 and len(forms) > 3000
    # clusters over recorded runs, which the encoder takes as pieces, cut
    # at every point: each cut holds a prefix of the run
    cases = Counter()
    for seed in range(150):
        curve = run_curve(seed)
        for cut in [curve, *_prefixes(curve)]:
            assert canonical_form(cut) == _form_by_nesting(cut), seed
            cases.update(run_cases(cut))
    assert min(cases[case] for case in RUN_CASES) > 100, cases


def test_form_matches_nesting_reference_on_recovered_fixtures():
    for builder in (fb.ex04_bp, fb.ex05_bp, fb.ex06_bp, fb.ex07_bp):
        _, bp, _ = builder()
        result = recover(bp)
        for cluster in (result.values, result.multiplicities, bp):
            assert canonical_form(cluster) == _form_by_nesting(cluster)


def test_form_matches_nesting_reference_on_benchmark_workloads():
    # the benchmark's generators, read only: fans hang many chains of
    # repeated weights on one origin, polars walk long satellite runs
    texts = ([workloads.fan(k, random.Random(k)) for k in (8, 23, 60)]
             + [workloads.polar(n, j) for j in (2, 3) for n in (16, 45, 130)])
    runs = 0
    for text in texts:
        _, bp = parse(text)
        result = recover(bp)
        for cluster in (result.multiplicities, result.values, bp):
            assert canonical_form(cluster) == _form_by_nesting(cluster)
        runs += len(bp.tree._runs)
    assert runs == 5  # each polar but polar(16, 3) records one


def _all_roles(weight):
    """Each of f, g and s at one weight, in alike sibling subtrees.

    The origin o has three alike free children p.  Each p carries q,
    proximate to p and its grandparent o, then r, proximate to q and q's
    own second proximity o; and two alike free children, each with one
    satellite through the grandparent p.
    """
    tree = ArenaTree()
    o = tree.add_point()
    for _ in range(3):
        p = tree.add_point(o)
        q = tree.add_point(p, o)
        tree.add_point(q, o)
        for _ in range(2):
            tree.add_point(tree.add_point(p), p)
    return WeightedCluster(
        tree, WeightKind.MULTIPLICITY, dict.fromkeys(tree.points(), weight))


def test_form_matches_nesting_reference_with_shared_heads():
    # a head cache must tell the roles of one weight apart, and siblings
    # whose subtrees encode alike must sort as the reference sorts them
    for weight in (1, 2):
        cluster = _all_roles(weight)
        form = canonical_form(cluster)
        for tag in (b"f", b"g", b"s"):
            assert b"%b:%d(" % (tag, weight) in form
        for cut in [cluster, *_prefixes(cluster)]:
            assert canonical_form(cut) == _form_by_nesting(cut)


def test_clusters_without_the_origin_have_the_empty_form():
    # only an empty cluster is ancestor-closed and misses the origin
    tree, _, _ = fb.ex04_bp()
    empty = WeightedCluster(tree, WeightKind.VIRTUAL, {})
    bare = WeightedCluster(ArenaTree(), WeightKind.MULTIPLICITY, {})
    assert canonical_form(empty) == canonical_form(bare) == b""
    assert are_similar(empty, bare)
    assert not are_similar(empty, fb.ex04_bp()[1])


def test_weights_past_the_digit_limit_raise_number_too_long():
    # the document parses, but its recovered values and multiplicities
    # hold a weight of more digits than Python writes as text
    limit = sys.get_int_max_str_digits()
    _, bp = parse(json.dumps({
        "format_version": 1, "weight_kind": "virtual",
        "points": [{"id": "O", "weight": int("9" * limit)},
                   {"id": "p", "parent": "O", "weight": 1}]}))
    result = recover(bp)
    message = (f"cannot write <{limit + 1} digits>: Python writes no integer"
               f" of more than {limit} digits")
    for cluster in (result.multiplicities, result.values):
        for call in (canonical_form, canonical_digest,
                     lambda c: are_similar(c, c)):
            with pytest.raises(NumberTooLong) as info:
                call(cluster)
            assert str(info.value) == message
