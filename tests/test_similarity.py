import random

from enriques import (
    ArenaTree,
    WeightKind,
    WeightedCluster,
    are_equisingular,
    are_similar,
    canonical_digest,
    canonical_form,
    recover,
)

import fixture_builders as fb


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
    assert are_equisingular(r4.multiplicities, r5.multiplicities)
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
    # a 5,000-point chain is far deeper than the interpreter's recursion limit
    tree = ArenaTree()
    p = tree.add_point()
    for _ in range(4999):
        p = tree.add_point(p)
    chain = WeightedCluster(
        tree, WeightKind.MULTIPLICITY, dict.fromkeys(tree.points(), 1))
    assert canonical_form(chain) == b"f:1(" * 5000 + b")" * 5000
