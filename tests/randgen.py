"""Seeded random generators shared by the property and acceptance suites."""

from __future__ import annotations

import random

from enriques import (
    ArenaTree,
    WeightKind,
    WeightedCluster,
    first_satellite,
    second_satellite,
)
from enriques.oracle import random_proximity_tree, _random_weights_from_excesses


def random_tree(seed: int, max_points: int = 10) -> ArenaTree:
    return random_proximity_tree(random.Random(seed), max_points)


def grow_by_satellite_walks(tree: ArenaTree, rng: random.Random,
                            walks: int, max_steps: int) -> None:
    """Random first/second-satellite walks from random non-origin points.

    Repeated first satellites stack long chains of points proximate to one
    point, which random trees alone rarely contain.
    """
    for _ in range(walks if len(tree) > 1 else 0):
        q = rng.randrange(1, len(tree))
        for _ in range(rng.randint(0, max_steps)):
            if tree.is_satellite(q) and rng.random() < 0.5:
                q = second_satellite(tree, q)
            else:
                q = first_satellite(tree, q)


def random_multiplicity_cluster(seed: int, max_points: int = 10,
                                max_weight: int = 9) -> WeightedCluster:
    """Arbitrary positive weights on a full random tree (not consistent)."""
    rng = random.Random(seed)
    tree = random_proximity_tree(rng, max_points)
    weights = {p: rng.randint(1, max_weight) for p in tree.points()}
    return WeightedCluster(tree, WeightKind.MULTIPLICITY, weights)


def random_consistent_bp(seed: int, max_points: int = 10,
                         max_excess: int = 2) -> WeightedCluster:
    """Consistent virtual weights on a full random tree."""
    rng = random.Random(seed)
    tree = random_proximity_tree(rng, max_points)
    weights = _random_weights_from_excesses(rng, tree, max_excess)
    return WeightedCluster(tree, WeightKind.VIRTUAL, weights)


def perturb_weights(tree, weights: dict, rng: random.Random,
                    tweaks: int = 6) -> dict:
    """Random +-1 weight tweaks that keep every excess non-negative."""
    w = dict(weights)
    pts = sorted(w)

    def rho(p):
        return w[p] - sum(w.get(q, 0) for q in pts
                          if tree.is_proximate(q, p))

    for _ in range(tweaks):
        p = rng.choice(pts)
        if rng.random() < 0.5:
            if w[p] > 1 and rho(p) >= 1:
                w[p] -= 1
        else:
            if all(rho(q) >= 1 for q in tree.proximities(p) if q in w):
                w[p] += 1
    return w


def cluster_rows(cluster) -> list[tuple[int | None, int | None, int]]:
    """(parent, second, weight) rows in arena order; weight 0 = arena-only."""
    tree = cluster.tree
    return [
        (tree.parent(p), tree.second_proximity(p), cluster.get(p, 0))
        for p in tree.points()
    ]


def shuffle_rows(rows, rng: random.Random):
    """Permute sibling insertion order, keeping references valid."""
    children: dict[int | None, list[int]] = {}
    for i, (parent, _, _) in enumerate(rows):
        children.setdefault(parent, []).append(i)
    order: list[int] = []
    frontier: list[int | None] = [None]
    while frontier:
        parent = frontier.pop()
        kids = children.get(parent, [])[:]
        rng.shuffle(kids)
        for i in kids:
            order.append(i)
            frontier.append(i)
    remap = {old: new for new, old in enumerate(order)}
    out = []
    for old in order:
        parent, second, weight = rows[old]
        out.append((
            remap[parent] if parent is not None else None,
            remap[second] if second is not None else None,
            weight,
        ))
    return out


def build_cluster(rows, kind: WeightKind):
    tree = ArenaTree()
    weights = {}
    for parent, second, weight in rows:
        p = tree.add_point(parent, second)
        if weight > 0:
            weights[p] = weight
    return tree, WeightedCluster(tree, kind, weights)
