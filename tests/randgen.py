"""Seeded random generators shared by the property and acceptance suites."""

from __future__ import annotations

import random

from enriques import (
    ArenaTree,
    PointId,
    WeightKind,
    WeightedCluster,
    is_consistent,
)

from arena_reference import proximities
from paper_reference import (
    child_list,
    first_satellite, second_satellite, validate_curve_cluster)


def random_proximity_tree(
    rng: random.Random, max_points: int
) -> ArenaTree:
    """A random arena: free children anywhere, satellites where legal."""
    tree = ArenaTree()
    tree.add_point(label="O")
    n_points = rng.randint(1, max(1, max_points - 1))
    for _ in range(n_points):
        parent = rng.randrange(len(tree))
        legal_seconds = [
            s for s in proximities(tree, parent)
            if tree.find_satellite(parent, s) is None
        ]
        if legal_seconds and rng.random() < 0.5:
            tree.add_point(parent, rng.choice(legal_seconds))
        else:
            tree.add_point(parent)
    return tree


def _random_weights_from_excesses(
    rng: random.Random, tree: ArenaTree, max_excess: int
) -> dict[PointId, int]:
    """Consistent weights: pick excesses >= 0, force >= 1 at childless points."""
    weights: dict[PointId, int] = {p: 0 for p in tree.points()}
    for p in sorted(tree.points(), reverse=True):
        rho = rng.randint(0, max_excess)
        if not child_list(tree, p):
            rho = max(1, rho)
        weights[p] += rho
        for q in proximities(tree, p):
            weights[q] += weights[p]
    return weights


def random_curve(
    seed: int, max_points: int = 12, max_multiplicity: int = 40
) -> WeightedCluster:
    """Deterministic random valid curve cluster.

    Draws a proximity tree and excess-generated multiplicities, prunes the
    non-singular points (free, simple, nothing satellite above), and
    retries with a derived seed until the outcome is singular and within
    the multiplicity bound.  Retrying shrinks the tree so termination is
    guaranteed.
    """
    for attempt in range(64):
        rng = random.Random(seed * 997 + attempt)
        shrink = max(2, max_points - attempt // 4)
        tree = random_proximity_tree(rng, shrink)
        weights = _random_weights_from_excesses(rng, tree, max_excess=2)
        if weights[tree.origin] > max_multiplicity:
            continue
        has_satellite = {p: tree.seconds[p] is not None for p in tree.points()}
        for p in sorted(tree.points(), reverse=True):
            parent = tree.parent(p)
            if has_satellite[p] and parent is not None:
                has_satellite[parent] = True
        singular = {
            p: w for p, w in weights.items()
            if w >= 2 or has_satellite[p]
        }
        if not singular:
            continue
        curve = WeightedCluster(tree, WeightKind.MULTIPLICITY, singular)
        if not is_consistent(curve):
            continue
        if validate_curve_cluster(curve):
            continue
        return curve
    raise RuntimeError(f"no valid curve cluster found for seed {seed}")


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
            if tree.seconds[q] is not None and rng.random() < 0.5:
                q = second_satellite(tree, q)
            else:
                q = first_satellite(tree, q)


def grow_past_cones(tree: ArenaTree, rng: random.Random) -> None:
    """Satellite walks, then free points anywhere, twice.

    A free point on top of a walk starts a chain that leaves a cone after
    some of its satellites.
    """
    for _ in range(2):
        grow_by_satellite_walks(tree, rng, walks=rng.randint(1, 4),
                                max_steps=8)
        for _ in range(rng.randint(0, 6)):
            tree.add_point(rng.randrange(len(tree)))


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
                          if p in proximities(tree, q))

    for _ in range(tweaks):
        p = rng.choice(pts)
        if rng.random() < 0.5:
            if w[p] > 1 and rho(p) >= 1:
                w[p] -= 1
        else:
            if all(rho(q) >= 1 for q in proximities(tree, p) if q in w):
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


def random_raw_records(rng: random.Random, max_points: int = 12):
    """Raw (parent, second, label) triples for ``ArenaTree.from_records``.

    Most triples are legal; at a per-list noise rate a parent or second
    proximity becomes a missing parent, the point itself, a forward or a
    negative id, or an earlier triple's pair is repeated.  So lists hold
    self references, forward and negative ids, several rootless points and
    repeated pairs, and a noise rate of 0 gives mostly valid arenas.
    """
    noise = rng.choice((0.0, 0.0, 0.05, 0.2, 0.5))
    records: list[tuple[int | None, int | None, None]] = []
    for q in range(rng.randint(1, max_points)):
        parent = rng.randrange(q) if q else None
        second = None
        if rng.random() < noise:
            parent = rng.choice((None, q, -1, q + rng.randint(1, 3)))
        if parent is not None and 0 <= parent < q and rng.random() < 0.5:
            proximities = [r for r in records[parent][:2] if r is not None]
            if proximities:
                second = rng.choice(proximities)
        if rng.random() < noise:
            second = rng.choice((q, -1, q + 1, rng.randrange(q + 1)))
        if records and rng.random() < noise:
            parent, second, _ = rng.choice(records)
        records.append((parent, second, None))
    return records


def euclid_rows(a: int, b: int) -> list[tuple[int | None, int | None, int]]:
    """Rows of the Euclid cluster of (a, b), a > b >= 1, for
    :func:`build_cluster`: the singular cluster of y^b = x^a.

    The quotients q_1, q_2, ... of Euclid's algorithm on (a, b) give blocks
    of q_j points of multiplicity r_{j-1}, with r_0 = b; each point's parent
    is the point before it.  Block 1 and the first point of block 2 are
    free; the first point of block j+2 is also proximate to the last point
    of block j, and every other point of block j+1 to the last point of
    block j (Casas-Alvero, *Singularities of Plane Curves*, ch. 5).
    """
    rows: list[tuple[int | None, int | None, int]] = []
    last: list[int] = []  # the last point of each block so far
    r_prev, r = a, b
    while r:
        q, rest = divmod(r_prev, r)
        for i in range(q):
            p = len(rows)
            if len(last) < 2 and (not last or i == 0):
                second = None
            elif i == 0:
                second = last[-2]
            else:
                second = last[-1]
            rows.append((p - 1 if p else None, second, r))
        last.append(len(rows) - 1)
        r_prev, r = r, rest
    return rows
