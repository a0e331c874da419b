"""Arenas that record runs, and weightings over them, for the tests of the
run steps of ``oracle.invariant_quotient`` and the canonical encoder.

Each arena holds a run that ``ArenaTree._append_run`` wrote as ranges:
the runs of a recovered polar arena, or runs written by hand.  Points hung
off interior run points put a second cluster child on a run point, and a
satellite whose second proximity lies inside a run puts an owed chain
weight there.  The weights are consistent multiplicities that vary along
the run, and may stop at any point of it.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from enriques import ArenaTree, WeightKind, WeightedCluster, parse, recover
from enriques.arena import CHAIN_CROSSOVER

import randgen

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


def recovered_polar(n: int, j: int) -> ArenaTree:
    """The arena of the polar base points of y^n = x^(1 + j(n-1)) after
    one ``recover``: j free points, one satellite and the walk's runs."""
    _, bp = parse(workloads.polar(n, j))
    recover(bp)
    return bp.tree


def hand_built(rng: random.Random) -> ArenaTree:
    """The satellites 2 = (1, O) and 3 = (2, 1) over the free point 1, a
    recorded run from 3 towards 2, sometimes after a free child of O, so
    that the run's first point is not the child of the point before it,
    and sometimes a second recorded run from the first one's last point
    towards the point before it, so that the second run's proximity lies
    inside the first run."""
    tree = ArenaTree()
    origin = tree.add_point()
    free = tree.add_point(origin)
    s = tree.add_point(free, origin)
    a = tree.add_point(s, free)
    if rng.random() < 0.5:
        tree.add_point(origin)
    last = tree._append_run(a, s, CHAIN_CROSSOVER + rng.randint(0, 8))
    if rng.random() < 0.5:
        tree._append_run(last, last - 1, CHAIN_CROSSOVER + rng.randint(0, 4))
    return tree


def hang(tree: ArenaTree, rng: random.Random, count: int) -> None:
    """Hang ``count`` points off interior points r of the arena's first
    run f..last: a free child of r, the satellite (r, r - 1), or the
    satellite (r + 1, r), whose second proximity r lies inside the run."""
    (f, last), *_ = tree._runs.items()
    for _ in range(count):
        r = rng.randint(f + 1, last - 1)
        kind = rng.randrange(3)
        if kind == 0:
            tree.add_point(r)
        elif kind == 1 and tree.find_satellite(r, r - 1) is None:
            tree.add_point(r, r - 1)
        elif tree.find_satellite(r + 1, r) is None:
            tree.add_point(r + 1, r)


def run_curve(seed: int) -> WeightedCluster:
    """Consistent multiplicities on an arena with recorded runs.

    The excesses are random on the points whose chain leaves every run at
    or below a top e, chosen as the run's first point f, f + 1, a point
    inside it or its last point, so the cluster holds the run's prefix
    f..e; excesses on run points make the weights vary along the run.
    """
    rng = random.Random(seed)
    if rng.random() < 0.5:
        tree = recovered_polar(rng.choice((30, 41, 77)), rng.choice((2, 3)))
    else:
        tree = hand_built(rng)
    hang(tree, rng, rng.randint(1, 6))
    (f, last), *_ = tree._runs.items()
    e = rng.choice((f, f + 1, rng.randint(f + 2, last), last))
    excess = {}
    for p in tree.points():
        above = [q for q in tree.ancestors(p) if f < q <= last]
        if (max(above, default=f) <= e and rng.random() < 0.3) or p == e:
            excess[p] = rng.randint(1, 3)
    return WeightedCluster(tree, WeightKind.MULTIPLICITY,
                           randgen.weights_from_excesses(tree, excess))


#: Every case that :func:`run_cases` names.
RUN_CASES = ("f alone", "f..f+1", "strict prefix", "whole run", "varying",
             "hung free child", "hung satellite", "owed inside")


def run_cases(cluster: WeightedCluster) -> set[str]:
    """The cases of the run steps that the cluster meets, for each run
    f..last whose first point it holds, with f..e the run points it holds:
    "f alone", "f..f+1", "strict prefix" (f + 2 <= e < last) or "whole
    run"; "varying" when the weights on f..e differ; "hung free child" and
    "hung satellite" for a free or satellite cluster child of a point of
    f+1..e-1 other than the next run point; and "owed inside" for a
    cluster point after the run whose second proximity lies in f..e-1."""
    tree, weight, cases = cluster.tree, cluster.weight, set()
    for f, last in tree._runs.items():
        if f not in weight:
            continue
        e = max(p for p in range(f, last + 1) if p in weight)
        assert all(p in weight for p in range(f, e + 1))
        cases.add("f alone" if e == f else "f..f+1" if e == f + 1
                  else "whole run" if e == last else "strict prefix")
        if len({weight[p] for p in range(f, e + 1)}) > 1:
            cases.add("varying")
        for x in weight:
            a, s = tree.parents[x], tree.seconds[x]
            if x > last and a is not None and f < a < e:
                cases.add("hung free child" if s is None
                          else "hung satellite")
            if x > last and s is not None and f <= s < e:
                cases.add("owed inside")
    return cases
