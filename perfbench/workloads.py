"""Seeded input generators for the benchmark's workloads.

Each generator turns a seed into a pool of cluster documents (JSON text in
format_version 1).  Nothing here imports the library: the program under
test receives only the generated text.

Sizes are drawn by stratified log-uniform sampling: stratum i of P covers
quantiles [i/P, (i+1)/P) and the seed places the draw inside the middle
``JITTER`` share of it.  Different seeds give different inputs, while the
size distribution of every pool -- and so every percentile over it -- stays
the same from seed to seed.  Pools are listed in a low-discrepancy order
(consecutive entries sit far apart in size), so any prefix of the visiting
cycle is spread over the whole size range.

The golden perturbations are the exception: they come from the fixed
``CORPUS_SEED``, and the workload seed only shuffles their order.  Which
perturbations of ex05 the oracle rejects is a coin toss per input, so a
seeded corpus would move the pool's mismatch count by about ten inputs
from seed to seed and no rate bound could then see one more input fail.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

DATA_DIR = Path(__file__).resolve().parent / "data"

#: Per fixture: base-point document, committed singular-cluster document,
#: and its share of the pool (acceptance criterion 5's 350/250/250/150).
#: Op times cluster by fixture; with equal shares the p50 would sit on the
#: gap between the two small fixtures and the two large ones.
GOLDEN = (
    ("ex04", "ex04_bp.json", "ex04_S.json", 350),
    ("ex05", "ex05_bp.json", "ex05_S.json", 250),
    ("ex06", "ex06_bp.json", "ex06_curve.json", 250),
    ("ex07", "ex07_bp.json", "ex07_curve.json", 150),
)

JITTER = 0.2
#: Seed of the golden perturbation corpus.
CORPUS_SEED = 0
#: Weight tweaks tried per golden perturbation.
TWEAKS = 6
#: Polar inputs per j, and the range of n they are drawn from.
POLAR_PER_J = 26
POLAR_N = (16, 560)
#: Fan inputs per pool, and the range of k they are drawn from.
FAN_COUNT = 56
FAN_K = (8, 160)
_GOLDEN_RATIO = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Input:
    """One generated document plus what the benchmark needs to check it."""

    name: str
    text: str
    #: Document whose canonical digest the recovered multiplicities must
    #: match (the golden fixtures only).
    expected: Optional[str] = None


def _document(points: list[dict]) -> str:
    return json.dumps(
        {"format_version": 1, "weight_kind": "virtual", "points": points})


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """``count`` integers, log-uniform on [lo, hi], one per stratum."""
    span = math.log(hi / lo)
    out = []
    for i in range(count):
        u = (i + 0.5 + JITTER * (rng.random() - 0.5)) / count
        out.append(round(lo * math.exp(u * span)))
    return out


def _spread_order(count: int) -> list[int]:
    """A permutation of range(count) whose every prefix is spread out."""
    return sorted(range(count), key=lambda i: (i * _GOLDEN_RATIO) % 1.0)


def _interleave(*groups: list[Input]) -> list[Input]:
    """Merge groups in proportion to their sizes, each in spread order."""
    keyed = []
    for g, group in enumerate(groups):
        for k, i in enumerate(_spread_order(len(group))):
            keyed.append(((k + 0.5) / len(group), g, group[i]))
    return [inp for *_, inp in sorted(keyed, key=lambda t: t[:2])]


# -- golden_perturbed ---------------------------------------------------------


def _perturb(points: list[dict], rng: random.Random) -> list[dict]:
    """Random +-1 weight tweaks that keep every excess non-negative.

    Only cluster members (weight >= 1) are touched and none drops below 1,
    so the point set and the arena stay as committed.
    """
    index = {p["id"]: i for i, p in enumerate(points)}
    weight = [p["weight"] for p in points]
    proximate_to = [
        [index[p[key]] for key in ("parent", "second_proximity") if key in p]
        for p in points]
    members = [i for i, w in enumerate(weight) if w > 0]

    def rho(i: int) -> int:
        return weight[i] - sum(
            weight[q] for q in members if i in proximate_to[q])

    for _ in range(TWEAKS):
        i = rng.choice(members)
        if rng.random() < 0.5:
            if weight[i] > 1 and rho(i) >= 1:
                weight[i] -= 1
        elif all(rho(q) >= 1 for q in proximate_to[i] if weight[q] > 0):
            weight[i] += 1
    return [dict(p, weight=w) for p, w in zip(points, weight)]


def golden_perturbed(seed: int) -> list[Input]:
    """The four golden fixtures, then the corpus of perturbations of them,
    each fixture's in an order drawn from ``seed``."""
    corpus, order = random.Random(CORPUS_SEED), random.Random(seed)
    groups: list[list[Input]] = []
    for name, bp_file, curve_file, share in GOLDEN:
        text = (DATA_DIR / bp_file).read_text()
        points = json.loads(text)["points"]
        perturbed = [Input(f"{name}~{k}", _document(_perturb(points, corpus)))
                     for k in range(share - 1)]
        order.shuffle(perturbed)
        groups.append(
            [Input(name, text, (DATA_DIR / curve_file).read_text())] + perturbed)
    # Keep the four unperturbed fixtures first: they are the golden gate.
    heads = [group[0] for group in groups]
    return heads + _interleave(*(group[1:] for group in groups))


# -- polar_walk ---------------------------------------------------------------


def polar(n: int, j: int) -> str:
    """Base points of the polars of y^n = x^(1 + j(n-1)).

    A chain of j free points, each of weight n-1; the last one is the only
    dicritical point.  The rupture point is a satellite at depth about
    n/(j-1) that the document does not contain.
    """
    points = [{"id": "O", "weight": n - 1}]
    for i in range(1, j):
        points.append({"id": f"p{i}", "parent": points[-1]["id"],
                       "weight": n - 1})
    return _document(points)


def polar_walk(seed: int) -> list[Input]:
    rng = random.Random(seed)
    groups = []
    for j in (2, 3):
        groups.append([Input(f"polar j={j} n={n}", polar(n, j))
                       for n in _stratified(rng, POLAR_PER_J, *POLAR_N)])
    return _interleave(*groups)


# -- wide_fan -----------------------------------------------------------------


def fan(k: int, rng: random.Random) -> str:
    """k free chains on one origin, of lengths 1..6 and weights 1..8.

    Every chain end is dicritical, and so is the origin, whose weight
    sum(w_i) + k - 1 leaves it an excess of k - 1.  Chain c has length
    c % 6 + 1 and weight c % 8 + 1, and the seed shuffles the chains, so
    a fan's singular cluster -- whose size sets the oracle's quadratic
    cost -- depends on k alone.
    """
    chains = [(c % 6 + 1, c % 8 + 1) for c in range(k)]
    rng.shuffle(chains)
    points = [{"id": "O", "weight": sum(w for _, w in chains) + k - 1}]
    for c, (length, w) in enumerate(chains):
        parent = "O"
        for i in range(length):
            point = f"c{c}.{i}"
            points.append({"id": point, "parent": parent, "weight": w})
            parent = point
    return _document(points)


def wide_fan(seed: int) -> list[Input]:
    rng = random.Random(seed)
    group = [Input(f"fan k={k}", fan(k, rng))
             for k in _stratified(rng, FAN_COUNT, *FAN_K)]
    return _interleave(group)


WORKLOADS = {
    "golden_perturbed": golden_perturbed,
    "polar_walk": polar_walk,
    "wide_fan": wide_fan,
}
