"""Ground truth at every size: the curves y^n = x^m.

The polars of f = y^n - x^m (2 <= n < m) form the pencil
a x^(m-1) + b y^(n-1), so the base points of f's polars are the Euclid
cluster of (m - 1, n - 1) with its multiplicities, and f's singular cluster
is the Euclid cluster of (m, n) (Casas-Alvero, *Singularities of Plane
Curves*, ch. 5).  Each input therefore has a known answer.
"""

import random

from enriques import (
    WeightKind,
    are_similar,
    canonical_digest,
    invariant_quotient,
    noether_pairing,
    parse,
    recover,
    recover_grouped,
    rupture_points,
    serialize,
)
from enriques.cli import main

from randgen import build_cluster, euclid_rows

PAIRS = [(m, n) for n in range(2, 30) for m in range(n + 1, 90)]


def euclid_bp(m: int, n: int):
    """The base points of the polars of y^n = x^m, over a fresh arena."""
    return build_cluster(euclid_rows(m - 1, n - 1), WeightKind.VIRTUAL)


def euclid_curve(m: int, n: int):
    return build_cluster(euclid_rows(m, n), WeightKind.MULTIPLICITY)[1]


def _assert_closes(result) -> None:
    curve = result.multiplicities
    assert rupture_points(curve) == set(result.rupture)
    for assoc in result.association.values():
        assert invariant_quotient(curve, assoc.rupture_point) == \
            assoc.invariant


def test_euclid_rows_build_the_cusp():
    # O of multiplicity 2, a free point, and a satellite proximate to O
    assert euclid_rows(3, 2) == [(None, None, 2), (0, None, 1), (1, 0, 1)]
    assert len(euclid_rows(100003, 99991)) == 8339


def test_recover_finds_the_euclid_curve():
    assert len(PAIRS) == 2058
    for m, n in PAIRS:
        _, bp = euclid_bp(m, n)
        result = recover(bp)
        assert are_similar(result.multiplicities, euclid_curve(m, n)), (m, n)
        _assert_closes(result)
        # y^n = x^m meets its generic polar a x^(m-1) + b y^(n-1) m(n - 1)
        # times, mu + e_O - 1 = (m - 1)(n - 1) + n - 1: the pairing of the
        # recovered multiplicities with bp, which recover checks against
        # mu + e_O - 1, so it never raises NotPolarBasePoints here
        assert noether_pairing(bp, result.multiplicities) == m * (n - 1)
        # warm: the arena already holds every point the walks create
        assert recover_grouped(bp).same_result(result), (m, n)
        # negative control: a neighbouring curve is never similar
        assert not are_similar(result.multiplicities, euclid_curve(m + 1, n))


def test_euclid_round_trip_through_documents_and_cli(tmp_path, capsys):
    for m, n in random.Random(2012).sample(PAIRS, 40):
        tree, bp = euclid_bp(m, n)
        tree2, bp2 = parse(serialize(tree, bp))
        assert serialize(tree2, bp2) == serialize(tree, bp)
        want = canonical_digest(euclid_curve(m, n))
        assert canonical_digest(recover(bp2).multiplicities) == want
        source, out = tmp_path / "bp.json", tmp_path / "curve.json"
        source.write_text(serialize(tree, bp), encoding="utf-8")
        code = main(["recover", str(source), "--out", str(out),
                     "--emit", "multiplicities"])
        capsys.readouterr()
        assert code == 0
        _, curve = parse(out.read_text(encoding="utf-8"))
        assert canonical_digest(curve) == want, (m, n)


def test_deep_euclid_cases():
    # consecutive Fibonacci numbers: every Euclid quotient but the last is 1
    for (m, n), points in (((3524578, 2178309), 32),
                           ((100003, 99991), 8339)):
        _, bp = euclid_bp(m, n)
        result = recover(bp)
        assert len(result.singular) == points
        assert are_similar(result.multiplicities, euclid_curve(m, n))
        _assert_closes(result)
