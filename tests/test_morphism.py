import re
from copy import deepcopy
from fractions import Fraction

import pytest

from enriques import (
    MorphismInvariants, WeightKind, WeightedCluster, compute, unibranch_chain)
from enriques.errors import (
    ArenaError, EnriquesError, InconsistentCluster, WrongKind)

import fixture_builders as fb
from paper_reference import jacobian_multiplicity_check, second_satellite


def quotients(inv, names, labels):
    return {l: inv.height_quotient(names[l]) for l in labels}


def test_compute_ex04_table():
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    got = quotients(inv, names, ["O", "p1", "p2", "p3", "p6", "p7", "p8", "p9"])
    assert got == {
        "O": Fraction(3), "p1": Fraction(6), "p2": Fraction(9),
        "p3": Fraction(12), "p6": Fraction(14), "p7": Fraction(14),
        "p8": Fraction(16), "p9": Fraction(16),
    }


def test_compute_ex05_table():
    tree, bp, names = fb.ex05_bp()
    inv = compute(bp)
    assert inv.height_quotient(names["p4"]) == 15


def test_compute_ex06_satellites():
    tree, bp, names = fb.ex06_bp()
    inv = compute(bp)
    assert inv.extend_to(names["p3"]) == (2, 155)
    assert inv.extend_to(names["p4"]) == (3, 236)
    assert inv.extend_to(names["p6"]) == (3, 223)
    assert inv.extend_to(names["p11"]) == (12, 920)


def test_extend_to_points_outside_cluster():
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    assert inv.extend_to(names["p4"]) == (2, 21)
    assert inv.extend_to(names["p5"]) == (3, 33)


def test_extend_to_created_satellite():
    tree, bp, names = fb.ex07_bp()
    inv = compute(bp)
    assert inv.extend_to(names["p13"]) == (16, 2172)
    assert inv.height_quotient(names["p11"]) == Fraction(1083, 8)
    # a brand-new satellite carries no weight and still extends
    fresh = second_satellite(tree, names["p14"])
    n, m = inv.extend_to(fresh)
    assert (n, m) == (20 + 12, 2712 + 1628)


def test_append_chain_catches_up_a_stale_table():
    # points appended behind the table's back are tabulated before the run
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    a = tree.add_point(names["p5"], names["p3"])
    assert len(inv.m) == a
    last = inv.append_chain(a, names["p3"], 3)
    assert inv.m == compute(bp).m and len(inv.m) == last + 1


ARENA_COLUMNS = ("parents", "seconds", "labels", "children", "free_points",
                 "ns", "m0s", "ks", "pairs")


def test_append_chain_with_bad_ids_tabulates_as_append_raw():
    # a run whose first point would break an arena rule raises that rule,
    # as add_point does, and neither appends nor tabulates anything, so no
    # point gets the m of whatever its ids index; s = None with a legal a
    # would be a free point, which is no run of satellites
    for bad in (True, -1, 999, "3", 3.0, None):
        for a, s in ((bad, 0), (0, bad)):
            for t in (1, 3):
                tree, bp, _ = fb.ex04_bp()
                inv = compute(bp)
                before = deepcopy([getattr(tree, c) for c in ARENA_COLUMNS])
                index, m = dict(tree._satellite_index), list(inv.m)
                if s is None:
                    error, match = ArenaError, "needs a second proximity"
                else:
                    with pytest.raises(ArenaError) as info:
                        tree.add_point(a, s)
                    error, match = type(info.value), re.escape(
                        str(info.value))
                with pytest.raises(error, match=match):
                    inv.append_chain(a, s, t)
                assert [getattr(tree, c) for c in ARENA_COLUMNS] == before
                assert tree._satellite_index == index and inv.m == m


def test_append_chain_refuses_a_bad_run_length_before_appending():
    # t = 0 and t = -2 would append one point, t = 2.5 one point and then
    # a bare TypeError; every bad t is refused with nothing appended
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    legal = next((a, s) for a in tree.points() for s in tree.proximities(a)
                 if tree.find_satellite(a, s) is None)
    illegal = (names["p5"], names["O"])
    assert names["O"] not in tree.proximities(names["p5"])
    runs = [legal, illegal]
    for append in (tree.append_chain, inv.append_chain):
        for a, s in runs:
            for t in (0, -2, 2.5, True, "3", None):
                before = deepcopy([getattr(tree, c) for c in ARENA_COLUMNS])
                index, m = dict(tree._satellite_index), list(inv.m)
                with pytest.raises(EnriquesError, match="run length t"):
                    append(a, s, t)
                assert [getattr(tree, c) for c in ARENA_COLUMNS] == before
                assert tree._satellite_index == index
                assert inv.m == m


def test_origin_quotient_is_weight_plus_one():
    tree, bp, names = fb.ex06_bp()
    inv = compute(bp)
    assert inv.height_quotient(names["O"]) == bp[names["O"]] + 1


def test_jacobian_multiplicity_check():
    tree, bp, names = fb.ex04_bp()
    inv = compute(bp)
    assert jacobian_multiplicity_check(inv, names["O"]) == 2
    assert jacobian_multiplicity_check(inv, names["p5"]) == 0
    tree6, bp6, names6 = fb.ex06_bp()
    inv6 = compute(bp6)
    assert jacobian_multiplicity_check(inv6, names6["p3"]) == 11
    for p in bp6.points:
        assert jacobian_multiplicity_check(inv6, p) == bp6[p]


def test_n_equals_chain_origin_weight_on_fixtures():
    for builder in (fb.ex04_bp, fb.ex05_bp, fb.ex06_bp, fb.ex07_bp):
        tree, bp, _ = builder()
        inv = compute(bp)
        for p in tree.points():
            n, _ = inv.extend_to(p)
            assert n == unibranch_chain(tree, p)[tree.origin]


def test_m_strictly_grows_along_chains():
    tree, bp, _ = fb.ex07_bp()
    inv = compute(bp)
    for p in tree.points():
        _, m = inv.extend_to(p)
        parent = tree.parent(p)
        if parent is not None:
            assert m > inv.extend_to(parent)[1]


def test_inconsistent_cluster_rejected():
    tree, _, names = fb.ex04_bp()
    bad = WeightedCluster(tree, WeightKind.VIRTUAL, {
        names["O"]: 1, names["p1"]: 2,
    })
    with pytest.raises(InconsistentCluster):
        compute(bad)


def test_missing_origin_weight_rejected():
    tree, _, names = fb.ex04_bp()
    empty = WeightedCluster(tree, WeightKind.VIRTUAL, {})
    with pytest.raises(InconsistentCluster):
        compute(empty)


def test_table_refuses_a_cluster_that_is_not_virtual():
    # as compute does; a curve's multiplicities are no polar base points,
    # so a dicritical invariant read from their table would mean nothing
    tree, curve, names = fb.ex04_curve()
    with pytest.raises(WrongKind, match="expected a virtual cluster, got"
                       " multiplicity"):
        MorphismInvariants(curve)
    with pytest.raises(WrongKind, match="got multiplicity"):
        compute(curve)
