"""The library against equations.

:mod:`polynomial_reference` blows up a curve f and the pencil of its polars
exactly, sharing no code with ``recovery``, ``morphism`` or ``oracle``.
Its two clusters are ground truth for the paper's theorem: ``recover`` on
the polars' base points must give a cluster similar to f's own singular
cluster, and the oracle must close on it.  The fixtures' equations must
reproduce the committed fixtures.  Every check also asserts

    sum of w^2 over the base points = mu = sum of e(e - 1) - r + 1,

Noether's formula for two generic polars (their intersection number is
dim O/(f_x, f_y) = mu) against Milnor's formula mu = 2 delta - r + 1 on
the curve's multiplicities e, with r the number of branches, the sum of
the curve's excesses (Casas-Alvero, *Singularities of Plane Curves*).
"""

import random
import time
from collections import Counter

import pytest

from enriques import (
    are_similar,
    excesses,
    invariant_quotient,
    parse,
    recover,
    rupture_points,
    rupture_quotients,
)

from conftest import FIXTURE_DIR
from polynomial_reference import (
    IrrationalPoint,
    NotReduced,
    add,
    multiply,
    polar_base_points,
    power,
    singular_cluster,
)


def branch(n, m, c, a=0, swap=False):
    """(y - a x)^n - c x^m, or the same with x and y swapped."""
    f = add(power({(0, 1): 1, (1, 0): -a}, n), {(m, 0): -c})
    return {(j, i): v for (i, j), v in f.items()} if swap else f


def product(branches):
    f = {(0, 0): 1}
    for g in branches:
        f = multiply(f, g)
    return f


#: The fixtures' equations, with the committed base-point and curve
#: documents each must reproduce (y^5 - x^8 has a curve document only) and
#: the Milnor number, (a - 1)(b - 1) for y^a = x^b.
EQUATIONS = {
    "y3-x11": (branch(3, 11, 1), "ex05_bp", "ex05_S", 20),
    "y3-x11-3x8y": (add(branch(3, 11, 1), {(8, 1): -3}),
                    "ex04_bp", "ex04_S", 20),
    "five branches": (product(branch(n, m, c) for n, m, c in (
        (4, 11, 1), (3, 8, 2), (9, 22, 3), (12, 29, 5), (4, 9, 7))),
        "ex06_bp", "ex06_curve", 2344),
    "y5-x8": (branch(5, 8, 1), None, "y5x8_curve", 28),
}


def _fixture(name):
    return parse((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))[1]


def _milnor(curve):
    r = sum(excesses(curve).values())
    return sum(e * (e - 1) for e in curve.weight.values()) - r + 1


def _assert_recovers(bp, curve):
    """recover(bp) is similar to the curve, the oracle closes on it, and
    Noether's count of the polars meets Milnor's count of the curve."""
    assert sum(w * w for w in bp.weight.values()) == _milnor(curve)
    result = recover(bp)
    recovered = result.multiplicities
    assert are_similar(recovered, curve)
    assert rupture_points(recovered) == set(result.rupture)
    quotients = rupture_quotients(recovered)
    for assoc in result.association.values():
        assert quotients[assoc.rupture_point] == assoc.invariant
        assert invariant_quotient(recovered, assoc.rupture_point) == \
            assoc.invariant
    return result


@pytest.mark.parametrize("name", EQUATIONS)
def test_fixture_equations_reproduce_the_committed_clusters(name):
    f, bp_name, curve_name, mu = EQUATIONS[name]
    bp, curve = polar_base_points(f), singular_cluster(f)
    assert sum(w * w for w in bp.weight.values()) == mu
    if bp_name is not None:
        assert are_similar(bp, _fixture(bp_name))
    assert are_similar(curve, _fixture(curve_name))
    _assert_recovers(bp, curve)


def random_equation(seed):
    """1 to 4 branches (y - a x)^n - c x^m, some with x and y swapped,
    with at least multiplicity 2 at the origin."""
    rng = random.Random(seed)
    while True:
        shapes = []
        for _ in range(rng.randint(1, 4)):
            n = rng.randint(1, 8)
            shapes.append((n, rng.randint(n + 1, 4 * n + 1),
                           rng.choice((-3, -2, -1, 1, 2, 3)),
                           rng.randint(-3, 3), rng.random() < 0.25))
        if sum(n for n, *_ in shapes) >= 2:
            return product(branch(*shape) for shape in shapes)


def test_random_equations_recover_their_curves():
    start = time.perf_counter()
    outcomes = Counter()
    for seed in range(200):
        f = random_equation(seed)
        try:
            bp = polar_base_points(f)
            curve = singular_cluster(f)
        except (IrrationalPoint, NotReduced) as err:
            outcomes[type(err).__name__] += 1  # arithmetic, see the module
            continue
        result = _assert_recovers(bp, curve)
        outcomes["recovered"] += 1
        outcomes["several dicriticals"] += len(result.association) > 1
    elapsed = time.perf_counter() - start
    assert outcomes["recovered"] >= 60, outcomes
    assert outcomes["several dicriticals"] >= 30, outcomes
    assert outcomes["recovered"] + outcomes["IrrationalPoint"] \
        + outcomes["NotReduced"] == 200
    assert elapsed < 15.0, f"200 equations took {elapsed:.2f}s"


def test_negative_control_polars_tell_equisingular_curves_apart():
    # y^3 - x^11 and y^3 - x^11 - 3x^8y are equisingular, but their polars
    # are not (Pham's example): the reference sees the 3x^8y term, and
    # each equation's base points match only their own fixture
    f05, f04 = EQUATIONS["y3-x11"][0], EQUATIONS["y3-x11-3x8y"][0]
    assert are_similar(singular_cluster(f05), singular_cluster(f04))
    assert not are_similar(polar_base_points(f05), polar_base_points(f04))
    fixtures = {name: _fixture(bp_name)
                for name, (_, bp_name, _, _) in EQUATIONS.items() if bp_name}
    for name, (f, *_) in EQUATIONS.items():
        bp = polar_base_points(f)
        assert [other for other, fixture in fixtures.items()
                if are_similar(bp, fixture)] == ([name] if name in fixtures
                                                 else [])


def test_reference_refuses_what_it_cannot_follow():
    # the tangents of y^2 - 2x^2 are irrational; (y^2 - x^3)^2 is not
    # reduced, so its polars share the cusp
    with pytest.raises(IrrationalPoint):
        singular_cluster(add({(0, 2): 1}, {(2, 0): -2}))
    with pytest.raises(NotReduced):
        polar_base_points(power(branch(2, 3, 1), 2))
