"""Ground truth from equations: blow up a curve and its polars exactly.

A plane curve is given by a polynomial f in x and y with rational
coefficients that vanishes at the origin.  This module follows f, and the
pencil of its polars a f_x + b f_y, through the infinitely near points of
the origin by blowing up, and returns the two weighted clusters that the
library relates: the base points of the polars, weighted by the
multiplicity e of a generic polar (virtual multiplicities), and the
curve's cluster of singular points, weighted by the curve's own
multiplicities.  It imports only the arena and the cluster type of the
library, and no code of ``recovery``, ``morphism`` or ``oracle``, so a
recovery that matches it is checked against the equation itself
(Casas-Alvero, *Singularities of Plane Curves*, LMS LN 276: blowing-ups,
proximity, polars and the base points of linear systems).

A polynomial is a dict (i, j) -> coefficient of x^i y^j, in local
coordinates at the point being blown up.  At every point {x = 0} is the
exceptional divisor the point lies on last (none at the origin) and, at a
satellite, {y = 0} is the older one.  Blowing up with multiplicity e:

* chart 1 is y = x*y1, divided by x^e: x^i y^j -> x^(i+j-e) y1^j.  Its
  points on the new divisor {x = 0} are y1 = c for the common roots c of
  the generators' degree-e restrictions sum a_(e-j, j) y1^j (generators
  of order above e restrict to 0 and impose nothing); y1 -> y1 + c moves
  one to the origin.  c = 0 lies on {y = 0}, so there the point is a
  satellite, proximate to the older divisor's point, when the blown-up
  point was a satellite, and free otherwise;
* chart 2 is x = x2*y, divided by y^e, with its coordinates swapped so
  that the new divisor is {x = 0} again: x^i y^j -> x^(i+j-e) y^i.  Its
  origin is a point of the new divisor iff every restriction has a zero
  y^e coefficient.  It lies on the strict transform of the old {x = 0},
  so it is a satellite proximate to the blown-up point's parent, except
  after the origin, where no divisor was there.

Point ids are handed out breadth first, so every point comes after its
parent and second proximity, as the arena requires.

Truncation keeps the polynomials small.  A point p carries a bound B_p and
the terms of total order above B_p are dropped (x-degree above B_p already
before the shift, since the shift keeps the x-degree).  A term of order
above B at p has order above B - e at every point of p's first
neighbourhood in either chart, so a child gets the bound B_p - e_p, and
the dropped terms change no multiplicity or tangent as long as e_q <= B_q
at every point q visited.  Every point checks that, so a result never
rests on a dropped term; on a failed check the run starts again from the
origin with twice the bound, from a small one.  The polars pass once
B_O >= mu, since then B_q >= mu - sum of e^2 before q >= e_q^2 at every
base point q, by Noether's formula mu = sum of e^2.  Two polars meet in
at most (d - 1)^2 points, d the degree of f, by Bezout, so mu <= (d - 1)^2
and a failure there means that f_x and f_y share a component through the
origin: f is not reduced (:class:`NotReduced`).

The curve is followed while its multiplicity is at least 2, at every
satellite, and at a simple point tangent to the divisor {x = 0}, whose
next point is a satellite; it stops at the free simple points transverse
to every divisor.  Its singular cluster is the multiple points and the
satellites with the points before them.

Points are rational only: a shift y1 -> y1 + c needs c in Q.  A tangent
direction given by an irrational root, such as y^2 = 2x^2 at the origin,
is a point over a bigger field, and the reference raises
:class:`IrrationalPoint` for it.  Which equations fail is a matter of
their arithmetic, not a choice of inputs: the rational roots are found
exactly (the rational-root theorem on the square-free part), so every
equation whose points are all rational is followed.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt, lcm

from enriques import ArenaTree, WeightKind, WeightedCluster

Poly = dict  # (i, j) -> int or Fraction, nonzero


class IrrationalPoint(Exception):
    """A point of the curve or of its polars is not defined over Q."""


class NotReduced(Exception):
    """f_x and f_y share a component through the origin."""


class _Truncated(Exception):
    """A point's multiplicity exceeds its truncation bound."""


# -- bivariate polynomials ----------------------------------------------------


def _clean(poly: Poly) -> Poly:
    return {k: _exact(a) for k, a in poly.items() if a}


def _exact(a):
    """Keep integers as int, the fast type, and other rationals exact."""
    if isinstance(a, Fraction) and a.denominator == 1:
        return a.numerator
    return a


def multiply(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for (i, j), a in f.items():
        for (k, l), b in g.items():
            out[i + k, j + l] = out.get((i + k, j + l), 0) + a * b
    return _clean(out)


def power(f: Poly, n: int) -> Poly:
    out: Poly = {(0, 0): 1}
    for _ in range(n):
        out = multiply(out, f)
    return out


def add(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    for k, b in g.items():
        out[k] = out.get(k, 0) + b
    return _clean(out)


def _polar_generators(f: Poly) -> list[Poly]:
    """f_x and f_y."""
    fx = {(i - 1, j): i * a for (i, j), a in f.items() if i}
    fy = {(i, j - 1): j * a for (i, j), a in f.items() if j}
    return [fx, fy]


def _order(f: Poly) -> float:
    return min((i + j for i, j in f), default=float("inf"))


def _blow_up(f: Poly, e: int, bound: int, c) -> Poly:
    """The transform of f at the chart-1 point y1 = c (c None: the chart-2
    origin), divided by x^e, in that point's coordinates, truncated."""
    out: Poly = {}
    for (i, j), a in f.items():
        xdeg = i + j - e
        if xdeg <= bound:
            out[xdeg, j if c is not None else i] = a
    if c:
        shifted: Poly = {}
        for (i, j), a in out.items():
            for k in range(min(j, bound - i) + 1):
                key = (i, k)
                term = a * comb(j, k) * c ** (j - k)
                shifted[key] = shifted.get(key, 0) + term
        out = shifted
    return _clean({(i, j): a for (i, j), a in out.items() if i + j <= bound})


# -- univariate polynomials over Q, coefficient lists from degree 0 up --------


def _trim(p: list) -> list:
    while p and not p[-1]:
        p = p[:-1]
    return p


def _remainder(p: list, q: list) -> list:
    p = list(p)
    while len(p) >= len(q):
        factor = Fraction(p[-1]) / q[-1]
        shift = len(p) - len(q)
        for k, b in enumerate(q):
            p[shift + k] -= factor * b
        p = _trim(p)
    return p


def _quotient(p: list, q: list) -> list:
    """p / q for q dividing p."""
    p, out = list(p), [0] * (len(p) - len(q) + 1)
    while len(p) >= len(q):
        factor = Fraction(p[-1]) / q[-1]
        shift = len(p) - len(q)
        out[shift] = factor
        for k, b in enumerate(q):
            p[shift + k] -= factor * b
        p = _trim(p)
    return out


def _gcd(p: list, q: list) -> list:
    while q:
        p, q = q, _remainder(p, q)
    return p


def _rational_sqrt(a: Fraction):
    if a < 0:
        return None
    num, den = isqrt(a.numerator), isqrt(a.denominator)
    if num * num != a.numerator or den * den != a.denominator:
        return None
    return Fraction(num, den)


def _divisors(n: int) -> list[int]:
    n, out, d = abs(n), [], 1
    while d * d <= n:
        if n % d == 0:
            out += [d, n // d]
        d += 1
    return out


def _some_rational_root(p: list):
    """A rational root of p (degree >= 3, p(0) != 0), or None: by the
    rational-root theorem, on p scaled to integer coefficients."""
    den = lcm(*(Fraction(a).denominator for a in p))
    ints = [int(a * den) for a in p]
    content = gcd(*ints)
    ints = [a // content for a in ints]
    for q in _divisors(ints[-1]):
        for n in _divisors(ints[0]):
            for r in (Fraction(n, q), Fraction(-n, q)):
                if sum(a * r ** k for k, a in enumerate(ints)) == 0:
                    return r
    return None


def _rational_roots(p: list) -> list:
    """The distinct roots of p, each rational; raises IrrationalPoint when
    some root is not."""
    if len(p) > 1:
        derivative = [k * a for k, a in enumerate(p)][1:]
        p = _quotient(p, _gcd(p, _trim(derivative)))  # the square-free part
    roots = []
    while len(p) > 1:
        if not p[0]:
            r = Fraction(0)
        elif len(p) == 2:
            r = Fraction(-p[0]) / p[1]
        elif len(p) == 3:
            a, b, c = (Fraction(v) for v in reversed(p))
            s = _rational_sqrt(b * b - 4 * a * c)
            if s is None:
                raise IrrationalPoint(f"the roots of {p} are irrational")
            r = (-b + s) / (2 * a)
        else:
            r = _some_rational_root(p)
            if r is None:
                raise IrrationalPoint(f"{p} has an irrational root")
        roots.append(_exact(r))
        p = _quotient(p, [-r, 1])
    return roots


# -- following the points -----------------------------------------------------


def _explore(generators: list[Poly], bound: int, keep_going):
    """Breadth-first blowing-up from the origin.

    Returns (records, weights): per point, (parent, second proximity), and
    its multiplicity e, the least order of the generators there.  A child
    of a point with bound B and multiplicity e gets the bound B - e.
    ``keep_going(e, satellite, tangent)`` decides whether to blow a point
    up; tangent says whether a point other than the origin has the
    chart-2 origin among its next points.
    """
    records, weights = [], []
    # per point: id, parent, second proximity, generators, bound
    queue = [(0, None, None, generators, bound)]
    for point, parent, second, gens, bound in queue:
        e = min(_order(g) for g in gens)
        if e > bound:
            raise _Truncated(f"multiplicity {e} above bound {bound}")
        records.append((parent, second))
        weights.append(e)
        restrictions = [
            _trim([g.get((e - j, j), 0) for j in range(e + 1)])
            for g in gens if _order(g) == e]
        chart_2 = all(len(r) <= e for r in restrictions)
        if not keep_going(e, second is not None, chart_2 and point > 0):
            continue
        common = restrictions[0]
        for r in restrictions[1:]:
            common = _gcd(common, r)
        child_bound = bound - e
        children = [(c, second if c == 0 else None)  # c = 0 is on {y = 0}
                    for c in _rational_roots(common)]
        if chart_2:  # on the old {x = 0}, the parent's divisor
            children.append((None, parent))
        for c, s in children:
            queue.append((len(queue), point, s,
                          [_blow_up(g, e, child_bound, c) for g in gens],
                          child_bound))
    return records, weights


def _arena(records) -> ArenaTree:
    tree = ArenaTree()
    for parent, second in records:
        tree.add_point(parent, second)
    return tree


def _degree(f: Poly) -> int:
    return max(i + j for i, j in f)


def _follow(generators: list[Poly], keep_going, cap=None):
    """:func:`_explore` from a small bound, doubled until every point
    passes its check; past ``cap`` a failure raises :class:`NotReduced`."""
    bound = 2 * min(_order(g) for g in generators) + 2
    while True:
        try:
            return _explore(generators, bound, keep_going)
        except _Truncated:
            if cap is not None and bound >= cap:
                raise NotReduced("the polars of f share a component") from None
            bound = 2 * bound if cap is None else min(2 * bound, cap)


def polar_base_points(f: Poly) -> WeightedCluster:
    """The base points of the polars of f, with virtual multiplicities.

    Raises :class:`NotReduced` when f is not reduced."""
    records, weights = _follow(_polar_generators(f),
                               lambda e, satellite, tangent: True,
                               cap=(_degree(f) - 1) ** 2)
    return WeightedCluster(_arena(records), WeightKind.VIRTUAL,
                           dict(enumerate(weights)))


def singular_cluster(f: Poly) -> WeightedCluster:
    """The singular points of f with their multiplicities; f must be
    reduced (:func:`polar_base_points` checks it), or this never returns."""
    records, weights = _follow(
        [f], lambda e, satellite, tangent: e >= 2 or satellite or tangent)
    keep: set[int] = set()
    for p in range(len(records)):
        if weights[p] >= 2 or records[p][1] is not None:
            while p is not None and p not in keep:
                keep.add(p)
                p = records[p][0]
    return WeightedCluster(_arena(records), WeightKind.MULTIPLICITY,
                           {p: weights[p] for p in keep})
