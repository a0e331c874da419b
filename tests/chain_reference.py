"""The order on infinitely near points, built from whole chain clusters.

Every point q has a *defining free point*: the last free point on its chain
(q itself when q is free).  The position of q among the satellites of its
defining free point p is pinned down by one exact fraction,

    weight of the unibranch chain of q at p  /  weight at the origin,

which lies in (0, 1]; for a free point it is 1/n_p, with n_p the origin
weight of its own chain.  Distinct points sharing the same defining free
point always get distinct fractions: walking from p into the satellite tree
refines the fraction like a mediant (Stern-Brocot) search, one side per
step.

A point q1 with defining free point p1 is *smaller* than q2 when p1 lies on
the chain of q2's defining free point and the fraction of q1 at p1 does
not exceed the fraction of q2 measured at p1.  Restricted to one free point
and its satellites this is a total order; across unrelated free points it
is only partial, and ``INCOMPARABLE`` is an outcome, not an error.

The arena fixes a point's defining free point and its k/n when the point
is appended; :func:`fraction_at` rebuilds every fraction from the whole
chain instead, and the comparison of a point with a branch builds one
chain cluster per leaving branch, so the suites can check the arena's
facts and the recovery's cone maximum against these definitions.  All
comparisons are exact.
"""

import enum
from fractions import Fraction

from enriques import (
    WeightKind, WeightedCluster, excesses, invariant_quotient, unibranch_chain)


class PrecComparison(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


class NotAChain(Exception):
    """A cluster given as a branch forks."""


def fraction_at(tree, p, q):
    """Chain weight of ``q`` at ``p`` over its origin weight; ``p`` must lie
    on the chain of ``q``."""
    chain = unibranch_chain(tree, q)
    return Fraction(chain[p], chain[tree.origin])


def max_by_fraction(tree, points):
    """The biggest of points that share one defining free point: the one
    whose fraction at that point is biggest."""
    return max(points, key=lambda q: fraction_at(
        tree, tree.facts(q).defining_free_point, q))


def prec_compare_reference(tree, q1, q2):
    f1, f2 = tree.facts(q1), tree.facts(q2)
    if q1 == q2:
        return PrecComparison.EQUAL
    p1, p2 = f1.defining_free_point, f2.defining_free_point
    if p1 == p2:
        if f1.k * f2.n <= f2.k * f1.n:
            return PrecComparison.LESS
        return PrecComparison.GREATER
    if tree.precedes(p1, p2):
        if fraction_at(tree, p1, q1) <= fraction_at(tree, p1, q2):
            return PrecComparison.LESS
    if tree.precedes(p2, p1):
        if fraction_at(tree, p2, q2) <= fraction_at(tree, p2, q1):
            return PrecComparison.GREATER
    return PrecComparison.INCOMPARABLE


def compare_point_to_branch_reference(tree, q, branch):
    """Whether ``q`` is smaller than the branch, a multiplicity chain
    cluster: q's defining free point p lies on the branch and q's fraction
    at p is below the branch's own ratio e_p / e_origin."""
    from paper_reference import child_list  # it imports this module

    branch.require_kind(WeightKind.MULTIPLICITY)
    for p in branch.points:
        in_cluster = [c for c in child_list(branch.tree, p) if c in branch]
        if len(in_cluster) > 1:
            raise NotAChain(f"branch cluster forks at point {p}")
    p = tree.facts(q).defining_free_point
    return p in branch and _below(fraction_at(tree, p, q), p, branch)


def _below(fraction, p, branch):
    """Whether a fraction at p is below the chain's ratio e_p / e_origin."""
    return fraction < Fraction(branch[p], branch[branch.tree.origin])


def chain_inside(curve, p):
    """Whether the whole chain of ``p`` carries curve multiplicities."""
    return all(q in curve for q in curve.tree.ancestors(p))


def branch_clusters(curve):
    """One chain cluster per leaving branch, with excess multiplicity.

    A branch that leaves the curve cluster at t is equisingular to a germ
    through the chain cluster of t; a point of excess k contributes k such
    branches (returned once each).
    """
    out = []
    for t, r in sorted(excesses(curve).items()):
        for _ in range(r):
            chain = unibranch_chain(curve.tree, t)
            out.append(WeightedCluster(
                curve.tree, WeightKind.MULTIPLICITY, dict(chain.weight)))
    return out


def check_growth(curve, samples):
    """Check the growth of invariant quotients on sampled pairs.

    Each sample (q1, q2) must have q1 satellite and q2 a bigger point of
    the satellite cone of q1's defining free point p.  With p' the point p
    is proximate to, the checks are

        I(p') <= I(q1),  equality iff p is not on the curve, and
        I(q1) <= I(q2),  equality iff no branch of the curve is bigger
                         than q1.

    Returns a description of every violated check (expected: none on a
    curve).  A branch is bigger than q1 as
    :func:`compare_point_to_branch_reference` states it, over the chain
    clusters of :func:`branch_clusters`, built once per call, and q1's
    fraction at p, built once per sample.
    """
    tree = curve.tree
    branches = branch_clusters(curve)
    violations = []
    for q1, q2 in samples:
        f1 = tree.facts(q1)
        p = f1.defining_free_point
        if f1.ordered_proximities is None or (
                tree.facts(q2).defining_free_point != p
                or prec_compare_reference(tree, q1, q2)
                is not PrecComparison.LESS):
            raise ValueError(f"sample ({q1}, {q2}) is no pair of a satellite"
                             " and a bigger point of its cone")
        p_prev = tree.parent(p)
        i_prev = invariant_quotient(curve, p_prev)
        i_q1 = invariant_quotient(curve, q1)
        i_q2 = invariant_quotient(curve, q2)
        f = fraction_at(tree, p, q1)
        bigger = any(p in b and _below(f, p, b) for b in branches)
        if not i_prev <= i_q1:
            violations.append(f"I({p_prev}) > I({q1})")
        if (i_prev == i_q1) != (p not in curve):
            violations.append(
                f"equality I({p_prev}) = I({q1}) disagrees with"
                f" membership of {p}")
        if not i_q1 <= i_q2:
            violations.append(f"I({q1}) > I({q2})")
        if (i_q1 == i_q2) != (not bigger):
            violations.append(
                f"equality I({q1}) = I({q2}) disagrees with branches"
                f" bigger than {q1}")
    return violations
