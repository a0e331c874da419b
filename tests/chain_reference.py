"""The order and the point-versus-branch comparison as they were built from
whole chain clusters, before the library read them from arena facts:
``fraction_at`` for every fraction, and one chain cluster per leaving
branch (``has_bigger_branch`` was ``any`` of the comparison over
``branch_clusters``).  The ordering, oracle and acceptance suites compare
the library with them."""

from fractions import Fraction

from enriques import WeightKind, WeightedCluster, excesses, unibranch_chain
from enriques.errors import NotUnibranch
from enriques.ordering import PrecComparison, fraction_at


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
    branch.require_kind(WeightKind.MULTIPLICITY)
    for p in branch.points:
        in_cluster = [c for c in branch.tree.child_list(p) if c in branch]
        if len(in_cluster) > 1:
            raise NotUnibranch(
                f"branch cluster forks at point {p}")
    p = tree.facts(q).defining_free_point
    if p not in branch:
        return False
    return fraction_at(tree, p, q) < Fraction(
        branch[p], branch[branch.tree.origin])


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

