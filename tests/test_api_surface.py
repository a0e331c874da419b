"""The package's public names and error classes, pinned so that adding or
removing one is a deliberate edit of these lists, and the typed errors its
point-taking functions raise on an argument that names no point."""

import importlib.util
import re
from fractions import Fraction
from pathlib import Path

import pytest

import enriques
from enriques import (
    WeightKind,
    WeightedCluster,
    base_free_point,
    check_growth,
    compare_point_to_branch,
    compute,
    defining_free_point,
    dicritical_invariant,
    excess,
    first_satellite,
    free_count_first_neighbourhood,
    invariant_quotient,
    max_under_prec,
    prec_compare,
    recover_values,
    rupture_points,
    rupture_quotients,
    satellite_walk,
    second_satellite,
    unibranch_chain,
)
from enriques import errors
from enriques.errors import EnriquesError, WrongKind
from enriques.oracle import has_bigger_branch

import fixture_builders as fb

PUBLIC_NAMES = [
    "ArenaTree",
    "DicriticalAssociation",
    "MorphismInvariants",
    "PointFacts",
    "PointId",
    "PointRecord",
    "PrecComparison",
    "RecoveryResult",
    "WeightKind",
    "WeightedCluster",
    "are_equisingular",
    "are_similar",
    "arena",
    "base_free_point",
    "canonical_digest",
    "canonical_form",
    "check_growth",
    "classify_free_points",
    "cluster",
    "compare_point_to_branch",
    "compute",
    "defining_free_point",
    "dicritical_invariant",
    "dicritical_points",
    "documents",
    "errors",
    "excess",
    "excesses",
    "first_satellite",
    "free_count_first_neighbourhood",
    "invariant_quotient",
    "is_consistent",
    "max_under_prec",
    "morphism",
    "multiplicities_from_values",
    "noether_pairing",
    "oracle",
    "ordering",
    "parse",
    "prec_compare",
    "recover",
    "recover_grouped",
    "recover_values",
    "recovery",
    "rupture_points",
    "rupture_quotients",
    "satellite_walk",
    "second_satellite",
    "self_intersection",
    "serialize",
    "similarity",
    "unibranch_chain",
    "validate_curve_cluster",
    "values_from_multiplicities",
]


def test_public_names_are_pinned():
    assert sorted(enriques.__all__) == PUBLIC_NAMES
    assert all(hasattr(enriques, name) for name in PUBLIC_NAMES)


def test_readme_names_only_public_names_and_modules():
    # a retired name must not stay in the documentation
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    mentioned = set(re.findall(r"\benriques\.(\w+)", text))
    assert len(mentioned) > 10
    unresolved = [name for name in sorted(mentioned - set(enriques.__all__))
                  if importlib.util.find_spec(f"enriques.{name}") is None]
    assert unresolved == []


#: Every exception class of ``enriques.errors`` with its direct base.
ERROR_CLASSES = [
    ("ArenaError", "EnriquesError"),
    ("ArenaMismatch", "ClusterError"),
    ("ClusterError", "EnriquesError"),
    ("DocumentError", "EnriquesError"),
    ("DocumentSyntaxError", "DocumentError"),
    ("DocumentValidationError", "DocumentError"),
    ("DuplicateOrigin", "ArenaError"),
    ("DuplicateSatellite", "ArenaError"),
    ("EmptyRuptureSet", "RecoveryError"),
    ("EmptySet", "OrderingError"),
    ("EnriquesError", "Exception"),
    ("IllegalProximity", "ArenaError"),
    ("InconsistentCluster", "MorphismError"),
    ("InvalidWeight", "ClusterError"),
    ("MorphismError", "EnriquesError"),
    ("NegativeResidual", "OracleError"),
    ("NoQualifyingPair", "RecoveryError"),
    ("NonPositiveMultiplicity", "ClusterError"),
    ("NotComparable", "OrderingError"),
    ("NotDicritical", "RecoveryError"),
    ("NotDownwardClosed", "ClusterError"),
    ("NotUnibranch", "OrderingError"),
    ("OracleError", "EnriquesError"),
    ("OrderingError", "EnriquesError"),
    ("OriginHasNoSatellite", "OrderingError"),
    ("PointNotInCluster", "ClusterError"),
    ("RecoveryError", "EnriquesError"),
    ("SecondSatelliteOfFreePoint", "OrderingError"),
    ("SelfReference", "ArenaError"),
    ("UnknownParent", "ArenaError"),
    ("UnknownPoint", "ArenaError"),
    ("WalkDiverged", "RecoveryError"),
    ("WrongKind", "ClusterError"),
]


def test_error_classes_are_pinned():
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, BaseException)
               and cls.__module__ == errors.__name__]
    assert all(len(cls.__bases__) == 1 for cls in classes)
    assert sorted((cls.__name__, cls.__base__.__name__)
                  for cls in classes) == ERROR_CLASSES


#: Arguments that name no point: a bool and a float equal an int id, -1 and
#: 999 lie outside the arena, a label is no id, and None is nothing.
BAD_IDS = (True, -1, 999, "3", 3.0, None)


def test_bad_point_ids_and_kinds_raise_typed_errors():
    tree, bp, names = fb.ex04_bp()
    _, curve, _ = fb.ex04_curve()
    inv = compute(bp)
    origin_only = WeightedCluster(tree, WeightKind.MULTIPLICITY, {0: 1})
    calls = {
        "ArenaTree.record": lambda x: tree.record(x),
        "ArenaTree.parent": lambda x: tree.parent(x),
        "ArenaTree.second_proximity": lambda x: tree.second_proximity(x),
        "ArenaTree.label": lambda x: tree.label(x),
        "ArenaTree.is_satellite": lambda x: tree.is_satellite(x),
        "ArenaTree.proximities": lambda x: tree.proximities(x),
        "ArenaTree.child_list": lambda x: tree.child_list(x),
        "ArenaTree.facts": lambda x: tree.facts(x),
        "ArenaTree.ancestors": lambda x: tree.ancestors(x),
        "ArenaTree.precedes first": lambda x: tree.precedes(x, 0),
        "ArenaTree.precedes second": lambda x: tree.precedes(0, x),
        "ArenaTree.add_point": lambda x: tree.add_point(x),
        "WeightedCluster": lambda x: WeightedCluster(
            tree, WeightKind.VIRTUAL, {x: 1}),
        "WeightedCluster[]": lambda x: bp[x],
        "excess": lambda x: excess(bp, x),
        "unibranch_chain": lambda x: unibranch_chain(tree, x),
        "MorphismInvariants.extend_to": lambda x: inv.extend_to(x),
        "MorphismInvariants.height_quotient": lambda x: inv.height_quotient(x),
        "MorphismInvariants.jacobian_multiplicity_check":
            lambda x: inv.jacobian_multiplicity_check(x),
        "dicritical_invariant": lambda x: dicritical_invariant(bp, inv, x),
        "base_free_point": lambda x: base_free_point(
            bp, inv, x, Fraction(11)),
        "satellite_walk": lambda x: satellite_walk(
            tree, inv, x, Fraction(11)),
        "recover_values": lambda x: recover_values(
            bp, inv, frozenset({x}), frozenset({x})),
        "defining_free_point": lambda x: defining_free_point(tree, x),
        "prec_compare first": lambda x: prec_compare(tree, x, 0),
        "prec_compare second": lambda x: prec_compare(tree, 0, x),
        "first_satellite": lambda x: first_satellite(tree, x),
        "second_satellite": lambda x: second_satellite(tree, x),
        "max_under_prec": lambda x: max_under_prec(tree, [x]),
        "compare_point_to_branch": lambda x: compare_point_to_branch(
            tree, x, origin_only),
        "free_count_first_neighbourhood":
            lambda x: free_count_first_neighbourhood(curve, x),
        "invariant_quotient": lambda x: invariant_quotient(curve, x),
        "rupture_quotients": lambda x: rupture_quotients(curve, x),
        "has_bigger_branch": lambda x: has_bigger_branch(curve, x),
        "check_growth": lambda x: check_growth(curve, [(x, x)]),
    }
    size = len(tree)
    answered = []
    for bad in BAD_IDS:
        for name, call in calls.items():
            if name == "rupture_quotients" and bad is None:
                continue  # None is its default: no base point, all quotients
            try:
                got = call(bad)
            except EnriquesError:
                continue
            answered.append((name, bad, got))
        # the queries that answer for a point they do not know
        assert tree.find_satellite(bad, 0) is None
        assert bp.get(bad) == 0 and bp.get(bad, -7) == -7
        assert bad not in bp and bad not in curve
    assert answered == []
    assert len(tree) == size  # no failed call appended a point
    # a base-point cluster is no curve: the oracle refuses it, not answers
    d, q = names["p8"], names["p3"]
    for call in (lambda: rupture_points(bp), lambda: rupture_quotients(bp),
                 lambda: free_count_first_neighbourhood(bp, d),
                 lambda: has_bigger_branch(bp, q)):
        with pytest.raises(WrongKind, match="got virtual"):
            call()
    assert set(rupture_quotients(curve).values()) == {11}  # a curve passes
