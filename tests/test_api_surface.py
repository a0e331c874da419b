"""The package's public names and error classes, pinned so that adding or
removing one is a deliberate edit of these lists."""

import importlib.util
import re
from pathlib import Path

import enriques
from enriques import errors

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
