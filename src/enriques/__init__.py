"""Exact combinatorics of infinitely near points.

Arenas of infinitely near points, weighted clusters over them, and the
reconstruction of a plane curve singularity's weighted singular cluster
from the cluster of base points shared by its polar curves, with exact
rational arithmetic throughout.
"""

from .arena import ArenaTree, PointFacts, PointId, PointRecord
from .cluster import (
    WeightKind,
    WeightedCluster,
    dicritical_points,
    excess,
    excesses,
    is_consistent,
    multiplicities_from_values,
    noether_pairing,
    self_intersection,
    unibranch_chain,
    values_from_multiplicities,
)
from .documents import parse, serialize
from .morphism import MorphismInvariants, compute
from .ordering import (
    PrecComparison,
    SatelliteQuotient,
    compare_point_to_branch,
    defining_free_point,
    first_satellite,
    max_under_prec,
    prec_compare,
    satellite_quotient,
    second_satellite,
)
from .oracle import (
    check_growth,
    free_count_first_neighbourhood,
    invariant_quotient,
    polar_invariants,
    polar_invariants_local,
    random_curve,
    rupture_points,
    validate_curve_cluster,
)
from .recovery import (
    DicriticalAssociation,
    RecoveryResult,
    base_free_point,
    classify_free_points,
    dicritical_invariant,
    recover,
    recover_grouped,
    recover_topology,
    recover_values,
    satellite_walk,
)
from .similarity import are_equisingular, are_similar, canonical_digest, canonical_form

__all__ = [name for name in dir() if not name.startswith("_")]
