"""Exact combinatorics of infinitely near points.

Arenas of infinitely near points, weighted clusters over them, and the
reconstruction of a plane curve singularity's weighted singular cluster
from the cluster of base points shared by its polar curves, with exact
rational arithmetic throughout.
"""

from .arena import ArenaTree, PointFacts, PointId
from .cluster import (
    WeightKind,
    WeightedCluster,
    dicritical_points,
    excesses,
    is_consistent,
    multiplicities_from_values,
    noether_pairing,
    unibranch_chain,
)
from .documents import parse, serialize
from .oracle import (
    invariant_quotient,
    rupture_points,
    rupture_quotients,
)
from .recovery import (
    DicriticalAssociation,
    MorphismInvariants,
    RecoveryResult,
    base_free_point,
    compute,
    dicritical_invariant,
    recover,
    recover_grouped,
    recover_values,
    satellite_walk,
)
from .similarity import are_similar, canonical_digest, canonical_form

__all__ = [name for name in dir() if not name.startswith("_")]
