"""Exception hierarchy and structural diagnostics.

Every failure mode of the library raises a subclass of :class:`EnriquesError`.
Validation routines do not raise; they return lists of :class:`Diagnostic`
records so that a document parser can report every problem at once.
"""

from __future__ import annotations

from dataclasses import dataclass


class EnriquesError(Exception):
    """Base class for all errors raised by this package."""


# --- arena -----------------------------------------------------------------

class ArenaError(EnriquesError):
    pass


class DuplicateOrigin(ArenaError):
    pass


class UnknownParent(ArenaError):
    pass


class UnknownPoint(ArenaError):
    pass


class IllegalProximity(ArenaError):
    """Second proximity target is not among the parent's own proximities."""


class SelfReference(ArenaError):
    pass


class DuplicateSatellite(ArenaError):
    """A satellite point with the same proximity pair already exists.

    Two distinct points in the first neighbourhood of the same point cannot
    both lie on one earlier exceptional divisor, so the pair
    (parent, second proximity) identifies at most one point.
    """


# --- weighted clusters -----------------------------------------------------

class ClusterError(EnriquesError):
    pass


class WrongKind(ClusterError):
    pass


class NonPositiveMultiplicity(ClusterError):
    """A value assignment produced a multiplicity below one."""


class PointNotInCluster(ClusterError):
    pass


class ArenaMismatch(ClusterError):
    """Operands live over different arenas."""


class NotDownwardClosed(ClusterError):
    pass


class InvalidWeight(ClusterError):
    pass


# --- ordering --------------------------------------------------------------

class OrderingError(EnriquesError):
    pass


class OriginHasNoSatellite(OrderingError):
    pass


class SecondSatelliteOfFreePoint(OrderingError):
    """A second satellite was requested below a free point.

    This cannot happen while processing a cluster of base points of actual
    polar curves; it signals malformed input.
    """


class EmptySet(OrderingError):
    pass


class NotComparable(OrderingError):
    pass


class NotUnibranch(OrderingError):
    pass


# --- morphism invariants ---------------------------------------------------

class MorphismError(EnriquesError):
    pass


class InconsistentCluster(MorphismError):
    pass


# --- recovery --------------------------------------------------------------

class RecoveryError(EnriquesError):
    """Base for recovery failures.

    When raised from inside a full recovery run, ``association`` holds the
    partial dicritical table computed so far (for debugging near-valid
    inputs).
    """

    def __init__(self, message: str, association: dict | None = None):
        super().__init__(message)
        self.association = association


class NotDicritical(RecoveryError):
    pass


class NoQualifyingPair(RecoveryError):
    pass


class WalkDiverged(RecoveryError):
    pass


class EmptyRuptureSet(RecoveryError):
    pass


class NonIntegralValue(RecoveryError):
    pass


# --- oracle ----------------------------------------------------------------

class OracleError(EnriquesError):
    pass


class NegativeResidual(OracleError):
    """Multiplicity bookkeeping of a curve cluster went negative."""


# --- documents -------------------------------------------------------------

class DocumentError(EnriquesError):
    pass


class DocumentSyntaxError(DocumentError):
    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class DocumentValidationError(DocumentError):
    def __init__(self, diagnostics: list["Diagnostic"]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Diagnostic:
    """One violated structural invariant, with the offending point."""

    code: str
    point: int | None
    message: str

    def __str__(self) -> str:
        where = f" at point {self.point}" if self.point is not None else ""
        return f"{self.code}{where}: {self.message}"
