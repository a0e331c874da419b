"""Exception hierarchy and structural diagnostics.

Every failure mode of the library raises a subclass of :class:`EnriquesError`.
The arena and the document parser refuse input that breaks their rules,
and they report every problem at once: :class:`ArenaValidationError` and
:class:`DocumentValidationError` each carry every :class:`Diagnostic`
found.

Python writes no integer of more digits than
``sys.get_int_max_str_digits()`` as text, and the library honours that
limit rather than raising it, because the setting is process-wide.  A
message names a number past it by its digit count
(:func:`describe_number`); output that would have to write one raises
:class:`NumberTooLong` (:func:`write_number`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction


class EnriquesError(Exception):
    """Base class for all errors raised by this package."""


# --- arena -----------------------------------------------------------------

class ArenaError(EnriquesError):
    pass


class ArenaValidationError(ArenaError):
    """Raw arena records break arena rules; ``diagnostics`` names every
    broken rule in record order."""

    def __init__(self, diagnostics: list["Diagnostic"]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class DuplicateOrigin(ArenaError):
    pass


class UnknownParent(ArenaError):
    pass


class UnknownPoint(ArenaError):
    pass


class InvalidLabel(ArenaError):
    """A point's label is neither None nor a string."""


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


# --- base points -----------------------------------------------------------

class InconsistentCluster(EnriquesError):
    pass


# --- recovery --------------------------------------------------------------

class RecoveryError(EnriquesError):
    """Base for recovery failures.

    When raised from inside a full recovery run, ``association`` holds the
    partial dicritical table computed so far (for debugging near-valid
    inputs).
    """

    association = None


class NotDicritical(RecoveryError):
    pass


class NoQualifyingPair(RecoveryError):
    pass


class WalkDiverged(RecoveryError):
    pass


class EmptyRuptureSet(RecoveryError):
    pass


class NotPolarBasePoints(RecoveryError):
    """The recovered multiplicities fail the identity that every curve
    keeps with the base points of its polars, so the input is not them."""


# --- oracle ----------------------------------------------------------------

class NegativeResidual(EnriquesError):
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


# --- output ----------------------------------------------------------------

class NumberTooLong(EnriquesError):
    """A number to be printed or serialized has an integer part with more
    digits than Python writes as text."""

    def __init__(self, number: int | Fraction):
        super().__init__(
            f"cannot write {describe_number(number)}: Python writes no"
            f" integer of more than {sys.get_int_max_str_digits()} digits")


def describe_number(x: int | Fraction) -> str:
    """``str(x)`` for a message, with each integer part past Python's
    int-to-text digit limit shown as its digit count, ``<4301 digits>``."""
    num, den = x.as_integer_ratio()
    return "/".join(map(_describe_int, (num,) if den == 1 else (num, den)))


def _describe_int(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        # 0.30102999 < log10(2), so this starts at or just below the count
        digits = (n.bit_length() - 1) * 30102999 // 10 ** 8 + 1
        while 10 ** digits <= abs(n):
            digits += 1
        return f"{'-' if n < 0 else ''}<{digits} digits>"


def write_number(x: int | Fraction) -> str:
    """``str(x)`` for output; :class:`NumberTooLong` when Python would
    refuse to write it."""
    try:
        return str(x)
    except ValueError:
        raise NumberTooLong(x) from None


@dataclass(frozen=True)
class Diagnostic:
    """One violated structural invariant, with the offending point."""

    code: str
    point: int | None
    message: str

    def __str__(self) -> str:
        where = f" at point {self.point}" if self.point is not None else ""
        return f"{self.code}{where}: {self.message}"
