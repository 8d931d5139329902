"""Exception hierarchy for speclat.

Input and representation problems raise subclasses of :class:`SpeclatError`;
mathematical verdicts (an order that does not hold, a failed orthogonality
check) are returned as values, never raised.
"""

from __future__ import annotations


class SpeclatError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitianError(SpeclatError):
    """Input matrix is not Hermitian within the configured tolerance."""


class NonFiniteError(SpeclatError):
    """Input matrix has a NaN or infinite entry."""


class DimensionMismatchError(SpeclatError):
    """Operands have incompatible dimensions or profiles."""


class ConeError(SpeclatError):
    """Element lies outside the requested cone, or a map violates its domain."""


class InvalidFamilyError(SpeclatError):
    """A projection family violates the spectral-family axioms."""


class NotMonotoneError(SpeclatError):
    """A scalar map fails to be a strictly increasing bijection."""


class DecompositionError(SpeclatError):
    """A map handed to a recovery procedure is not an isomorphism of the
    expected shape (central atoms not matched, verification residual too
    large, inconsistent permutations, ...)."""


class SchemaError(SpeclatError):
    """A JSON document does not conform to the expected schema."""
