"""Input validation helpers.

All public operations funnel array-like inputs through these checks so that
error messages are uniform and tolerances are applied consistently.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, NonHermitianError
from .tolerances import DEFAULT_TOL, ToleranceConfig


def max_abs(a) -> float:
    """Entrywise max-norm; 0.0 for empty arrays."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def _check_count(count: int, name: str) -> None:
    """A check over no samples passes vacuously: refuse a count below 1."""
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 ndarray."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionMismatchError(f"{name} has empty dimension")
    return m


@np.errstate(invalid="ignore")
def check_hermitian(a, tol: ToleranceConfig = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Validate hermiticity within eps_proj and return the exactly
    symmetrized matrix (A + A*)/2, which is A itself when A is exactly
    Hermitian. Entries that are not finite are refused, with no
    RuntimeWarning first."""
    m = as_square_matrix(a, name)
    mh = m.conj().T
    diff = m - mh
    # a NaN or infinite entry leaves a NaN or infinite entry in diff
    # (inf - inf is NaN), so an all-zero diff also shows that every entry
    # is finite, and the finiteness test runs only when the residual fails
    if not diff.any():
        return m
    residual = max_abs(diff)
    if not residual <= tol.eps_proj:
        if not np.isfinite(m).all():
            raise NonFiniteError(f"{name} has entries that are not finite (NaN or infinite)")
        raise NonHermitianError(
            f"{name} is not Hermitian: max |A - A*| = {residual:.3e} > {tol.eps_proj:.1e}"
        )
    return (m + mh) / 2.0


def check_same_dim(*mats: np.ndarray) -> int:
    """All matrices square with one common dimension; returns it."""
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimensionMismatchError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def proj_rank(p: np.ndarray) -> int:
    """Rank of a projection, recovered by rounding its trace."""
    tr = float(np.real(np.trace(p)))
    r = round(tr)
    if abs(tr - r) > 0.1:
        raise NonHermitianError(f"trace {tr:.6f} is not within 0.1 of an integer rank")
    return int(r)
