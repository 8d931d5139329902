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


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 ndarray."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] == 0:
        raise DimensionMismatchError(f"{name} has empty dimension")
    return m


def check_hermitian(a, tol: ToleranceConfig = DEFAULT_TOL, name: str = "matrix") -> np.ndarray:
    """Validate hermiticity within eps_proj and return the exactly
    symmetrized matrix (A + A*)/2. Entries that are not finite are refused."""
    m = as_square_matrix(a, name)
    mh = m.conj().T
    residual = max_abs(m - mh)
    # a NaN or infinite entry makes the residual NaN or infinite, so the
    # finiteness test runs only when this one fails
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
