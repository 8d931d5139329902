"""The complete lattice of orthogonal projections on C^n: order test, meet,
join, complement and atomicity."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .linalg import orthonormal_range, spectral_sum, split_range
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import check_same_dim, max_abs, proj_rank


def proj_leq(p, q, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Standard order p <= q on projections, i.e. range containment.

    Equivalent to q p = p; tested as max |p - q p| <= eps_proj.
    """
    p = np.asarray(p, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    check_same_dim(p, q)
    return max_abs(p - q @ p) <= tol.eps_proj


def proj_meet(ps, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Projection onto the intersection of the ranges.

    A unit vector v lies in every range exactly when (1 - P_i) v = 0 for
    every i, that is, when v is orthogonal to the range of the matrix
    [1 - P_1 ... 1 - P_k]; split_range gives that complement.
    """
    ps = [np.asarray(p, dtype=np.complex128) for p in ps]
    if not ps:
        raise DimensionMismatchError("meet of an empty projection list")
    eye = np.eye(check_same_dim(*ps), dtype=np.complex128)
    return spectral_sum(split_range(np.hstack([eye - p for p in ps]), tol)[1], 1.0)


def proj_join(ps, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Projection onto the span of the union of the ranges."""
    ps = [np.asarray(p, dtype=np.complex128) for p in ps]
    if not ps:
        raise DimensionMismatchError("join of an empty projection list")
    check_same_dim(*ps)
    # the column space of a projection matrix is exactly its range
    return orthonormal_range(np.hstack(ps), tol)


def proj_complement(p) -> np.ndarray:
    """1 - p."""
    p = np.asarray(p, dtype=np.complex128)
    return np.eye(p.shape[0], dtype=np.complex128) - p


def is_atomic(p, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff p has no nonzero proper subprojection, i.e. rank one."""
    return proj_rank(np.asarray(p, dtype=np.complex128)) == 1
