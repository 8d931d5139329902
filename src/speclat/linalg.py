"""Complex Hermitian eigensolving with eigenvalue clustering, projection
construction and positivity tests, all under one tolerance policy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, SpeclatError
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import check_hermitian


# distinct (matrix, tol) pairs whose eigensystems eigh keeps; one lattice
# request reads its operands and its result again and again, and a larger
# memo costs peak memory on wide matrices
_MEMO_SIZE = 8


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix: an eigenbasis plus
    cluster offsets.

    eigh may return one shared EigenSystem for every call on the same
    matrix (see _solve), so its arrays are read-only.

    Attributes
    ----------
    values : ndarray, shape (n,)
        Eigenvalues in ascending order.
    vectors : ndarray, shape (n, n)
        Orthonormal eigenvector columns, as LAPACK returns them. Readers use
        cluster spans, |V* W| or V diag(l) V*, never a column's phase or the
        basis inside a cluster; only FactorCanonicalRecovery's T keeps one
        column's phase.
    offsets : ndarray of int, shape (m,)
        Column count up to and including each cluster, from cluster_ends
        with width eps_eig: vectors[:, :offsets[i]] spans the spectral
        projection at breakpoints[i], and offsets[-1] = n.
    """

    values: np.ndarray
    vectors: np.ndarray
    offsets: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def breakpoints(self) -> np.ndarray:
        """Mean eigenvalue of each cluster, ascending."""
        # np.mean of a single value is 0.0 + value, bit for bit; skipping the
        # call on singleton clusters keeps the bits and saves most of the cost
        if len(self.offsets) == self.n:
            points = self.values + 0.0
        else:
            ends = self.offsets.tolist()
            points = np.array([
                0.0 + self.values[lo] if hi - lo == 1 else float(np.mean(self.values[lo:hi]))
                for lo, hi in zip([0] + ends[:-1], ends)
            ])
        points.flags.writeable = False
        return points

    @property
    def column_breakpoints(self) -> np.ndarray:
        """The breakpoint of each column: eigenvalues replaced by the mean
        of their cluster. With no tied eigenvalue there is one column per
        cluster, so this is breakpoints itself (values + 0.0), with no
        repeat."""
        if len(self.offsets) == self.n:
            return self.breakpoints
        # indexing by cluster costs a third of np.repeat over
        # np.diff(offsets, prepend=0) on a small tied matrix
        return self.breakpoints[np.searchsorted(self.offsets, np.arange(self.n), side="right")]

    def columns_at(self, points) -> np.ndarray:
        """Eigenvector count at or below each point: vectors[:, :k] spans the
        spectral projection there."""
        counts = np.concatenate(([0], self.offsets))
        return counts[np.searchsorted(self.breakpoints, points, side="right")]


def cluster_ends(points: np.ndarray, eps: float) -> np.ndarray:
    """End index (exclusive) of each cluster of an ascending array. A point
    joins the current cluster when it lies within eps of the previous point
    and of the cluster's first point, so a cluster spans at most eps."""
    pts = points.tolist()
    ends = []
    first = pts[0]
    for i in range(1, len(pts)):
        if not (pts[i] - pts[i - 1] <= eps and pts[i] - first <= eps):
            ends.append(i)
            first = pts[i]
    ends.append(len(pts))
    return np.array(ends)


def spectral_sum(vectors: np.ndarray, values) -> np.ndarray:
    """V diag(values) V* as an exactly Hermitian matrix."""
    m = (vectors * values) @ vectors.conj().T
    m += m.conj().T
    m *= 0.5
    return m


def eigh(x, tol: ToleranceConfig = DEFAULT_TOL, name: str = "matrix") -> EigenSystem:
    """Eigendecomposition with clustering: LAPACK's ascending eigenvalues
    and eigenbasis, plus the cluster offsets at width eps_eig.

    Only the cluster spans of the basis are meaningful; identical inputs
    give identical outputs because LAPACK is deterministic.

    x passes through check_hermitian first, with name in its error
    messages, on every call. The result may be shared with earlier calls on
    the same matrix and tol (_solve), so its arrays are read-only.
    """
    return _eigh_hermitian(check_hermitian(x, tol, name), tol)


def _eigh_hermitian(h: np.ndarray, tol: ToleranceConfig) -> EigenSystem:
    """The decomposition step of eigh, for a caller that already holds
    check_hermitian's output, so that the matrix is checked once."""
    return _solve(h.tobytes(), h.shape[0], tol)


@lru_cache(maxsize=_MEMO_SIZE)
def _solve(key: bytes, n: int, tol: ToleranceConfig) -> EigenSystem:
    """The eigensystem of the n x n matrix whose bytes are key, memoized
    over the _MEMO_SIZE most recent distinct (matrix, tol) pairs. The key
    is the matrix itself, so a hit is exact, and a matrix changed in place
    is solved again. A solve that fails keeps nothing and raises. A matrix
    that is not finite (a sum of blocks that overflowed), or whose spectrum
    is not, is NonFiniteError: callers that skip check_hermitian on an
    element's blocks rely on this."""
    h = np.frombuffer(key, dtype=np.complex128).reshape(n, n)
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        if np.isfinite(h).all():
            raise SpeclatError(f"eigensolver did not converge: {exc}") from None
        values = None  # refused below
    # map over a list costs a quarter of np.isfinite on a small spectrum
    if values is None or not all(map(math.isfinite, values.tolist())):
        what = "entries" if not np.isfinite(h).all() else "eigenvalues"
        raise NonFiniteError(f"matrix has {what} that are not finite (NaN or infinite)")
    offsets = cluster_ends(values, tol.eps_eig)
    for a in (values, vectors, offsets):
        a.flags.writeable = False
    return EigenSystem(values, vectors, offsets)


def split_range(a, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of the numerical range of a matrix and of
    its orthogonal complement: the left singular vectors with singular value
    above eps_proj, and the rest.

    The complement holds the unit vectors v with |a* v| <= eps_proj. For
    a = [1 - P_1 ... 1 - P_k], |a* v|^2 is the sum of the squared sines of
    the angles between v and the ranges of the P_i, so the rule compares a
    sine with eps_proj, as the order tests do. Wide matrices are fine: when
    a has at least as many columns as rows, the thin SVD's U is already
    square, so the full factors are formed only for a tall matrix.
    """
    if a.shape[1] == 0:
        # no range; LAPACK would cost as much here as on a small matrix
        return a, np.eye(a.shape[0], dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=a.shape[1] < a.shape[0])
    rank = int(np.count_nonzero(s > tol.eps_proj))
    return u[:, :rank], u[:, rank:]


def orthonormal_range(cols, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Projection onto the span of the given vectors.

    Parameters
    ----------
    cols : array-like, shape (n, k), or sequence of vectors
        Spanning vectors (linear dependence is fine); the numerical rank is
        decided by split_range.
    """
    if isinstance(cols, np.ndarray):
        a = np.asarray(cols, dtype=np.complex128)
        if a.ndim == 1:
            a = a.reshape(-1, 1)
    else:
        vecs = [np.asarray(v, dtype=np.complex128).ravel() for v in cols]
        if not vecs:
            raise DimensionMismatchError("cannot infer dimension from an empty vector list")
        a = np.column_stack(vecs)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected vectors, got array of shape {a.shape}")
    if a.shape[0] == 0:
        raise DimensionMismatchError("vectors have empty dimension")
    return spectral_sum(split_range(a, tol)[0], 1.0)


def is_psd(x, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Membership test for the positive cone: smallest eigenvalue >= -eps_proj,
    read from eigh's memoized eigensystem."""
    return bool(eigh(x, tol).values[0] >= -tol.eps_proj)
