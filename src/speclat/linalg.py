"""Complex Hermitian eigensolving with eigenvalue clustering, projection
construction and positivity tests, all under one tolerance policy."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, SpeclatError
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import check_hermitian

_PHASE_FLOOR = 1e-12


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    Attributes
    ----------
    values : ndarray, shape (n,)
        Eigenvalues in ascending order.
    vectors : ndarray, shape (n, n)
        Orthonormal eigenvector columns, phase-normalized so that the first
        component above the noise floor is positive real.
    clusters : tuple of tuple of int
        Partition of column indices into groups whose eigenvalues differ by
        at most eps_eig; each group is one spectral breakpoint.
    """

    values: np.ndarray
    vectors: np.ndarray
    clusters: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def breakpoints(self) -> np.ndarray:
        """Mean eigenvalue of each cluster, ascending."""
        # np.mean of a single value is 0.0 + value, bit for bit; skipping the
        # call on singleton clusters keeps the bits and saves most of the cost
        return np.array([
            0.0 + self.values[group[0]] if len(group) == 1 else float(np.mean(self.values[list(group)]))
            for group in self.clusters
        ])

    @property
    def column_breakpoints(self) -> np.ndarray:
        """The breakpoint of each column: eigenvalues replaced by the mean
        of their cluster."""
        return np.repeat(self.breakpoints, [len(group) for group in self.clusters])

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Column count up to and including each cluster: vectors[:, :offsets[i]]
        spans the spectral projection at breakpoints[i]."""
        return tuple(group[-1] + 1 for group in self.clusters)


def _normalize_phase(column: np.ndarray) -> np.ndarray:
    for entry in column:
        if abs(entry) > _PHASE_FLOOR:
            return column * (entry.conjugate() / abs(entry))
    return column


def _first_support(column: np.ndarray) -> int:
    idx = np.nonzero(np.abs(column) > _PHASE_FLOOR)[0]
    return int(idx[0]) if idx.size else len(column)


def eigh(x, tol: ToleranceConfig = DEFAULT_TOL, name: str = "matrix") -> EigenSystem:
    """Eigendecomposition with deterministic ordering and clustering.

    Eigenvalues come out ascending; within a cluster the columns are
    phase-normalized and stably ordered by the index of their first
    supported component, so identical inputs give identical outputs.

    x passes through check_hermitian first, with name in its error
    messages.
    """
    return _eigh_hermitian(check_hermitian(x, tol, name), tol)


def _eigh_hermitian(h: np.ndarray, tol: ToleranceConfig) -> EigenSystem:
    """The decomposition step of eigh, for a caller that already holds
    check_hermitian's output, so that the matrix is checked once."""
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise SpeclatError(f"eigensolver did not converge: {exc}") from None

    starts = [0]
    for i in range(1, len(values)):
        if not (values[i] - values[starts[-1]] <= tol.eps_eig and values[i] - values[i - 1] <= tol.eps_eig):
            starts.append(i)
    bounds = list(zip(starts, starts[1:] + [len(values)]))

    cols = [_normalize_phase(vectors[:, i]) for i in range(len(values))]
    order: list[int] = []
    for lo, hi in bounds:
        order.extend(sorted(range(lo, hi), key=lambda i: _first_support(cols[i])))
    return EigenSystem(
        values=values[order],
        vectors=np.column_stack([cols[i] for i in order]),
        clusters=tuple(tuple(range(lo, hi)) for lo, hi in bounds),
    )


def reconstruct(es: EigenSystem) -> np.ndarray:
    """V diag(values) V* as an exactly Hermitian matrix."""
    m = (es.vectors * es.values) @ es.vectors.conj().T
    return (m + m.conj().T) / 2.0


def orthonormal_range(cols, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Projection onto the span of the given vectors.

    Parameters
    ----------
    cols : array-like, shape (n, k), or sequence of vectors
        Spanning vectors (linear dependence is fine); the numerical rank is
        decided by the singular-value threshold eps_proj.
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
    n = a.shape[0]
    if n == 0:
        raise DimensionMismatchError("vectors have empty dimension")
    if a.shape[1] == 0:
        return np.zeros((n, n), dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > tol.eps_proj))
    basis = u[:, :rank]
    p = basis @ basis.conj().T
    return (p + p.conj().T) / 2.0


def range_basis(p, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a projection."""
    es = eigh(p, tol)
    keep = es.values > 0.5
    return es.vectors[:, keep]


def is_psd(x, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Membership test for the positive cone: smallest eigenvalue >= -eps_proj."""
    h = check_hermitian(x, tol)
    w = np.linalg.eigvalsh(h)
    return bool(w[0] >= -tol.eps_proj)
