"""Step-function representation of the bounded spectral family of a
Hermitian matrix.

A family is stored as breakpoints l_1 < ... < l_m with cumulative
projections P_1 < ... < P_m = 1; the value at l is P_i for
l in [l_i, l_{i+1}) and 0 below l_1. Storing the post-jump projection with
a closed-left convention makes right-continuity structural: no limits are
ever computed. The family of a matrix keeps only its eigensystem, an
eigenbasis plus cluster offsets, and builds a projection when it is read.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from itertools import islice

import numpy as np

from .errors import InvalidFamilyError
from .linalg import EigenSystem, cluster_ends, eigh, spectral_sum
from .projections import proj_leq
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import check_hermitian, max_abs, proj_rank


class SpectralFamily:
    """Cumulative spectral projections of a self-adjoint n x n matrix.

    Parameters
    ----------
    breakpoints : array-like, shape (m,)
        Strictly ascending jump locations.
    cumulative : sequence of (n, n) arrays
        Post-jump projections, strictly increasing, ending at the identity.
        A PrefixProjections is kept as it is, and satisfies the axioms by
        construction; any other sequence is read into a list and validated.
    """

    def __init__(self, breakpoints, cumulative, tol: ToleranceConfig = DEFAULT_TOL):
        self.breakpoints = np.asarray(breakpoints, dtype=float).ravel()
        self.tol = tol
        if isinstance(cumulative, PrefixProjections):
            self.cumulative, self.n = cumulative, cumulative.n
        else:
            self.cumulative = [np.asarray(p, dtype=np.complex128) for p in cumulative]
            self.n = self.cumulative[0].shape[0] if self.cumulative else 0
            self._validate()

    def _validate(self) -> None:
        if len(self.breakpoints) == 0 or len(self.breakpoints) != len(self.cumulative):
            raise InvalidFamilyError(
                f"{len(self.breakpoints)} breakpoints vs {len(self.cumulative)} projections"
            )
        if not np.all(np.isfinite(self.breakpoints)):
            raise InvalidFamilyError("breakpoints must be finite")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise InvalidFamilyError("breakpoints must be strictly ascending")
        ranks = []
        for i, p in enumerate(self.cumulative):
            check_hermitian(p, self.tol, name=f"cumulative[{i}]")
            if max_abs(p @ p - p) > self.tol.eps_proj:
                raise InvalidFamilyError(f"cumulative[{i}] is not idempotent")
            ranks.append(proj_rank(p))
        for i in range(len(ranks) - 1):
            if ranks[i + 1] <= ranks[i] or not proj_leq(
                self.cumulative[i], self.cumulative[i + 1], self.tol
            ):
                raise InvalidFamilyError(f"family is not strictly increasing at step {i}")
        n = self.n
        if ranks[-1] != n or max_abs(self.cumulative[-1] - np.eye(n)) > self.tol.eps_proj:
            raise InvalidFamilyError("family must end at the identity")

    def evaluate(self, lam: float) -> np.ndarray:
        """Value at lam: P_i for lam in [l_i, l_{i+1}), 0 below l_1.

        On a family from family_of this builds P_i, i + 1 prefix updates
        of O(n^3) each; a caller that evaluates at many points builds the
        projections once, as a family over list(cumulative).
        """
        i = int(np.searchsorted(self.breakpoints, lam, side="right")) - 1
        if i < 0:
            return np.zeros((self.n, self.n), dtype=np.complex128)
        return self.cumulative[i]

    def steps(self):
        """Iterate (breakpoint, cumulative projection) pairs."""
        return zip(self.breakpoints, self.cumulative)

    def __repr__(self) -> str:
        pts = ", ".join(f"{b:.6g}" for b in self.breakpoints)
        return f"SpectralFamily(n={self.n}, breakpoints=[{pts}])"


class PrefixProjections(Sequence):
    """The cumulative projections of an eigensystem, built when they are
    read: P_i = P_{i-1} + W_i W_i* (spectral_sum, exactly Hermitian), where
    W_i holds cluster i's eigenvectors and P_0 = 0, and the identity in the
    last slot. It holds the eigensystem only, O(n^2) memory.

    Iterating costs O(n^3) in all. It keeps one running sum and yields a
    copy of it, so a caller may write into a yielded projection at any
    time. cumulative[i] runs the same updates up to i, O(i n^3), so it has
    the bytes that iterating yields at i. Each access returns a new array.
    """

    def __init__(self, es: EigenSystem):
        self._es = es
        self.n = es.n

    def __len__(self) -> int:
        return len(self._es.offsets)

    def __getitem__(self, i):
        i, m = operator.index(i), len(self)
        k = i + m if i < 0 else i
        if not 0 <= k < m:
            raise IndexError(f"cumulative index {i} out of range for {m} projections")
        if k == m - 1:
            return np.eye(self.n, dtype=np.complex128)
        return next(islice(self, k, None))

    def __iter__(self):
        es = self._es
        prev, start = np.zeros((es.n, es.n), dtype=np.complex128), 0
        for end in es.offsets[:-1].tolist():
            prev += spectral_sum(es.vectors[:, start:end], 1.0)
            start = end
            yield prev.copy()
        yield np.eye(es.n, dtype=np.complex128)


def family_of(x, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralFamily:
    """Spectral family of a Hermitian matrix.

    Breakpoints are the clustered eigenvalues (eigenvalues within eps_eig
    merge into one breakpoint at their multiplicity-weighted mean); the
    cumulative projection at breakpoint i spans all eigenvectors with
    eigenvalue at most l_i.

    x is a matrix or its eigensystem (see eigh). The family keeps that
    memoized eigensystem, and its cumulative projections are built when
    they are read (PrefixProjections), so family_of itself forms no n x n
    matrix.
    """
    es = eigh(x, tol)
    return SpectralFamily(es.breakpoints, PrefixProjections(es), tol)


def element_of(family: SpectralFamily) -> np.ndarray:
    """Inverse of family_of: sum_i l_i (P_i - P_{i-1}) with P_0 = 0."""
    n = family.n
    x = np.zeros((n, n), dtype=np.complex128)
    prev = np.zeros((n, n), dtype=np.complex128)
    for lam, p in family.steps():
        x += lam * (p - prev)
        prev = p
    return (x + x.conj().T) / 2.0


def merged_breakpoints(families, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Comparison grid for a collection of families, or of anything else
    with ascending breakpoints (an EigenSystem, for example).

    The union of all breakpoints is clustered the way eigh clusters
    eigenvalues (cluster_ends, width eps_eig); each cluster is represented
    by its maximum, the first point at which every member
    family has completed the jumps inside that cluster. Between consecutive
    representatives all the step functions are constant, so evaluating at
    the representatives determines every pointwise comparison.
    """
    pts = np.sort(np.concatenate([f.breakpoints for f in families]))
    return pts[cluster_ends(pts, tol.eps_eig) - 1]
