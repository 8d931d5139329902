"""Step-function representation of the bounded spectral family of a
Hermitian matrix.

A family is stored as breakpoints l_1 < ... < l_m with cumulative
projections P_1 < ... < P_m = 1; the value at l is P_i for
l in [l_i, l_{i+1}) and 0 below l_1. Storing the post-jump projection with
a closed-left convention makes right-continuity structural: no limits are
ever computed.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidFamilyError
from .linalg import cluster_ends, eigh, spectral_sum
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
    """

    def __init__(self, breakpoints, cumulative, tol: ToleranceConfig = DEFAULT_TOL, validate: bool = True):
        self.breakpoints = np.asarray(breakpoints, dtype=float).ravel()
        self.cumulative = [np.asarray(p, dtype=np.complex128) for p in cumulative]
        self.tol = tol
        if validate:
            self._validate()

    @property
    def n(self) -> int:
        return self.cumulative[0].shape[0]

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
        """Value at lam: P_i for lam in [l_i, l_{i+1}), 0 below l_1."""
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


def family_of(x, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralFamily:
    """Spectral family of a Hermitian matrix.

    Breakpoints are the clustered eigenvalues (eigenvalues within eps_eig
    merge into one breakpoint at their multiplicity-weighted mean); the
    cumulative projection at breakpoint i spans all eigenvectors with
    eigenvalue at most l_i.

    The projections are the slices of one (m, n, n) stack, built as prefix
    updates P_i = P_{i-1} + W_i W_i*, where W_i holds cluster i's
    eigenvectors: O(n^3) in all. Each update is exactly Hermitian
    (spectral_sum), and so is each sum of them.
    """
    es = eigh(x, tol)
    stack = np.empty((len(es.offsets), es.n, es.n), dtype=np.complex128)
    prev, start = 0.0, 0
    for p, end in zip(stack, es.offsets[:-1]):
        np.add(prev, spectral_sum(es.vectors[:, start:end], 1.0), out=p)
        prev, start = p, end
    stack[-1] = np.eye(es.n)
    # ascending prefix projections of an orthonormal eigenbasis satisfy the
    # axioms by construction
    return SpectralFamily(es.breakpoints, list(stack), tol, validate=False)


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
