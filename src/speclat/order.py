"""The spectral order on Hermitian matrices.

x precedes y when E^y_l <= E^x_l for every l, where E^x is the spectral
family of x. Order tests read the clustered eigensystems directly: each
spectral projection is a prefix span of an eigenbasis, so one product of
the two bases decides the comparison at every merged breakpoint. Suprema
are pointwise projection meets at the merged breakpoints; since x -> -x
reverses the order, infima are the negated suprema of the negations.
"""

from __future__ import annotations

import numpy as np

from .errors import ConeError, DimensionMismatchError, InvalidFamilyError
from .family import SpectralFamily, element_of, family_of, merged_breakpoints
from .linalg import eigh
from .monotone import MonotoneBijection
from .projections import proj_meet
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import check_hermitian, check_same_dim, max_abs, proj_rank

SELF_ADJOINT = "sa"
POSITIVE = "pos"
EFFECT = "eff"
CONES = (SELF_ADJOINT, POSITIVE, EFFECT)


def check_cone(x, cone: str, tol: ToleranceConfig = DEFAULT_TOL, name: str = "element") -> np.ndarray:
    """Validate cone membership (sa / pos / eff) and return the symmetrized
    matrix."""
    if cone not in CONES:
        raise ConeError(f"unknown cone {cone!r}, expected one of {CONES}")
    h = check_hermitian(x, tol, name)
    if cone == SELF_ADJOINT:
        return h
    w = np.linalg.eigvalsh(h)
    if w[0] < -tol.eps_proj:
        raise ConeError(f"{name} has eigenvalue {w[0]:.3e} < 0, outside cone {cone!r}")
    if cone == EFFECT and w[-1] > 1.0 + tol.eps_proj:
        raise ConeError(f"{name} has eigenvalue {w[-1]:.10g} > 1, outside cone 'eff'")
    return h


def cone_domain(cone: str) -> tuple[float, float]:
    """Scalar domain of a cone: the interval the scalar part of a canonical
    isomorphism must map onto itself."""
    if cone == EFFECT:
        return (0.0, 1.0)
    if cone == POSITIVE:
        return (0.0, np.inf)
    return (-np.inf, np.inf)


def check_scalar_map(f: MonotoneBijection, cone: str, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Refuse a scalar map that does not fix the finite endpoints of the
    cone's domain, since it is then not a bijection of that domain."""
    for endpoint in cone_domain(cone):
        if np.isfinite(endpoint) and not f.fixes(endpoint, atol=tol.eps_recon):
            raise ConeError(
                f"scalar map does not fix {endpoint:g}, so it is not a bijection "
                f"of the {cone!r} domain"
            )


def spec_leq(x, y, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Spectral order test x <= y, i.e. E^y_l <= E^x_l for all l.

    Both step families are constant between their merged breakpoints, so
    the merged breakpoints decide the comparison at every real l. At a
    breakpoint l, E^x_l spans the first a eigenvectors of x and E^y_l the
    first b of y, and E^y_l <= E^x_l exactly when the remaining n - a
    eigenvectors of x are orthogonal to those b of y: every entry of
    C[a:, :b] is at most eps_proj, where C = |V_x* V_y|. One running max
    over C answers all breakpoints at once, and no projection is formed.
    """
    ex = eigh(check_hermitian(x, tol, "x"), tol)
    ey = eigh(check_hermitian(y, tol, "y"), tol)
    n = ex.n
    if n != ey.n:
        raise DimensionMismatchError(f"dimension mismatch: {n} vs {ey.n}")
    # padded[a, b + 1] = C[a, b], with a zero last row and first column, so
    # that after a suffix max over rows and a prefix max over columns,
    # worst[a, b] = max C[a:, :b] (0 for the empty block)
    padded = np.zeros((n + 1, n + 1))
    padded[:n, 1:] = np.abs(ex.vectors.conj().T @ ey.vectors)
    worst = np.maximum.accumulate(np.maximum.accumulate(padded[::-1], axis=0)[::-1], axis=1)
    reps = merged_breakpoints([ex, ey], tol)

    def columns_at(es) -> np.ndarray:
        """Eigenvector count at or below each merged breakpoint."""
        counts = np.array((0,) + es.offsets)
        return counts[np.searchsorted(es.breakpoints, reps, side="right")]

    return bool(np.all(worst[columns_at(ex), columns_at(ey)] <= tol.eps_proj))


def _family_from_steps(reps, projs, tol: ToleranceConfig) -> SpectralFamily:
    """Compress a monotone step sequence into a valid spectral family,
    keeping only the breakpoints where the rank jumps."""
    kept_b: list[float] = []
    kept_p: list[np.ndarray] = []
    prev_rank = 0
    for lam, p in zip(reps, projs):
        r = proj_rank(p)
        if r < prev_rank:
            raise InvalidFamilyError("projection steps decreased in rank")
        if r > prev_rank:
            kept_b.append(float(lam))
            kept_p.append(p)
            prev_rank = r
    n = projs[0].shape[0]
    if prev_rank != n:
        raise InvalidFamilyError("projection steps never reach the identity")
    kept_p[-1] = np.eye(n, dtype=np.complex128)
    return SpectralFamily(kept_b, kept_p, tol)


def _validated(xs, cone: str, tol: ToleranceConfig) -> list[np.ndarray]:
    mats = [check_cone(x, cone, tol, name=f"element[{i}]") for i, x in enumerate(xs)]
    if not mats:
        raise DimensionMismatchError("supremum/infimum of an empty list")
    check_same_dim(*mats)
    return mats


def _join(mats, tol: ToleranceConfig) -> np.ndarray:
    """spec_join of matrices that are already validated."""
    fams = [family_of(m, tol) for m in mats]
    reps = merged_breakpoints(fams, tol)
    projs = [proj_meet([f.evaluate(lam) for f in fams], tol) for lam in reps]
    return element_of(_family_from_steps(reps, projs, tol))


def spec_join(xs, cone: str = SELF_ADJOINT, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Supremum in the spectral order: the element whose family is the
    pointwise projection meet of the input families."""
    return _join(_validated(xs, cone, tol), tol)


def spec_meet(xs, cone: str = SELF_ADJOINT, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Infimum in the spectral order, as the negated supremum of the
    negations: x -> -x reverses the order, so inf(xs) = -sup(-xs).

    The cones 'pos' and 'eff' are sublattices of the self-adjoint lattice,
    so after the cone check the supremum is taken there, where -x lives.
    """
    # 0.0 - s rather than -s keeps zero entries unsigned (0.0, not -0.0)
    return 0.0 - _join([-m for m in _validated(xs, cone, tol)], tol)


def pos_neg_parts(x, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative parts by eigenvalue clipping.

    Returns (x_plus, x_minus) with x = x_plus - x_minus, both positive
    semidefinite and with orthogonal supports.
    """
    es = eigh(x, tol)
    v = es.vectors
    plus = (v * np.maximum(es.values, 0.0)) @ v.conj().T
    minus = (v * np.maximum(-es.values, 0.0)) @ v.conj().T
    return (plus + plus.conj().T) / 2.0, (minus + minus.conj().T) / 2.0


def apply_monotone(
    f: MonotoneBijection, x, cone: str = SELF_ADJOINT, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Monotone functional calculus: eigenvalues pass through f, spectral
    projections stay fixed.

    f must be a strictly increasing bijection of the cone's scalar domain,
    which for 'pos' and 'eff' pins the relevant endpoints.
    """
    h = check_cone(x, cone, tol)
    check_scalar_map(f, cone, tol)
    fam = family_of(h, tol)
    mapped = SpectralFamily(f(fam.breakpoints), fam.cumulative, tol)
    return element_of(mapped)


def atom_scalar_decompose(
    x, cone: str, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[float, np.ndarray] | None:
    """Write x as alpha * e for a rank-one projection e, if possible.

    Only meaningful on the positive and effect cones, where the scalar
    multiples of atomic projections are exactly the elements below which the
    order is total. Returns None when x has rank above one.
    """
    if cone not in (POSITIVE, EFFECT):
        raise ConeError("atom decomposition is defined on cones 'pos' and 'eff'")
    h = check_cone(x, cone, tol, "x")
    if max_abs(h) <= tol.eps_proj:
        raise ConeError("x = 0 admits no atomic decomposition")
    es = eigh(h, tol)
    significant = np.nonzero(es.values > tol.eps_proj)[0]
    if len(significant) != 1:
        return None
    i = int(significant[0])
    v = es.vectors[:, i]
    e = np.outer(v, v.conj())
    return float(es.values[i]), (e + e.conj().T) / 2.0


def is_central(z, profile, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff z is block-diagonal for the given factor profile with every
    diagonal block a real scalar multiple of that block's identity."""
    return central_scalars(z, profile, tol) is not None


def central_scalars(z, profile, tol: ToleranceConfig = DEFAULT_TOL) -> list[float] | None:
    """The per-block scalars of a central element, or None if z is not
    central for the profile."""
    dims = tuple(getattr(profile, "dims", profile))
    h = check_hermitian(z, tol, "z")
    if h.shape[0] != sum(dims):
        raise DimensionMismatchError(
            f"matrix of dimension {h.shape[0]} does not fit profile {dims}"
        )
    scalars: list[float] = []
    offset_i = 0
    for i, di in enumerate(dims):
        offset_j = 0
        for j, dj in enumerate(dims):
            block = h[offset_i : offset_i + di, offset_j : offset_j + dj]
            if i == j:
                c = float(np.real(np.trace(block))) / di
                if max_abs(block - c * np.eye(di)) > tol.eps_proj:
                    return None
                scalars.append(c)
            elif max_abs(block) > tol.eps_proj:
                return None
            offset_j += dj
        offset_i += di
    return scalars


def distributive_check(
    z, x, y, cone: str = SELF_ADJOINT, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Test z v (x ^ y) == (z v x) ^ (z v y) in the spectral lattice."""
    lhs = spec_join([z, spec_meet([x, y], cone, tol)], cone, tol)
    rhs = spec_meet([spec_join([z, x], cone, tol), spec_join([z, y], cone, tol)], cone, tol)
    return max_abs(lhs - rhs) <= tol.eps_recon
