"""The spectral order on Hermitian matrices.

x precedes y when E^y_l <= E^x_l for every l, where E^x is the spectral
family of x. Order tests read the clustered eigensystems directly: each
spectral projection is a prefix span of an eigenbasis, so one product of
the two bases decides the comparison at every merged breakpoint. Suprema
are pointwise projection meets at the merged breakpoints, found inside the
first operand's eigenbasis: at each breakpoint a small Gram matrix, with
proj_meet's eps_proj rule, gives the directions the meet gains there, and
no n x n projection is formed. Since x -> -x reverses the order, infima are
the negated suprema of the negations.
"""

from __future__ import annotations

import numpy as np

from .errors import ConeError, DimensionMismatchError
from .family import SpectralFamily, element_of, family_of, merged_breakpoints
from .linalg import eigh
from .monotone import MonotoneBijection
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import check_hermitian, check_same_dim, max_abs

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


def _columns_at(es, reps) -> np.ndarray:
    """Eigenvector count of es at or below each merged breakpoint."""
    counts = np.array((0,) + es.offsets)
    return counts[np.searchsorted(es.breakpoints, reps, side="right")]


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
    return bool(np.all(worst[_columns_at(ex, reps), _columns_at(ey, reps)] <= tol.eps_proj))


def _validated(xs, cone: str, tol: ToleranceConfig) -> list[np.ndarray]:
    mats = [check_cone(x, cone, tol, name=f"element[{i}]") for i, x in enumerate(xs)]
    if not mats:
        raise DimensionMismatchError("supremum/infimum of an empty list")
    check_same_dim(*mats)
    return mats


def _join(mats, tol: ToleranceConfig) -> np.ndarray:
    """spec_join of matrices that are already validated.

    E^join_l is the meet of the E^m_l, so it lies in the first operand's
    E_l, the span of its first a eigenvectors V[:, :a]. A vector V[:, :a] c
    lies in another operand's E_l, the span of its first b eigenvectors
    V_k[:, :b], exactly when C_k[:a, b:]* c = 0, where C_k = V* V_k. So on
    the first operand's range, sum_k C_k[:a, b:] C_k[:a, b:]* is the Gram
    sum_i (1 - P_i) of proj_meet, and its eigenvectors with eigenvalue at
    most eps_proj span the meet. Adding Q Q*, for the directions Q found
    at earlier breakpoints, leaves only the directions new at l. Each new
    direction carries l as its eigenvalue in the result.
    """
    systems = [eigh(m, tol) for m in mats]
    first = systems[0]
    n = first.n
    cross = [first.vectors.conj().T @ es.vectors for es in systems[1:]]
    reps = merged_breakpoints(systems, tol)
    counts = [_columns_at(es, reps) for es in systems]
    # columns of q: orthonormal directions of the join in first.vectors
    # coordinates, in the order they appear
    q = np.zeros((n, n), dtype=np.complex128)
    values = np.empty(n)
    found = 0
    for i, lam in enumerate(reps):
        a = counts[0][i]
        if a <= found:
            continue
        known = q[:a, :found]
        gram = known @ known.conj().T
        for c, b in zip(cross, counts[1:]):
            outside = c[:a, b[i]:]
            gram += outside @ outside.conj().T
        w, u = np.linalg.eigh(gram)
        # every family is the identity at the last breakpoint, so all the
        # remaining directions are new there
        fresh = a - found if i == len(reps) - 1 else int(np.count_nonzero(w <= tol.eps_proj))
        q[:a, found : found + fresh] = u[:, :fresh]
        values[found : found + fresh] = lam
        found += fresh
    basis = first.vectors @ q
    x = (basis * values) @ basis.conj().T
    return (x + x.conj().T) / 2.0


def spec_join(xs, cone: str = SELF_ADJOINT, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Supremum in the spectral order: the element whose family is the
    pointwise projection meet of the input families, computed in the first
    operand's eigenbasis with the eps_proj null-space rule of proj_meet."""
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
