"""The spectral order on Hermitian matrices.

x precedes y when E^y_l <= E^x_l for every l, where E^x is the spectral
family of x. Order tests read the clustered eigensystems directly: each
spectral projection is a prefix span of an eigenbasis, so one product of
the two bases decides the comparison at every merged breakpoint. Suprema
are pointwise projection meets at the merged breakpoints, built from the
top breakpoint down: each step splits what is left of the meet against the
eigenvectors that enter its complement there, by split_range, the
singular-value rule of the projection lattice; no n x n projection is
formed. Where one eigenvector enters at each of several steps in a row, as
on generic operands, that rule reads |R_tt| of one QR of the run, so one
factorization decides the whole run. Like spec_leq, that rule measures
sines against eps_proj, so x <= x v y and De Morgan's laws hold for nearly
aligned operands. Since x -> -x reverses the order, infima are the negated
suprema of the negations; the eigensystem of -x is that of x read in
reverse, so an infimum solves no matrix that a supremum of the same
operands has not, and eigh's memo (linalg._solve) answers both. Every
operation takes each operand as a matrix, validated, or as its eigensystem
from eigh under the same tol, read as it is.
"""

from __future__ import annotations

import numpy as np

from .errors import ConeError, DimensionMismatchError
from .family import merged_breakpoints
from .linalg import EigenSystem, _eigh_hermitian, cluster_ends, eigh, spectral_sum, split_range
from .monotone import MonotoneBijection
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import check_hermitian, check_same_dim, max_abs

SELF_ADJOINT = "sa"
POSITIVE = "pos"
EFFECT = "eff"
# each cone is the set of elements whose spectrum lies in its interval
_DOMAINS = {SELF_ADJOINT: (-np.inf, np.inf), POSITIVE: (0.0, np.inf), EFFECT: (0.0, 1.0)}
CONES = tuple(_DOMAINS)


def cone_domain(cone: str) -> tuple[float, float]:
    """The interval (lo, hi) of a cone: the cone holds the elements whose
    spectrum lies in it, and the scalar part of a canonical isomorphism
    maps it onto itself. Every decision on the cone reads these ends. An
    unknown name raises ConeError."""
    try:
        return _DOMAINS[cone]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ConeError(f"unknown cone {cone!r}, expected one of {CONES}") from None


def _check_spectrum(values, cone: str, tol: ToleranceConfig, name: str) -> None:
    """Refuse eigenvalues outside the cone's interval, widened by eps_proj.
    Every caller passes ascending values, so the ends are the extremes."""
    lo, hi = cone_domain(cone)
    if values[0] < lo - tol.eps_proj:
        raise ConeError(f"{name} has eigenvalue {values[0]:.3e} < {lo:g}, outside cone {cone!r}")
    if values[-1] > hi + tol.eps_proj:
        raise ConeError(f"{name} has eigenvalue {values[-1]:.10g} > {hi:g}, outside cone {cone!r}")


def check_cone(x, cone: str, tol: ToleranceConfig = DEFAULT_TOL, name: str = "element") -> np.ndarray:
    """Validate cone membership (sa / pos / eff) and return the symmetrized
    matrix. Membership in a cone with a finite end is read from eigh's
    memoized eigensystem, so an operation that goes on to decompose the
    returned matrix solves it no second time."""
    lo, hi = cone_domain(cone)
    h = check_hermitian(x, tol, name)
    if np.isfinite(lo) or np.isfinite(hi):
        _check_spectrum(_eigh_hermitian(h, tol).values, cone, tol, name)
    return h


def _cone_eigh(x, cone: str, tol: ToleranceConfig, name: str = "element") -> EigenSystem:
    """One validated eigensolve of x (or x itself, when it is already an
    eigensystem), with its cone membership read from that same spectrum."""
    cone_domain(cone)
    es = eigh(x, tol, name)
    _check_spectrum(es.values, cone, tol, name)
    return es


def _negated(es: EigenSystem, tol: ToleranceConfig) -> EigenSystem:
    """The eigensystem of -x from that of x: the same columns and values in
    reverse, negated so that they ascend, and clustered again from the low
    end as eigh clusters."""
    # 0.0 - v rather than -v keeps zero eigenvalues unsigned
    values = 0.0 - es.values[::-1]
    return EigenSystem(values, es.vectors[:, ::-1], cluster_ends(values, tol.eps_eig))


def endpoint_deviations(f: MonotoneBijection, cone: str) -> tuple[tuple[float, float], ...]:
    """(e, |f(e) - e|) for each finite endpoint e of the cone's scalar
    domain. They depend on f and the cone only, so an isomorphism computes
    them once."""
    return tuple((e, abs(f(e) - e)) for e in cone_domain(cone) if np.isfinite(e))


def check_scalar_map(deviations, cone: str, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Refuse a scalar map that moves a finite endpoint of the cone's domain
    by more than eps_recon (deviations from endpoint_deviations), since it
    is then not a bijection of that domain."""
    for endpoint, deviation in deviations:
        if not deviation <= tol.eps_recon:
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
    ex = eigh(x, tol, "x")
    ey = eigh(y, tol, "y")
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
    return bool(np.all(worst[ex.columns_at(reps), ey.columns_at(reps)] <= tol.eps_proj))


def _validated(xs, cone: str, tol: ToleranceConfig) -> list[EigenSystem]:
    """The eigensystems of the operands, each validated and checked against
    the cone once."""
    systems = [_cone_eigh(x, cone, tol, f"element[{i}]") for i, x in enumerate(xs)]
    if not systems:
        raise DimensionMismatchError("supremum/infimum of an empty list")
    check_same_dim(*(es.vectors for es in systems))
    return systems


def _join(systems: list[EigenSystem], tol: ToleranceConfig) -> np.ndarray:
    """spec_join from the operands' validated eigensystems, built from the
    top breakpoint down.

    E^join_l is the meet of the E^m_l, so its complement is F_l, the span of
    every operand's eigenvectors above l, and F_l only grows as l falls. h
    holds an orthonormal basis of E^join_l, starting from the identity above
    the top breakpoint. Stepping below a breakpoint l, only the eigenvectors
    that enter F there are new: they split h into reach, the directions of
    h they reach, which leave E^join and carry l, and stay, the rest. Below
    the lowest breakpoint each operand's eigenvectors span everything, so
    what is left of h carries that breakpoint with no split.

    Where several eigenvectors B enter (ties, commuting operands, x v x),
    split_range of h* B decides the step. Where a single eigenvector b
    enters, the one singular value of h* b is the residual of b against the
    directions already taken, so a run of such steps is a Gram-Schmidt
    sequence, and one Householder QR of h* [b_1 ... b_w] decides it: the
    t-th step takes the direction (h Q)[:, t] exactly when |R_tt| >
    eps_proj, split_range's sine rule. A run takes every one-column step in
    a row, up to the k directions left in h, and stops at its first refused
    column, whose direction stays in h; a run of one step goes through
    split_range, since numpy's SVD of a column costs less than its QR.
    Either way one update moves h reach out of h, and a step that takes no
    direction leaves h as it is.
    """
    n = systems[0].n
    reps = merged_breakpoints(systems, tol)
    # an eigenvector enters F below the first merged breakpoint at or above
    # its own; columns holds every operand's eigenvectors in the order they
    # enter, operand by operand within a step, so each step's B is the next
    # widths[i] columns
    steps = np.searchsorted(reps, np.concatenate([es.column_breakpoints for es in systems]))
    columns = np.concatenate([es.vectors for es in systems], axis=1)[:, np.argsort(-steps, kind="stable")]
    widths = np.bincount(steps, minlength=len(reps)).tolist()
    # f[:, :k] is h; f[:, k:] holds the directions that left it, carrying
    # values[k:]
    f = np.eye(n, dtype=np.complex128)
    values = np.empty(n)
    k, i, pos = n, len(reps) - 1, 0
    # below reps[i], while some direction of h has no eigenvalue yet
    while i > 0 and k > 0:
        h = f[:, :k]
        w = 1
        while widths[i] == 1 and w < k and i - w > 0 and widths[i - w] == 1:
            w += 1
        if w == 1:
            # one step of widths[i] columns, whose reach carries reps[i]
            reach, stay = split_range(h.conj().T @ columns[:, pos : pos + widths[i]], tol)
            t, carried, done, used = reach.shape[1], reps[i], 1, widths[i]
        else:
            # steps i, i - 1, ..., i - w + 1, one column each: the first t
            # take theirs, and step i - t, when t < w, takes nothing
            q, r = np.linalg.qr(h.conj().T @ columns[:, pos : pos + w], mode="complete")
            taken = np.abs(np.diagonal(r)) > tol.eps_proj
            t = w if taken.all() else int(taken.argmin())
            reach, stay, carried = q[:, :t], q[:, t:], reps[i - t + 1 : i + 1][::-1]
            done = used = min(t + 1, w)
        if t:
            f[:, : k - t], f[:, k - t : k] = h @ stay, h @ reach
            values[k - t : k] = carried
            k -= t
        i, pos = i - done, pos + used
    values[:k] = reps[0]
    return spectral_sum(f, values)


def spec_join(xs, cone: str = SELF_ADJOINT, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Supremum in the spectral order: the element whose family is the
    pointwise projection meet of the input families, computed with the sine
    rule of proj_meet (split_range, or |R_tt| of one QR over a run of
    one-column steps)."""
    return _join(_validated(xs, cone, tol), tol)


def spec_meet(xs, cone: str = SELF_ADJOINT, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Infimum in the spectral order, as the negated supremum of the
    negations: x -> -x reverses the order, so inf(xs) = -sup(-xs).

    The cones 'pos' and 'eff' are sublattices of the self-adjoint lattice,
    so after the cone check the supremum is taken there, where -x lives.
    Each operand is decomposed once, as x (a memo hit after spec_join or
    spec_leq of the same operand), its cone membership is read from that
    spectrum, and the eigensystem of -x is x's read in reverse.
    """
    # 0.0 - s rather than -s keeps zero entries unsigned (0.0, not -0.0)
    return 0.0 - _join([_negated(es, tol) for es in _validated(xs, cone, tol)], tol)


def pos_neg_parts(x, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative parts by eigenvalue clipping.

    Returns (x_plus, x_minus) with x = x_plus - x_minus, both positive
    semidefinite and with orthogonal supports.
    """
    es = eigh(x, tol)
    v, w = es.vectors, es.values
    # w ascends, so w[k:] > 0 >= w[:k]; 0.0 - w keeps a zero weight unsigned
    k = int(np.searchsorted(w, 0.0, side="right"))
    return spectral_sum(v[:, k:], w[k:]), spectral_sum(v[:, :k], 0.0 - w[:k])


def distributive_check(
    z, x, y, cone: str = SELF_ADJOINT, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Test z v (x ^ y) == (z v x) ^ (z v y) in the spectral lattice."""
    lhs = spec_join([z, spec_meet([x, y], cone, tol)], cone, tol)
    rhs = spec_meet([spec_join([z, x], cone, tol), spec_join([z, y], cone, tol)], cone, tol)
    return max_abs(lhs - rhs) <= tol.eps_recon
