"""Concrete carriers for order isomorphisms: projection-lattice maps induced
by invertible (anti)linear matrices (a Jordan map's among them), canonical
single-factor isomorphisms, and blockwise direct-sum isomorphisms with a
permutation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .directsum import BlockProfile, DirectSumElement, _check_profiles
from .errors import ConeError, DimensionMismatchError, InvalidFamilyError, NonFiniteError, SpeclatError
from .linalg import EigenSystem, _eigh_hermitian, orthonormal_range, spectral_sum, split_range
from .monotone import MonotoneBijection
from .order import SELF_ADJOINT, _check_spectrum, check_scalar_map, cone_domain, endpoint_deviations
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import check_hermitian, max_abs


@dataclass(frozen=True)
class ProjectionIsomorphism:
    """Projection-lattice isomorphism induced by an invertible matrix T.

    Acts by p -> projection onto T(range p); when antilinear, coordinates
    are conjugated before T is applied. Order is preserved in both
    directions because T is a bijection of C^n.

    When T is a multiple of a unitary, T* T = gram * 1, and the blocks of
    an orthoisomorphism have this shape (a Jordan map's u, or c u). The
    construction's SVD decides it once: the singular values agree to
    rounding, s_max - s_min <= 16 n eps s_max. That is a floating-point
    constant, not a tolerance; it only picks the faster of two correct
    paths in _transported_spectrum. gram is None for any other T.
    """

    T: np.ndarray
    antilinear: bool = False
    gram: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.T, dtype=np.complex128)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise DimensionMismatchError(f"T must be square, got {t.shape}")
        s = np.linalg.svd(t, compute_uv=False)
        if s[-1] <= DEFAULT_TOL.eps_proj:
            raise SpeclatError(f"T is numerically singular (smallest sv {s[-1]:.3e})")
        object.__setattr__(self, "T", t)
        unitary = s[0] - s[-1] <= 16 * len(s) * np.finfo(float).eps * s[0]
        object.__setattr__(self, "gram", float(s @ s) / len(s) if unitary else None)

    @property
    def n(self) -> int:
        return self.T.shape[0]

    @classmethod
    def identity(cls, n: int) -> "ProjectionIsomorphism":
        return cls(np.eye(n))

    def apply(self, p, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
        basis, _ = split_range(check_hermitian(p, tol, "p"), tol)
        if self.antilinear:
            basis = basis.conj()
        return orthonormal_range(self.T @ basis, tol)

    def inverse(self) -> "ProjectionIsomorphism":
        inv = np.linalg.inv(self.T)
        if self.antilinear:
            inv = inv.conj()
        return ProjectionIsomorphism(inv, self.antilinear)


def JordanIso(u, transpose: bool = False) -> ProjectionIsomorphism:
    """The projection map of the Jordan *-isomorphism x -> u x u* (u x^T u*
    when transpose): tau = (u, antilinear = transpose). The Jordan map
    itself is FactorCanonicalIso with this tau and the identity f; it
    preserves squares, adjoints and orthogonality."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError(f"u must be square, got {u.shape}")
    if max_abs(u.conj().T @ u - np.eye(u.shape[0])) > DEFAULT_TOL.eps_proj:
        raise SpeclatError("u is not unitary")
    return ProjectionIsomorphism(u, antilinear=transpose)


def _transported_spectrum(tau: ProjectionIsomorphism, es: EigenSystem, values) -> np.ndarray:
    """Core of Theta_tau, from the clustered eigensystem of a validated
    element and the values its columns carry (f of their breakpoints).

    The cumulative ranges of x are the prefix spans of its eigenbasis V, so
    their images under tau are the prefix spans of T V (coordinates
    conjugated first when antilinear). One unpivoted QR orthonormalizes all
    prefixes at once, and the transported element is Q diag(values) Q*.
    When T* T = gram * 1 (tau.gram, a Jordan-shaped block), T V is already
    orthogonal with columns of squared norm gram, so the element is
    T V diag(values / gram) (T V)* with no QR. A scalar element c * 1
    needs none of this: tau(1) = 1, so it maps to f(c) * 1 exactly, which
    FactorCanonicalIso._image returns without calling here.
    """
    basis = tau.T @ (es.vectors.conj() if tau.antilinear else es.vectors)
    if tau.gram is not None:
        return spectral_sum(basis, values / tau.gram)
    q, _ = np.linalg.qr(basis)
    return spectral_sum(q, values)


@dataclass(frozen=True)
class FactorCanonicalIso:
    """Canonical spectral order isomorphism of a single matrix factor:
    x -> Theta_tau(f(x)) for a scalar bijection f and a projection-lattice
    map tau. The two actions commute: f moves breakpoints, tau moves
    projections.

    The iso keeps its most recent image of a non-scalar element, keyed by
    the element's bytes, n and tol, and answers an exact repeat with a copy
    of it: a restricted oracle maps each sampled block again right after
    the whole element was mapped. That costs one n x n input key and one
    n x n image per iso.
    """

    f: MonotoneBijection
    tau: ProjectionIsomorphism
    cone: str = SELF_ADJOINT
    # ((bytes, n, tol), image) of the most recent non-scalar image; the
    # image is never handed out, only copies of it
    _replay: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        cone_domain(self.cone)

    @property
    def n(self) -> int:
        return self.tau.n

    @classmethod
    def identity(cls, n: int, cone: str = SELF_ADJOINT) -> "FactorCanonicalIso":
        return cls(MonotoneBijection.identity(), ProjectionIsomorphism.identity(n), cone)

    @classmethod
    def from_jordan(cls, psi: ProjectionIsomorphism, f: MonotoneBijection, cone: str = SELF_ADJOINT):
        """cls(f, psi, cone), for callers that build psi with JordanIso."""
        return cls(f, psi, cone)

    @cached_property
    def _endpoint_deviations(self) -> tuple[tuple[float, float], ...]:
        return endpoint_deviations(self.f, self.cone)

    def apply(self, x, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
        """Theta_tau(f(x)) after one validation of x."""
        return self._image(check_hermitian(x, tol, "element"), tol)

    def _image(self, h: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
        """Theta_tau(f(h)) for an exactly Hermitian, finite h, such as
        check_hermitian's output or a DirectSumElement's block.

        An element that is exactly c * 1, entry for entry, maps to
        f(c) * 1 (tau fixes the identity) with no eigensolve. Entries
        (1, 0) and (1, 1) turn most other elements away before the whole
        matrix is compared, and a 1 x 1 element is always scalar. Any other
        element is decomposed once, and its cone membership is read from
        that eigensystem before the spectrum is transported; the exact
        repeat of the most recent such element under the same tol is a
        copy of its image, with no eigensystem, f or QR. Values that f
        sends out of the floats (t^5 at 1e100) are refused on both paths,
        with NonFiniteError when h itself is not finite (a sum of blocks
        that overflowed) and InvalidFamilyError otherwise.
        """
        n = h.shape[0]
        c = 0.0 + h[0, 0].real  # 0.0 + keeps a zero scalar unsigned, as breakpoints are
        # c * 1 needs no eigensystem: its spectrum is its diagonal. h is c * 1
        # when c is on all n diagonal entries and nothing else is nonzero; an
        # infinite c goes to the eigensolver, which refuses it
        scalar = n == 1 or (
            h[1, 0] == 0 and h[1, 1] == c and math.isfinite(c)
            and h.diagonal().tolist().count(c) == n and np.count_nonzero(h) == (n if c else 0)
        )
        if not scalar:
            key = (h.tobytes(), n, tol)
            replay = self._replay
            if replay is not None and replay[0] == key:
                return replay[1].copy()
        es = None if scalar else _eigh_hermitian(h, tol)
        _check_spectrum(h.diagonal().real if scalar else es.values, self.cone, tol, "element")
        check_scalar_map(self._endpoint_deviations, self.cone, tol)
        if self.tau.n != n:
            raise DimensionMismatchError(f"tau acts on dimension {self.tau.n}, element has {n}")
        values = self.f(c) if scalar else self.f(es.column_breakpoints)
        # f increases and the breakpoints ascend, so the end values are the
        # extremes
        lo, hi = (values, values) if scalar else (values[0], values[-1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            if not np.isfinite(h).all():
                raise NonFiniteError("element has entries that are not finite (NaN or infinite)")
            raise InvalidFamilyError("breakpoints must be finite")
        if scalar:
            out = np.zeros((n, n), dtype=np.complex128)
            out.flat[:: n + 1] = values
            return out
        image = _transported_spectrum(self.tau, es, values)
        object.__setattr__(self, "_replay", (key, image))
        return image.copy()

    def inverse(self) -> "FactorCanonicalIso":
        return FactorCanonicalIso(self.f.inverse(), self.tau.inverse(), self.cone)


@dataclass(frozen=True)
class DirectSumIso:
    """Blockwise spectral order isomorphism between direct sums.

    pi maps each codomain slot k to the domain slot it is fed from, and
    blocks[j] is the single-factor isomorphism applied to domain slot j:
    output block k = blocks[pi[k]](input block pi[k]).
    """

    domain_profile: BlockProfile
    codomain_profile: BlockProfile
    pi: tuple[int, ...]
    blocks: tuple[FactorCanonicalIso, ...]
    cone: str = SELF_ADJOINT

    def __post_init__(self):
        pi = tuple(int(k) for k in self.pi)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "blocks", tuple(self.blocks))
        dom, cod = self.domain_profile, self.codomain_profile
        if sorted(pi) != list(range(len(dom))) or len(pi) != len(cod):
            raise DimensionMismatchError(f"pi {pi} is not a bijection onto {len(dom)} slots")
        for k, j in enumerate(pi):
            if cod.dims[k] != dom.dims[j]:
                raise DimensionMismatchError(
                    f"codomain slot {k} has dimension {cod.dims[k]} but is fed from "
                    f"domain slot {j} of dimension {dom.dims[j]}"
                )
        if len(self.blocks) != len(dom):
            raise DimensionMismatchError("one block isomorphism is needed per domain slot")
        for j, b in enumerate(self.blocks):
            if b.n != dom.dims[j]:
                raise DimensionMismatchError(f"blocks[{j}] acts on dimension {b.n}")
            if b.cone != self.cone:
                raise ConeError(f"blocks[{j}] is built for cone {b.cone!r}, not {self.cone!r}")

    @classmethod
    def identity(cls, profile: BlockProfile, cone: str = SELF_ADJOINT) -> "DirectSumIso":
        return cls(
            profile,
            profile,
            tuple(range(len(profile))),
            tuple(FactorCanonicalIso.identity(d, cone) for d in profile.dims),
            cone,
        )

    def apply(self, x: DirectSumElement, tol: ToleranceConfig = DEFAULT_TOL) -> DirectSumElement:
        _check_profiles(self.domain_profile, x.profile)
        # an element's blocks were validated when it was built
        out = [self.blocks[j]._image(x.blocks[j], tol) for j in self.pi]
        return DirectSumElement(self.codomain_profile, out, validate=False)

    def inverse(self) -> "DirectSumIso":
        inv_pi = [0] * len(self.pi)
        for k, j in enumerate(self.pi):
            inv_pi[j] = k
        inv_blocks = [self.blocks[j].inverse() for j in self.pi]
        return DirectSumIso(
            self.codomain_profile,
            self.domain_profile,
            tuple(inv_pi),
            tuple(inv_blocks),
            self.cone,
        )


@dataclass(frozen=True)
class OrderIsoOracle:
    """Black-box order isomorphism between sets of direct-sum elements.

    forward and inverse must be stateless total maps on the stated cone;
    decomposition procedures only ever query them.
    """

    domain_profile: BlockProfile
    codomain_profile: BlockProfile
    cone: str
    forward: object
    inverse: object

    @classmethod
    def from_iso(cls, iso: DirectSumIso, tol: ToleranceConfig = DEFAULT_TOL) -> "OrderIsoOracle":
        inv = iso.inverse()
        return cls(
            domain_profile=iso.domain_profile,
            codomain_profile=iso.codomain_profile,
            cone=iso.cone,
            forward=lambda x: iso.apply(x, tol),
            inverse=lambda y: inv.apply(y, tol),
        )

    def shifted(self, shift: DirectSumElement | None) -> "OrderIsoOracle":
        """x -> forward(x) + shift, with inverse y -> inverse(y - shift);
        self when shift is None. Recovery takes a shift s off with
        shifted(-s)."""
        if shift is None:
            return self
        return replace(
            self,
            forward=lambda x: self.forward(x) + shift,
            inverse=lambda y: self.inverse(y - shift),
        )
