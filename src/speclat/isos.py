"""Concrete carriers for order isomorphisms: projection-lattice maps induced
by invertible (anti)linear matrices, Jordan maps, canonical single-factor
isomorphisms, and blockwise direct-sum isomorphisms with a permutation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .directsum import BlockProfile, DirectSumElement, _check_profiles
from .errors import DimensionMismatchError, InvalidFamilyError, SpeclatError
from .linalg import EigenSystem, _eigh_hermitian, orthonormal_range, spectral_sum, split_range
from .monotone import MonotoneBijection
from .order import SELF_ADJOINT, _check_cone_name, _check_spectrum, check_scalar_map, endpoint_deviations
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import check_hermitian, max_abs


@dataclass(frozen=True)
class ProjectionIsomorphism:
    """Projection-lattice isomorphism induced by an invertible matrix T.

    Acts by p -> projection onto T(range p); when antilinear, coordinates
    are conjugated before T is applied. Order is preserved in both
    directions because T is a bijection of C^n.
    """

    T: np.ndarray
    antilinear: bool = False

    def __post_init__(self):
        t = np.asarray(self.T, dtype=np.complex128)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise DimensionMismatchError(f"T must be square, got {t.shape}")
        smin = np.linalg.svd(t, compute_uv=False)[-1]
        if smin <= DEFAULT_TOL.eps_proj:
            raise SpeclatError(f"T is numerically singular (smallest sv {smin:.3e})")
        object.__setattr__(self, "T", t)

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


@dataclass(frozen=True)
class JordanIso:
    """Jordan *-isomorphism of a matrix factor: x -> u x u*, optionally with
    a transpose first. Preserves squares, adjoints and orthogonality."""

    u: np.ndarray
    transpose: bool = False

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.complex128)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionMismatchError(f"u must be square, got {u.shape}")
        if max_abs(u.conj().T @ u - np.eye(u.shape[0])) > DEFAULT_TOL.eps_proj:
            raise SpeclatError("u is not unitary")
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.u.shape[0]

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        body = x.T if self.transpose else x
        out = self.u @ body @ self.u.conj().T
        return (out + out.conj().T) / 2.0

    def inverse(self) -> "JordanIso":
        if self.transpose:
            return JordanIso(self.u.T, transpose=True)
        return JordanIso(self.u.conj().T, transpose=False)

    def as_projection_iso(self) -> ProjectionIsomorphism:
        """On projections a Jordan map acts by the unitary, conjugating
        coordinates first when there is a transpose."""
        return ProjectionIsomorphism(self.u, antilinear=self.transpose)


def _transported_spectrum(tau: ProjectionIsomorphism, es: EigenSystem, values) -> np.ndarray:
    """Core of Theta_tau, from the clustered eigensystem of a validated
    element and the values its columns carry (f of their breakpoints).

    The cumulative ranges of x are the prefix spans of its eigenbasis V, so
    their images under tau are the prefix spans of T V (coordinates
    conjugated first when antilinear). One unpivoted QR orthonormalizes all
    prefixes at once, and the transported element is Q diag(values) Q*. A
    scalar element c * 1 needs none of this: tau(1) = 1, so it maps to
    f(c) * 1 exactly, which FactorCanonicalIso.apply returns without
    calling here.
    """
    basis = es.vectors.conj() if tau.antilinear else es.vectors
    q, _ = np.linalg.qr(tau.T @ basis)
    return spectral_sum(q, values)


@dataclass(frozen=True)
class FactorCanonicalIso:
    """Canonical spectral order isomorphism of a single matrix factor:
    x -> Theta_tau(f(x)) for a scalar bijection f and a projection-lattice
    map tau. The two actions commute: f moves breakpoints, tau moves
    projections."""

    f: MonotoneBijection
    tau: ProjectionIsomorphism
    cone: str = SELF_ADJOINT
    jordan: JordanIso | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.tau.n

    @classmethod
    def identity(cls, n: int, cone: str = SELF_ADJOINT) -> "FactorCanonicalIso":
        return cls(MonotoneBijection.identity(), ProjectionIsomorphism.identity(n), cone)

    @classmethod
    def from_jordan(cls, psi: JordanIso, f: MonotoneBijection, cone: str = SELF_ADJOINT):
        """Orthoisomorphism-shaped block: psi(f(x)); tau is taken from the
        Jordan map and the Jordan form is remembered for serialization."""
        return cls(f, psi.as_projection_iso(), cone, jordan=psi)

    @cached_property
    def _endpoint_deviations(self) -> tuple[tuple[float, float], ...]:
        return endpoint_deviations(self.f, self.cone)

    def apply(self, x, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
        """Theta_tau(f(x)) after one validation of x.

        An element that is exactly c * 1, entry for entry, maps to
        f(c) * 1 (tau fixes the identity) with no eigensolve. Entries
        (1, 0) and (1, 1) turn most other elements away before the whole
        matrix is compared, and a 1 x 1 element is always scalar. Any other
        element is decomposed once, and its cone membership is read from
        that eigensystem before the spectrum is transported. Values that f
        sends out of the floats (t^5 at 1e100) are refused on both paths.
        """
        _check_cone_name(self.cone)
        h = check_hermitian(x, tol, "element")
        n = h.shape[0]
        c = 0.0 + h[0, 0].real  # 0.0 + keeps a zero scalar unsigned, as breakpoints are
        # c * 1 needs no eigensystem: its spectrum is its diagonal
        scalar = n == 1 or (h[1, 0] == 0 and h[1, 1] == c and np.array_equal(h, c * np.eye(n)))
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
            raise InvalidFamilyError("breakpoints must be finite")
        if scalar:
            out = np.zeros((n, n), dtype=np.complex128)
            out.flat[:: n + 1] = values
            return out
        return _transported_spectrum(self.tau, es, values)

    def inverse(self) -> "FactorCanonicalIso":
        return FactorCanonicalIso(
            self.f.inverse(),
            self.tau.inverse(),
            self.cone,
            jordan=self.jordan.inverse() if self.jordan is not None else None,
        )


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
        out = [self.blocks[j].apply(x.blocks[j], tol) for j in self.pi]
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
