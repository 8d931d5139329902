"""Seeded random generators for matrices, elements, scalar bijections and
direct-sum isomorphisms. Every randomized check in the package draws from
these so that a single seed reproduces a whole run."""

from __future__ import annotations

import numpy as np

from .directsum import BlockProfile, DirectSumElement
from .isos import DirectSumIso, FactorCanonicalIso, JordanIso, ProjectionIsomorphism
from .linalg import spectral_sum
from .monotone import MonotoneBijection
from .order import EFFECT, POSITIVE, SELF_ADJOINT

_N_KNOTS = 5


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Ginibre matrix, with the
    phase convention that R has positive diagonal."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_with_spectrum(rng: np.random.Generator, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return spectral_sum(random_unitary(rng, len(values)), values)


def random_projection(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    """Random rank-r orthogonal projection; rank drawn from 1..n-1 when not
    given (0 < r < n needs n >= 2)."""
    if rank is None:
        rank = int(rng.integers(1, n)) if n > 1 else 1
    return spectral_sum(random_unitary(rng, n)[:, :rank], 1.0)


def random_effect(rng: np.random.Generator, n: int) -> np.ndarray:
    """A uniform(0, 1) spectrum in a random basis: an effect, and so also a
    positive element."""
    return random_with_spectrum(rng, np.sort(rng.uniform(0.0, 1.0, n)))


def random_in_cone(rng: np.random.Generator, n: int, cone: str) -> np.ndarray:
    if cone in (EFFECT, POSITIVE):
        return random_effect(rng, n)
    return random_hermitian(rng, n)


def random_ds_element(
    rng: np.random.Generator, profile: BlockProfile, cone: str = SELF_ADJOINT
) -> DirectSumElement:
    # spectral_sum and (g + g*)/2 are exactly Hermitian, so there is nothing
    # to validate
    blocks = [random_in_cone(rng, d, cone) for d in profile.dims]
    return DirectSumElement(profile, blocks, validate=False)


def random_monotone_bijection(
    rng: np.random.Generator,
    cone: str = SELF_ADJOINT,
    grid: int | None = None,
    fix_zero: bool = False,
) -> MonotoneBijection:
    """Random piecewise-linear bijection of the cone's scalar domain.

    When grid is given, interior knots sit on multiples of 1/grid so the
    map is reproduced exactly by uniform-grid sampling at resolution >= grid.
    """
    def increasing(lo, hi, k):
        gaps = rng.uniform(0.2, 1.0, k - 1)
        inner = np.concatenate([[0.0], np.cumsum(gaps)])
        return lo + (hi - lo) * inner / inner[-1]

    if cone == EFFECT:
        if grid is not None:
            interior = 1 + rng.choice(grid - 1, size=min(_N_KNOTS, grid - 1), replace=False)
            knots = np.concatenate([[0.0], np.sort(interior) / grid, [1.0]])
        else:
            knots = increasing(0.0, 1.0, _N_KNOTS + 2)
        values = increasing(0.0, 1.0, len(knots))
        return MonotoneBijection.piecewise_linear(knots, values)
    if cone == POSITIVE:
        hi = rng.uniform(1.0, 3.0)
        knots = increasing(0.0, hi, _N_KNOTS + 2)
        values = increasing(0.0, rng.uniform(1.0, 3.0), len(knots))
        return MonotoneBijection.piecewise_linear(
            knots, values, right_slope=rng.uniform(0.5, 2.0)
        )
    lo, hi = -rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)
    vlo, vhi = -rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)
    if fix_zero:
        half = max(1, _N_KNOTS // 2)
        knots = np.concatenate(
            [np.sort(rng.uniform(lo, -0.05, half)), [0.0], np.sort(rng.uniform(0.05, hi, half))]
        )
        values = np.concatenate(
            [np.sort(rng.uniform(vlo, -0.05, half)), [0.0], np.sort(rng.uniform(0.05, vhi, half))]
        )
    else:
        knots = increasing(lo, hi, _N_KNOTS + 2)
        values = increasing(vlo, vhi, _N_KNOTS + 2)
    return MonotoneBijection.piecewise_linear(
        knots, values, left_slope=rng.uniform(0.5, 2.0), right_slope=rng.uniform(0.5, 2.0)
    )


def random_shear(rng: np.random.Generator, n: int) -> np.ndarray:
    """Invertible, decidedly non-unitary matrix: identity plus a strictly
    upper-triangular perturbation with at least one sizable entry."""
    m = np.eye(n, dtype=np.complex128)
    upper = np.triu(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), k=1
    )
    if n > 1:
        upper[0, 1] += 1.0 + 0.5j
    return m + upper


def random_projection_isomorphism(
    rng: np.random.Generator, n: int, kind: str = "unitary"
) -> ProjectionIsomorphism:
    if kind == "unitary":
        return ProjectionIsomorphism(random_unitary(rng, n))
    if kind == "shear":
        return ProjectionIsomorphism(random_shear(rng, n))
    if kind == "antilinear":
        return ProjectionIsomorphism(random_unitary(rng, n), antilinear=True)
    raise ValueError(f"unknown projection isomorphism kind {kind!r}")


def random_pi(rng: np.random.Generator, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Random bijection of slots respecting dimensions: slots are permuted
    only within groups of equal dimension."""
    pi = np.arange(len(dims))
    for d in set(dims):
        slots = np.nonzero(np.asarray(dims) == d)[0]
        pi[slots] = rng.permutation(slots)
    return tuple(int(j) for j in pi)


def random_direct_sum_iso(
    rng: np.random.Generator,
    profile: BlockProfile,
    cone: str = SELF_ADJOINT,
    tau_kinds: tuple[str, ...] = ("unitary", "shear"),
    jordan: bool = False,
    grid: int | None = None,
    fix_zero: bool = False,
) -> DirectSumIso:
    """Random blockwise isomorphism over the given domain profile; the
    codomain profile is the domain profile permuted by a random
    dimension-respecting pi."""
    pi = random_pi(rng, profile.dims)
    codomain = BlockProfile(tuple(profile.dims[j] for j in pi))
    blocks = []
    for d in profile.dims:
        f = random_monotone_bijection(rng, cone, grid=grid, fix_zero=fix_zero)
        if jordan:
            psi = JordanIso(random_unitary(rng, d), transpose=bool(rng.integers(2)))
            blocks.append(FactorCanonicalIso.from_jordan(psi, f, cone))
        else:
            kind = tau_kinds[int(rng.integers(len(tau_kinds)))]
            blocks.append(FactorCanonicalIso(f, random_projection_isomorphism(rng, d, kind), cone))
    return DirectSumIso(profile, codomain, pi, tuple(blocks), cone)


def random_commuting_family(
    rng: np.random.Generator, n: int, count: int, cone: str = SELF_ADJOINT
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """A common eigenbasis u, the list of eigenvalue vectors, and the
    commuting matrices u diag(w) u*."""
    u = random_unitary(rng, n)
    if cone == EFFECT:
        spectra = [np.sort(rng.uniform(0.0, 1.0, n)) for _ in range(count)]
    elif cone == POSITIVE:
        spectra = [np.sort(rng.uniform(0.0, 2.0, n)) for _ in range(count)]
    else:
        spectra = [np.sort(rng.uniform(-2.0, 2.0, n)) for _ in range(count)]
    return u, spectra, [spectral_sum(u, w) for w in spectra]
