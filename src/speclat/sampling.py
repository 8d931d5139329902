"""Seeded random generators for matrices, elements, scalar bijections and
direct-sum isomorphisms. Every randomized check in the package draws from
these so that a single seed reproduces a whole run."""

from __future__ import annotations

import numpy as np

from .directsum import BlockProfile, DirectSumElement
from .isos import DirectSumIso, FactorCanonicalIso, JordanIso, ProjectionIsomorphism
from .linalg import spectral_sum
from .monotone import MonotoneBijection
from .order import EFFECT, SELF_ADJOINT, cone_domain

_N_KNOTS = 5


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_unitaries(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """A (count, n, n) stack of Haar-ish unitaries from one stacked QR of
    complex Ginibre matrices (the real parts drawn first, then the
    imaginary parts), with the phase convention that each R has positive
    diagonal."""
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """One matrix of random_unitaries."""
    return random_unitaries(rng, 1, n)[0]


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    return random_in_cone(rng, n, SELF_ADJOINT)


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
    return random_in_cone(rng, n, EFFECT)


def random_in_cone(rng: np.random.Generator, n: int, cone: str) -> np.ndarray:
    """One sample of random_cone_stack."""
    return random_cone_stack(rng, 1, n, cone)[0]


def random_cone_stack(rng: np.random.Generator, count: int, n: int, cone: str) -> np.ndarray:
    """A (count, n, n) stack of exactly Hermitian samples of the cone, drawn
    in one call: effects on a cone bounded below (an effect is also
    positive), Hermitian matrices on the self-adjoint cone.

    An effect is V diag(l) V* with l sorted uniform(0, 1) (all count
    spectra are drawn first) and V from random_unitaries. A Hermitian
    matrix is (g + g*) / 2 of a complex Ginibre g. An effect takes
    spectral_sum's arithmetic, so at count = 1 it is spectral_sum(V, l) bit
    for bit, drawn from the generator in the same order.
    """
    if np.isfinite(cone_domain(cone)[0]):
        values = np.sort(rng.uniform(0.0, 1.0, (count, n)), axis=1)
        u = random_unitaries(rng, count, n)
        # spectral_sum on each matrix of the stack
        m = (u * values[:, None, :]) @ u.conj().transpose(0, 2, 1)
        m += m.conj().transpose(0, 2, 1)
        m *= 0.5
        return m
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return (g + g.conj().transpose(0, 2, 1)) / 2.0


def random_ds_elements(
    rng: np.random.Generator, profile: BlockProfile, count: int, cone: str = SELF_ADJOINT
) -> list[DirectSumElement]:
    """count random elements of the cone over the profile, drawn slot by
    slot: one random_cone_stack call per slot holds every sample's block of
    that slot."""
    slots = [random_cone_stack(rng, count, d, cone) for d in profile.dims]
    # the stacks are exactly Hermitian, so there is nothing to validate
    return [DirectSumElement(profile, [s[i] for s in slots], validate=False) for i in range(count)]


def random_ds_element(
    rng: np.random.Generator, profile: BlockProfile, cone: str = SELF_ADJOINT
) -> DirectSumElement:
    """One sample of random_ds_elements."""
    return random_ds_elements(rng, profile, 1, cone)[0]


def random_monotone_bijection(
    rng: np.random.Generator, cone: str = SELF_ADJOINT, grid: int | None = None
) -> MonotoneBijection:
    """Random piecewise-linear bijection of the cone's scalar domain. It
    fixes the domain's finite ends, and 0 on the whole line, where the
    image of 0 would otherwise be a central shift.

    When grid is given, interior knots of a map of [0, 1] sit on multiples
    of 1/grid so the map is reproduced exactly by uniform-grid sampling at
    resolution >= grid.
    """
    def increasing(lo, hi, k):
        gaps = rng.uniform(0.2, 1.0, k - 1)
        inner = np.concatenate([[0.0], np.cumsum(gaps)])
        return lo + (hi - lo) * inner / inner[-1]

    lo, hi = cone_domain(cone)
    if np.isfinite(hi):
        if grid is not None:
            interior = 1 + rng.choice(grid - 1, size=min(_N_KNOTS, grid - 1), replace=False)
            knots = np.concatenate([[lo], np.sort(interior) / grid, [hi]])
        else:
            knots = increasing(lo, hi, _N_KNOTS + 2)
        values = increasing(lo, hi, len(knots))
        return MonotoneBijection.piecewise_linear(knots, values)
    if np.isfinite(lo):
        knots = increasing(lo, rng.uniform(1.0, 3.0), _N_KNOTS + 2)
        values = increasing(lo, rng.uniform(1.0, 3.0), len(knots))
        return MonotoneBijection.piecewise_linear(
            knots, values, right_slope=rng.uniform(0.5, 2.0)
        )
    left, right = -rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)
    vleft, vright = -rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)
    half = max(1, _N_KNOTS // 2)
    knots = np.concatenate(
        [np.sort(rng.uniform(left, -0.05, half)), [0.0], np.sort(rng.uniform(0.05, right, half))]
    )
    values = np.concatenate(
        [np.sort(rng.uniform(vleft, -0.05, half)), [0.0], np.sort(rng.uniform(0.05, vright, half))]
    )
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
    if kind == "jordan":
        return JordanIso(random_unitary(rng, n), transpose=bool(rng.integers(2)))
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
) -> DirectSumIso:
    """Random blockwise isomorphism over the given domain profile; the
    codomain profile is the domain profile permuted by a random
    dimension-respecting pi."""
    pi = random_pi(rng, profile.dims)
    codomain = BlockProfile(tuple(profile.dims[j] for j in pi))
    blocks = []
    for d in profile.dims:
        f = random_monotone_bijection(rng, cone)
        kind = tau_kinds[int(rng.integers(len(tau_kinds)))]
        blocks.append(FactorCanonicalIso(f, random_projection_isomorphism(rng, d, kind), cone))
    return DirectSumIso(profile, codomain, pi, tuple(blocks), cone)


def random_commuting_family(
    rng: np.random.Generator, n: int, count: int
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """A common eigenbasis u, the list of eigenvalue vectors (uniform on
    [-2, 2]), and the commuting self-adjoint matrices u diag(w) u*."""
    u = random_unitary(rng, n)
    spectra = [np.sort(rng.uniform(-2.0, 2.0, n)) for _ in range(count)]
    return u, spectra, [spectral_sum(u, w) for w in spectra]
