"""Constructive recovery of the blockwise structure of spectral order
isomorphisms between direct sums of matrix factors.

Given only a black-box order isomorphism, these procedures recover the slot
permutation, the central shift (self-adjoint case), per-factor restricted
oracles, and, for a single effect factor, the canonical (scalar map,
projection map) form. Every recovery is constructive, driven by images of
the atomic central projections, and finishes with a sampled verification;
inputs that are not isomorphisms of the expected shape are rejected with a
DecompositionError instead of being misreported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .directsum import (
    BlockProfile,
    DirectSumElement,
    _embedded,
    central_atoms,
    ds_central_scalars,
    scalar_block,
)
from .errors import (
    ConeError, DecompositionError, DimensionMismatchError, NonFiniteError, NotMonotoneError, SpeclatError
)
from .isos import FactorCanonicalIso, OrderIsoOracle, ProjectionIsomorphism
from .linalg import eigh, spectral_sum
from .monotone import MonotoneBijection
from .order import EFFECT, check_scalar_map, cone_domain, endpoint_deviations
from .sampling import (
    random_cone_stack, random_ds_element, random_ds_elements, random_effect, random_unitary, rng_from
)
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import _check_count, max_abs


def _single_factor_dim(oracle: OrderIsoOracle) -> int:
    dom, cod = oracle.domain_profile, oracle.codomain_profile
    if len(dom) != 1 or len(cod) != 1 or dom.dims != cod.dims:
        raise DimensionMismatchError(
            f"expected a single-factor oracle, got profiles {dom.dims} -> {cod.dims}"
        )
    return dom.dims[0]


def _factor_image(oracle: OrderIsoOracle, m: np.ndarray) -> np.ndarray:
    """The image of m under a single-factor oracle, as a matrix."""
    return oracle.forward(DirectSumElement(oracle.domain_profile, [m], validate=False)).blocks[0]


def sample_scalar_action(oracle: OrderIsoOracle, grid, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Scalars f(l) of the images of l * identity along the grid.

    The oracle must act on a single factor (DimensionMismatchError
    otherwise). An order isomorphism preserves the center, so each image
    must be within 10 * eps_recon of f(l) * identity, entry by entry, where
    f(l) is the image's mean diagonal entry; an image off the center raises
    DecompositionError.
    """
    n = _single_factor_dim(oracle)
    values = []
    for lam in grid:
        c = scalar_block(_factor_image(oracle, lam * np.eye(n)), 10 * tol.eps_recon)
        if c is None:
            raise DecompositionError(
                f"image of {lam:g} * identity is not scalar: the map does not "
                "preserve the center, so it is not a spectral order isomorphism"
            )
        values.append(c)
    return np.asarray(values)


def reassembly_residuals(
    oracle: OrderIsoOracle, rng, samples: int, permutation, block_oracles, shift
) -> list[float]:
    """Worst entrywise residual, per codomain slot, between the oracle's
    images of random elements and the images rebuilt from a decomposition.

    Draws the `samples` elements up front with random_ds_elements(rng,
    domain profile, samples, cone): one stacked call per slot, so a seed
    draws other samples than one random_ds_element call per sample would.
    Codomain slot k of a rebuilt image holds the image of block
    j = permutation[k] under block_oracles[j], plus block k of the central
    shift (None off the self-adjoint cone). A NaN residual stays NaN.
    """
    residuals = [0.0] * len(oracle.codomain_profile)
    for x in random_ds_elements(rng, oracle.domain_profile, samples, oracle.cone):
        expected = oracle.forward(x)
        for k, j in enumerate(permutation):
            block = _factor_image(block_oracles[j], x.blocks[j])
            if shift is not None:
                block = block + shift.blocks[k]
            # np.maximum keeps a NaN, where Python's max(0.0, nan) is 0.0
            residuals[k] = float(np.maximum(residuals[k], max_abs(block - expected.blocks[k])))
    return residuals


# the uniform grid on [0, 1] on which FactorCanonicalRecovery samples the
# scalar action; every recovered f keeps it as its knots, so it is read-only
_GRID = np.linspace(0.0, 1.0, 129)
_GRID.flags.writeable = False


def _unit_projection(v: np.ndarray) -> np.ndarray:
    return spectral_sum((v / np.linalg.norm(v))[:, None], 1.0)


class FactorCanonicalRecovery:
    """Recover the canonical form x -> Theta_tau(f(x)) of an effect-lattice
    isomorphism of one matrix factor.

    The scalar map is read off the central line: f(l) is the scalar of the
    image of l * identity, sampled on a uniform grid and carried as a
    piecewise-linear bijection. The projection map is read off images of
    complemented projections: the spectral family of the image of 1 - q is
    constant between f(0) and f(1), and its value there is tau(q), so tau(q)
    is spanned by the one eigenvector of that image whose breakpoint is at
    most the midpoint.

    Parameters
    ----------
    n_verify : int
        Number of random effects used for the final residual check, whose
        bound is tol.eps_recon. A scalar action outside the
        piecewise-linear class at the grid's resolution is rejected there.
        The effects are drawn up front in one random_cone_stack call, so a
        seed draws other effects than one random_effect call per effect
        would.
    random_state : int or numpy Generator
        Seed for verification sampling.
    tol : ToleranceConfig

    Attributes (after fit)
    ----------------------
    scale_function_ : MonotoneBijection
    canonical_ : FactorCanonicalIso
        Its tau's T is fixed only up to a global unit scalar (an
        eigenvector's phase).
    max_residual_ : float
    """

    def __init__(self, n_verify=200, random_state=0, tol=DEFAULT_TOL):
        _check_count(n_verify, "n_verify")
        self.n_verify = n_verify
        self.random_state = random_state
        self.tol = tol

    def _tau_image(self, oracle: OrderIsoOracle, q: np.ndarray, mid: float) -> np.ndarray:
        """Unit vector spanning tau(q): the first eigenvector of the image of
        1 - q, which must be the only one with breakpoint at most mid."""
        comp = np.eye(q.shape[0]) - q
        es = eigh(_factor_image(oracle, comp), self.tol)
        rank = es.columns_at(mid)
        if rank != 1:
            raise DecompositionError(f"expected a rank-one projection image, got rank {rank}")
        return es.vectors[:, 0]

    def fit(self, oracle: OrderIsoOracle) -> "FactorCanonicalRecovery":
        cone = oracle.cone
        # the grid samples [0, 1], and tau is read off images of 1 - q
        if cone_domain(cone) != (0.0, 1.0):
            raise DecompositionError("canonical recovery is implemented on the effect cone")
        n = _single_factor_dim(oracle)
        tol = self.tol

        scalars = sample_scalar_action(oracle, _GRID, tol)
        try:
            f = MonotoneBijection.piecewise_linear(_GRID, scalars)
            check_scalar_map(endpoint_deviations(f, cone), cone, tol)
        except (NotMonotoneError, ConeError) as exc:
            raise DecompositionError(f"scalar action is not a bijection of [0, 1]: {exc}") from None
        mid = (scalars[0] + scalars[-1]) / 2.0

        # tau on coordinate projections fixes the columns up to scale;
        # images of two-term superpositions fix the relative scales
        eye = np.eye(n, dtype=np.complex128)
        t_cols = [self._tau_image(oracle, _unit_projection(eye[:, i]), mid) for i in range(n)]
        columns = [t_cols[0]]
        for i in range(1, n):
            w = self._tau_image(oracle, _unit_projection(eye[:, 0] + eye[:, i]), mid)
            pair = np.column_stack([t_cols[0], t_cols[i]])
            coeff, *_ = np.linalg.lstsq(pair, w, rcond=None)
            if abs(coeff[0]) < 1e-8:
                raise DecompositionError(
                    "projection action is incompatible with a linear representation"
                )
            columns.append((coeff[1] / coeff[0]) * t_cols[i])
        t_matrix = np.column_stack(columns)

        antilinear = False
        if n >= 2:
            probe = _unit_projection(
                self._tau_image(oracle, _unit_projection(eye[:, 0] + 1j * eye[:, 1]), mid)
            )
            d_lin = max_abs(probe - _unit_projection(columns[0] + 1j * columns[1]))
            d_anti = max_abs(probe - _unit_projection(columns[0] - 1j * columns[1]))
            antilinear = d_anti < d_lin

        canonical = FactorCanonicalIso(f, ProjectionIsomorphism(t_matrix, antilinear), cone)

        rng = rng_from(self.random_state)
        worst = 0.0
        for x in random_cone_stack(rng, self.n_verify, n, cone):
            r = max_abs(canonical.apply(x, tol) - _factor_image(oracle, x))
            worst = float(np.maximum(worst, r))  # NaN when any residual is
        if not worst <= tol.eps_recon:
            raise DecompositionError(
                f"verification residual {worst:.3e} exceeds {tol.eps_recon:.1e}: the scalar "
                "action is outside the piecewise-linear class at this grid resolution, "
                "or the map is not a spectral order isomorphism"
            )

        self.scale_function_ = f
        self.canonical_ = canonical
        self.max_residual_ = worst
        return self


class DirectSumIsoDecomposer:
    """Split a direct-sum order isomorphism into a slot permutation, a
    central shift (self-adjoint cone only) and per-factor restricted
    oracles.

    The permutation comes from the images of the atomic central projections
    z_j: on effects these map exactly onto the codomain atoms w_k; on the
    positive and self-adjoint cones they map onto positive scalar multiples
    of the w_k. On the self-adjoint cone the images of -z_j must select the
    same permutation through negative multiples; disagreement means the map
    tears some z_j - z_l into a definite cone and is no isomorphism.

    Attributes (after fit)
    ----------------------
    permutation_ : tuple of int, codomain slot -> domain slot
    shift_ : DirectSumElement or None
    block_oracles_ : list of single-factor OrderIsoOracle, indexed by domain slot
    max_residual_ : float
    block_residuals_ : tuple of float, reassembly residual per codomain slot
    flags_ : tuple of str
    """

    def __init__(self, n_verify=50, random_state=0, tol=DEFAULT_TOL):
        _check_count(n_verify, "n_verify")
        self.n_verify = n_verify
        self.random_state = random_state
        self.tol = tol

    def _match_scalar_atom(self, image: DirectSumElement, sign: float, what: str, unit: bool) -> int:
        """Index of the single block carrying sign * (positive scalar) * identity.
        When unit (a cone bounded above, where an isomorphism fixes both
        ends) the scalar must be 1: the image is a codomain central atom."""
        threshold = 10 * self.tol.eps_recon
        supported = [k for k, b in enumerate(image.blocks) if max_abs(b) > threshold]
        if len(supported) != 1:
            raise DecompositionError(
                f"{what} is supported on {len(supported)} blocks instead of one"
            )
        k = supported[0]
        c = scalar_block(image.blocks[k], threshold, 1.0 if unit else None)
        if c is None or sign * c <= 0:
            kind = "positive" if sign > 0 else "negative"
            multiple = "" if unit else f"{kind} scalar multiple of a "
            raise DecompositionError(f"{what} is not a {multiple}codomain central atom")
        return k

    def fit(self, oracle: OrderIsoOracle) -> "DirectSumIsoDecomposer":
        tol = self.tol
        dom, cod = oracle.domain_profile, oracle.codomain_profile
        zs = central_atoms(dom)
        lo, hi = cone_domain(oracle.cone)

        # only a cone unbounded below (the whole line) is mapped onto itself
        # by a central translation, so only there can an isomorphism move 0
        shift = None
        unshifted = oracle
        if not np.isfinite(lo):
            shift = oracle.forward(DirectSumElement.zero(dom))
            try:
                central = ds_central_scalars(shift, tol) is not None
            except NonFiniteError:  # a black box's NaN answer, which no check has seen
                central = False
            if not central:
                raise DecompositionError(
                    "the image of 0 is not central, so the map is not a spectral "
                    "order isomorphism"
                )
            unshifted = oracle.shifted(-shift)

        unit = np.isfinite(hi)
        assignment = {
            j: self._match_scalar_atom(unshifted.forward(z), +1.0, f"image of central atom {j}", unit)
            for j, z in enumerate(zs)
        }
        if sorted(assignment.values()) != list(range(len(cod))):
            raise DecompositionError("central atom images do not induce a bijection of slots")

        if shift is not None:
            for j, z in enumerate(zs):
                k_neg = self._match_scalar_atom(
                    unshifted.forward(-1.0 * z), -1.0, f"image of negated central atom {j}", unit
                )
                if k_neg != assignment[j]:
                    raise DecompositionError(
                        f"positive and negative scalar actions on central atom {j} "
                        f"select different codomain slots ({assignment[j]} vs {k_neg}); "
                        "the map is not a spectral order isomorphism"
                    )

        pi = [0] * len(cod)
        for j, k in assignment.items():
            pi[k] = j
            if cod.dims[k] != dom.dims[j]:
                raise DimensionMismatchError(
                    f"domain slot {j} (dimension {dom.dims[j]}) maps to codomain slot "
                    f"{k} (dimension {cod.dims[k]})"
                )

        def block_oracle(j: int) -> OrderIsoOracle:
            k = assignment[j]
            single_dom = BlockProfile((dom.dims[j],))
            single_cod = BlockProfile((cod.dims[k],))

            def fwd(x: DirectSumElement) -> DirectSumElement:
                image = unshifted.forward(_embedded(dom, j, x.blocks[0]))
                return _validated_image(single_cod, image.blocks[k], tol)

            def inv(y: DirectSumElement) -> DirectSumElement:
                pre = unshifted.inverse(_embedded(cod, k, y.blocks[0]))
                return _validated_image(single_dom, pre.blocks[j], tol)

            return OrderIsoOracle(single_dom, single_cod, oracle.cone, fwd, inv)

        oracles = [block_oracle(j) for j in range(len(dom))]

        per_block = reassembly_residuals(
            oracle, rng_from(self.random_state), self.n_verify, pi, oracles, shift
        )
        worst = float(np.max(per_block))  # NaN when any residual is
        if not worst <= tol.eps_recon:
            raise DecompositionError(
                f"reassembly residual {worst:.3e} exceeds {tol.eps_recon:.1e}: the map "
                "does not act blockwise, so it is not a spectral order isomorphism"
            )

        self.permutation_ = tuple(pi)
        self.shift_ = shift
        self.block_oracles_ = oracles
        self.max_residual_ = worst
        self.block_residuals_ = tuple(per_block)
        self.flags_ = ("type-I2",) if 2 in dom.dims else ()
        return self


def _validated_image(profile: BlockProfile, block, tol: ToleranceConfig) -> DirectSumElement:
    """A black box's image block as an element, validated once under the
    recovery's tolerances: an image that is not a finite Hermitian matrix
    of the slot's dimension shows that the map is not a spectral order
    isomorphism."""
    try:
        return DirectSumElement(profile, [block], tol)
    except SpeclatError as exc:  # not Hermitian, not finite, or not the slot's shape
        raise DecompositionError(f"the map's image is not a self-adjoint element: {exc}") from None


@dataclass(frozen=True)
class OrthoCheck:
    """Outcome of an orthogonality-preservation scan."""

    ok: bool
    witness: dict | None
    flags: tuple[str, ...] = ()


def _block_orthogonal_pair(rng, dim: int):
    """Two effects on the same factor with exactly orthogonal supports."""
    u = random_unitary(rng, dim)
    split = int(rng.integers(1, dim))
    left, right = u[:, :split], u[:, split:]
    a = spectral_sum(left, rng.uniform(0.1, 1.0, split))
    return a, spectral_sum(right, rng.uniform(0.1, 1.0, dim - split))


def _product_norm(x: DirectSumElement, y: DirectSumElement) -> float:
    """Largest entry of any block of x y; NaN when an entry is."""
    return float(np.max([max_abs(a @ b) for a, b in zip(x.blocks, y.blocks)]))


def is_orthoiso(
    oracle: OrderIsoOracle,
    trials: int = 500,
    random_state=0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> OrthoCheck:
    """Scan for violations of "xy = 0 iff images multiply to 0".

    Zero-product pairs are built on orthogonal supports (inside one factor
    when its dimension allows, across factors otherwise) and pushed through
    the map in both directions; pairs with a clearly nonzero product guard
    the converse. A product counts as zero when no entry of any block
    exceeds 1000 * eps_proj; a NaN entry makes it nonzero, so an image
    with one breaks the zero-product test. The first violation is returned
    as a witness.
    A trial count below 1 raises ValueError.
    """
    _check_count(trials, "trials")
    zero_bound = 1000.0 * tol.eps_proj
    rng = rng_from(random_state)
    flags = ("type-I2",) if 2 in oracle.domain_profile.dims + oracle.codomain_profile.dims else ()

    def orthogonal_pair(profile: BlockProfile):
        wide = [j for j, d in enumerate(profile.dims) if d >= 2]
        cross = len(profile) >= 2
        if wide and (not cross or rng.uniform() < 0.7):
            j = wide[int(rng.integers(len(wide)))]
            a, b = _block_orthogonal_pair(rng, profile.dims[j])
            return _embedded(profile, j, a), _embedded(profile, j, b)
        if cross:
            j1, j2 = rng.choice(len(profile), size=2, replace=False)
            return (
                _embedded(profile, int(j1), random_effect(rng, profile.dims[int(j1)])),
                _embedded(profile, int(j2), random_effect(rng, profile.dims[int(j2)])),
            )
        return None

    def nonzero_pair(profile: BlockProfile):
        for _ in range(20):
            x = random_ds_element(rng, profile, EFFECT)
            y = random_ds_element(rng, profile, EFFECT)
            if _product_norm(x, y) > 10 * zero_bound:
                return x, y
        return None

    def scan(apply, profile, direction) -> dict | None:
        pair = orthogonal_pair(profile)
        if pair is not None:
            fx, fy = apply(pair[0]), apply(pair[1])
            norm = _product_norm(fx, fy)
            if not norm <= zero_bound:
                return {
                    "direction": direction,
                    "kind": "zero product not preserved",
                    "x": pair[0],
                    "y": pair[1],
                    "image_product_norm": norm,
                }
        pair = nonzero_pair(profile)
        if pair is not None:
            fx, fy = apply(pair[0]), apply(pair[1])
            norm = _product_norm(fx, fy)
            if not norm > zero_bound:
                return {
                    "direction": direction,
                    "kind": "nonzero product collapsed to zero",
                    "x": pair[0],
                    "y": pair[1],
                    "image_product_norm": norm,
                }
        return None

    for _ in range(trials):
        witness = scan(oracle.forward, oracle.domain_profile, "forward")
        if witness is None:
            witness = scan(oracle.inverse, oracle.codomain_profile, "inverse")
        if witness is not None:
            return OrthoCheck(False, witness, flags)
    return OrthoCheck(True, None, flags)
