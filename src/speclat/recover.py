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

import inspect
from dataclasses import dataclass

import numpy as np

from .directsum import (
    BlockProfile,
    DirectSumElement,
    central_atoms,
    ds_central_scalars,
    embed_block,
    scalar_block,
)
from .errors import ConeError, DecompositionError, DimensionMismatchError, NotMonotoneError
from .isos import FactorCanonicalIso, OrderIsoOracle, ProjectionIsomorphism
from .linalg import eigh, spectral_sum
from .monotone import MonotoneBijection
from .order import EFFECT, SELF_ADJOINT, check_scalar_map, endpoint_deviations
from .sampling import random_ds_element, random_effect, random_unitary, rng_from
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import max_abs


class BaseRecovery:
    """Minimal estimator base: constructor arguments are parameters,
    fitted state lives in trailing-underscore attributes."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseRecovery":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self


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

    Draws `samples` elements with random_ds_element(rng, domain profile,
    cone). Codomain slot k of a rebuilt image holds the image of block
    j = permutation[k] under block_oracles[j], plus block k of the central
    shift (None off the self-adjoint cone).
    """
    residuals = [0.0] * len(oracle.codomain_profile)
    for _ in range(samples):
        x = random_ds_element(rng, oracle.domain_profile, oracle.cone)
        expected = oracle.forward(x)
        for k, j in enumerate(permutation):
            block = _factor_image(block_oracles[j], x.blocks[j])
            if shift is not None:
                block = block + shift.blocks[k]
            residuals[k] = max(residuals[k], max_abs(block - expected.blocks[k]))
    return residuals


def _unit_projection(v: np.ndarray) -> np.ndarray:
    return spectral_sum((v / np.linalg.norm(v))[:, None], 1.0)


class FactorCanonicalRecovery(BaseRecovery):
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
    grid_points : int
        Uniform grid resolution on [0, 1] for sampling the scalar action.
    n_verify : int
        Number of random effects used for the final residual check.
    verify_tol : float or None
        Acceptance threshold for the verification residual; defaults to
        eps_recon. A scalar action outside the piecewise-linear class at
        grid resolution is rejected here.
    random_state : int or numpy Generator
        Seed for verification sampling.
    tol : ToleranceConfig

    Attributes (after fit)
    ----------------------
    scale_function_ : MonotoneBijection
    projection_map_ : ProjectionIsomorphism
        T is fixed only up to a global unit scalar (an eigenvector's phase).
    canonical_ : FactorCanonicalIso
    max_residual_ : float
    """

    def __init__(self, grid_points=129, n_verify=200, verify_tol=None, random_state=0, tol=DEFAULT_TOL):
        self.grid_points = grid_points
        self.n_verify = n_verify
        self.verify_tol = verify_tol
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
        if oracle.cone != EFFECT:
            raise DecompositionError("canonical recovery is implemented on the effect cone")
        n = _single_factor_dim(oracle)
        tol = self.tol

        grid = np.linspace(0.0, 1.0, self.grid_points)
        scalars = sample_scalar_action(oracle, grid, tol)
        try:
            f = MonotoneBijection.piecewise_linear(grid, scalars)
            check_scalar_map(endpoint_deviations(f, EFFECT), EFFECT, tol)
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

        tau = ProjectionIsomorphism(t_matrix, antilinear)
        canonical = FactorCanonicalIso(f, tau, EFFECT)

        rng = rng_from(self.random_state)
        threshold = self.verify_tol if self.verify_tol is not None else tol.eps_recon
        worst = 0.0
        for _ in range(self.n_verify):
            x = random_effect(rng, n)
            worst = max(worst, max_abs(canonical.apply(x, tol) - _factor_image(oracle, x)))
        if worst > threshold:
            raise DecompositionError(
                f"verification residual {worst:.3e} exceeds {threshold:.1e}: the scalar "
                "action is outside the piecewise-linear class at this grid resolution, "
                "or the map is not a spectral order isomorphism"
            )

        self.scale_function_ = f
        self.projection_map_ = tau
        self.canonical_ = canonical
        self.max_residual_ = worst
        return self


class DirectSumIsoDecomposer(BaseRecovery):
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
        self.n_verify = n_verify
        self.random_state = random_state
        self.tol = tol

    def _match_scalar_atom(self, image: DirectSumElement, sign: float, what: str, cone: str) -> int:
        """Index of the single block carrying sign * (positive scalar) * identity.
        On effects the scalar must be 1: the image is a codomain central atom."""
        threshold = 10 * self.tol.eps_recon
        supported = [k for k, b in enumerate(image.blocks) if max_abs(b) > threshold]
        if len(supported) != 1:
            raise DecompositionError(
                f"{what} is supported on {len(supported)} blocks instead of one"
            )
        k = supported[0]
        unit = cone == EFFECT
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

        shift = None
        if oracle.cone == SELF_ADJOINT:
            shift = oracle.forward(DirectSumElement.zero(dom))
            if ds_central_scalars(shift, tol) is None:
                raise DecompositionError(
                    "the image of 0 is not central, so the map is not a spectral "
                    "order isomorphism"
                )

        def forward(x: DirectSumElement) -> DirectSumElement:
            y = oracle.forward(x)
            return y - shift if shift is not None else y

        def backward(y: DirectSumElement) -> DirectSumElement:
            return oracle.inverse(y + shift if shift is not None else y)

        assignment = {
            j: self._match_scalar_atom(forward(z), +1.0, f"image of central atom {j}", oracle.cone)
            for j, z in enumerate(zs)
        }
        if sorted(assignment.values()) != list(range(len(cod))):
            raise DecompositionError("central atom images do not induce a bijection of slots")

        if oracle.cone == SELF_ADJOINT:
            for j, z in enumerate(zs):
                k_neg = self._match_scalar_atom(
                    forward(-1.0 * z), -1.0, f"image of negated central atom {j}", oracle.cone
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

            def fwd(x: DirectSumElement, _j=j, _k=k) -> DirectSumElement:
                image = forward(embed_block(dom, _j, x.blocks[0]))
                return DirectSumElement(single_cod, [image.blocks[_k]], validate=False)

            def inv(y: DirectSumElement, _j=j, _k=k) -> DirectSumElement:
                pre = backward(embed_block(cod, _k, y.blocks[0]))
                return DirectSumElement(single_dom, [pre.blocks[_j]], validate=False)

            return OrderIsoOracle(single_dom, single_cod, oracle.cone, fwd, inv)

        oracles = [block_oracle(j) for j in range(len(dom))]

        per_block = reassembly_residuals(
            oracle, rng_from(self.random_state), self.n_verify, pi, oracles, shift
        )
        worst = max(per_block)
        if worst > tol.eps_recon:
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


@dataclass(frozen=True)
class OrthoCheck:
    """Outcome of an orthogonality-preservation scan."""

    ok: bool
    witness: dict | None
    trials: int
    flags: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _block_orthogonal_pair(rng, dim: int):
    """Two effects on the same factor with exactly orthogonal supports."""
    u = random_unitary(rng, dim)
    split = int(rng.integers(1, dim))
    left, right = u[:, :split], u[:, split:]
    a = spectral_sum(left, rng.uniform(0.1, 1.0, split))
    return a, spectral_sum(right, rng.uniform(0.1, 1.0, dim - split))


def _product_norm(x: DirectSumElement, y: DirectSumElement) -> float:
    return max(max_abs(a @ b) for a, b in zip(x.blocks, y.blocks))


def is_orthoiso(
    oracle: OrderIsoOracle,
    trials: int = 500,
    random_state=0,
    tol: ToleranceConfig = DEFAULT_TOL,
    zero_tol: float | None = None,
) -> OrthoCheck:
    """Scan for violations of "xy = 0 iff images multiply to 0".

    Zero-product pairs are built on orthogonal supports (inside one factor
    when its dimension allows, across factors otherwise) and pushed through
    the map in both directions; pairs with a clearly nonzero product guard
    the converse. The first violation is returned as a witness.
    """
    if zero_tol is None:
        zero_tol = 1000.0 * tol.eps_proj
    rng = rng_from(random_state)
    flags = ("type-I2",) if 2 in oracle.domain_profile.dims + oracle.codomain_profile.dims else ()

    def orthogonal_pair(profile: BlockProfile):
        wide = [j for j, d in enumerate(profile.dims) if d >= 2]
        cross = len(profile) >= 2
        if wide and (not cross or rng.uniform() < 0.7):
            j = wide[int(rng.integers(len(wide)))]
            a, b = _block_orthogonal_pair(rng, profile.dims[j])
            return embed_block(profile, j, a), embed_block(profile, j, b)
        if cross:
            j1, j2 = rng.choice(len(profile), size=2, replace=False)
            return (
                embed_block(profile, int(j1), random_effect(rng, profile.dims[int(j1)])),
                embed_block(profile, int(j2), random_effect(rng, profile.dims[int(j2)])),
            )
        return None

    def nonzero_pair(profile: BlockProfile):
        for _ in range(20):
            x = random_ds_element(rng, profile, EFFECT)
            y = random_ds_element(rng, profile, EFFECT)
            if _product_norm(x, y) > 10 * zero_tol:
                return x, y
        return None

    def scan(apply, profile, direction) -> dict | None:
        pair = orthogonal_pair(profile)
        if pair is not None:
            fx, fy = apply(pair[0]), apply(pair[1])
            norm = _product_norm(fx, fy)
            if norm > zero_tol:
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
            if norm <= zero_tol:
                return {
                    "direction": direction,
                    "kind": "nonzero product collapsed to zero",
                    "x": pair[0],
                    "y": pair[1],
                    "image_product_norm": norm,
                }
        return None

    for trial in range(trials):
        witness = scan(oracle.forward, oracle.domain_profile, "forward")
        if witness is None:
            witness = scan(oracle.inverse, oracle.codomain_profile, "inverse")
        if witness is not None:
            return OrthoCheck(False, witness, trial + 1, flags)
    return OrthoCheck(True, None, trials, flags)
