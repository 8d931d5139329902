"""Direct sums of matrix factors: profiles, elements, and blockwise
spectral-order operations.

Spectral families, order tests and lattice operations on a direct sum all
act block by block; assembling the blocks into one block-diagonal matrix
gives the same answers, which the test suite uses as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConeError, DimensionMismatchError, NonFiniteError
from .family import SpectralFamily, _family
from .linalg import _eigh_hermitian, spectral_sum
from .order import _cone_eigh, _in_cone, _join, _leq, _meet, _pos_neg, cone_domain
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import check_hermitian, max_abs


@dataclass(frozen=True)
class BlockProfile:
    """Dimensions (m_j) of the matrix factors of a direct sum."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d <= 0 for d in dims):
            raise DimensionMismatchError(f"profile must list positive dimensions, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        return sum(self.dims)

    @property
    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for d in self.dims:
            out.append(out[-1] + d)
        return tuple(out)

    def __len__(self) -> int:
        return len(self.dims)


class DirectSumElement:
    """A self-adjoint element (x_j) of a direct sum of matrix factors.

    Its blocks are exactly Hermitian and finite, and operations read them
    without checking them again. validate=True checks each block once, here,
    and stores check_hermitian's output, so a block within eps_proj of
    Hermitian is kept symmetrized and a non-finite one is refused.
    validate=False stores the blocks as given: it is the caller's promise
    that they already are exactly Hermitian and finite, as spectral_sum's
    output, c * 1, zeros, and sums, differences, negations and real
    multiples of such blocks are.
    """

    def __init__(
        self, profile: BlockProfile, blocks, tol: ToleranceConfig = DEFAULT_TOL,
        validate: bool = True,
    ):
        self.profile = profile
        blocks = [np.asarray(b, dtype=np.complex128) for b in blocks]
        if len(blocks) != len(profile):
            raise DimensionMismatchError(
                f"{len(blocks)} blocks for a {len(profile)}-factor profile"
            )
        for j, (b, d) in enumerate(zip(blocks, profile.dims)):
            if b.shape != (d, d):
                raise DimensionMismatchError(f"blocks[{j}] has shape {b.shape}, expected ({d},{d})")
            if validate:
                blocks[j] = check_hermitian(b, tol, name=f"blocks[{j}]")
        self.blocks = tuple(blocks)

    @classmethod
    def zero(cls, profile: BlockProfile) -> "DirectSumElement":
        return cls(profile, [np.zeros((d, d)) for d in profile.dims], validate=False)

    def assemble(self) -> np.ndarray:
        """The block-diagonal matrix over the total dimension."""
        n = self.profile.total
        out = np.zeros((n, n), dtype=np.complex128)
        off = self.profile.offsets
        for j, b in enumerate(self.blocks):
            out[off[j] : off[j + 1], off[j] : off[j + 1]] = b
        return out

    def map_blocks(self, fn) -> "DirectSumElement":
        return DirectSumElement(self.profile, [fn(b) for b in self.blocks])

    def __add__(self, other: "DirectSumElement") -> "DirectSumElement":
        _check_profiles(self.profile, other.profile)
        return DirectSumElement(
            self.profile, [a + b for a, b in zip(self.blocks, other.blocks)], validate=False
        )

    def __sub__(self, other: "DirectSumElement") -> "DirectSumElement":
        _check_profiles(self.profile, other.profile)
        return DirectSumElement(
            self.profile, [a - b for a, b in zip(self.blocks, other.blocks)], validate=False
        )

    def __neg__(self) -> "DirectSumElement":
        return DirectSumElement(self.profile, [-b for b in self.blocks], validate=False)

    def __mul__(self, scalar: float) -> "DirectSumElement":
        return DirectSumElement(self.profile, [float(scalar) * b for b in self.blocks], validate=False)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"DirectSumElement(profile={self.profile.dims})"


def _check_profiles(a: BlockProfile, b: BlockProfile) -> None:
    if a.dims != b.dims:
        raise DimensionMismatchError(f"profile mismatch: {a.dims} vs {b.dims}")


def embed_block(profile: BlockProfile, j: int, block) -> DirectSumElement:
    """The element with the given block in slot j and zeros elsewhere."""
    return _embedded(profile, j, check_hermitian(block, name=f"blocks[{j}]"))


def _embedded(profile: BlockProfile, j: int, block: np.ndarray) -> DirectSumElement:
    """embed_block for a block that is already exactly Hermitian and finite,
    such as an element's block, which is not checked again."""
    blocks = [
        block if i == j else np.zeros((d, d), dtype=np.complex128)
        for i, d in enumerate(profile.dims)
    ]
    return DirectSumElement(profile, blocks, validate=False)


def central_atoms(profile: BlockProfile) -> list[DirectSumElement]:
    """The atomic central projections z_j: identity in slot j, zero
    elsewhere. They sum to the identity and are mutually orthogonal."""
    return [
        _embedded(profile, j, np.eye(d, dtype=np.complex128)) for j, d in enumerate(profile.dims)
    ]


def ds_family(x: DirectSumElement, tol: ToleranceConfig = DEFAULT_TOL) -> list[SpectralFamily]:
    """Blockwise spectral families; evaluating every block at a common l
    yields the spectral projection of the direct sum."""
    return [_family(_eigh_hermitian(b, tol), tol) for b in x.blocks]


def ds_spec_leq(x: DirectSumElement, y: DirectSumElement, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Spectral order on the direct sum holds iff it holds in every block."""
    _check_profiles(x.profile, y.profile)
    return all(
        _leq(_eigh_hermitian(a, tol), _eigh_hermitian(b, tol), tol) for a, b in zip(x.blocks, y.blocks)
    )


def _blockwise(op, xs, cone: str, tol: ToleranceConfig) -> DirectSumElement:
    """op (order._join or order._meet) applied slot by slot to a nonempty
    list of direct-sum elements, each block checked against the cone."""
    if not xs:
        raise DimensionMismatchError("supremum/infimum of an empty list")
    profile = xs[0].profile
    for x in xs:
        _check_profiles(profile, x.profile)
    cone_domain(cone)
    blocks = [
        op([
            _in_cone(_eigh_hermitian(x.blocks[j], tol), cone, tol, f"element[{i}]")
            for i, x in enumerate(xs)
        ], tol)
        for j in range(len(profile))
    ]
    return DirectSumElement(profile, blocks, validate=False)


def ds_spec_join(xs, cone: str = "sa", tol: ToleranceConfig = DEFAULT_TOL) -> DirectSumElement:
    """Blockwise supremum of a nonempty list of direct-sum elements."""
    return _blockwise(_join, xs, cone, tol)


def ds_spec_meet(xs, cone: str = "sa", tol: ToleranceConfig = DEFAULT_TOL) -> DirectSumElement:
    """Blockwise infimum of a nonempty list of direct-sum elements."""
    return _blockwise(_meet, xs, cone, tol)


def ds_pos_neg_parts(x: DirectSumElement, tol: ToleranceConfig = DEFAULT_TOL):
    """Blockwise positive and negative parts."""
    parts = [_pos_neg(_eigh_hermitian(b, tol)) for b in x.blocks]
    plus = DirectSumElement(x.profile, [p for p, _ in parts], validate=False)
    minus = DirectSumElement(x.profile, [m for _, m in parts], validate=False)
    return plus, minus


@np.errstate(over="ignore", invalid="ignore")
def scalar_block(block: np.ndarray, threshold: float, c: float | None = None) -> float | None:
    """c when the block is within threshold of c * identity, entry by entry,
    else None (also for a NaN entry, or an infinite c), with no
    RuntimeWarning. c defaults to the midpoint of the diagonal's range, the
    c nearest every diagonal entry, exact on x * 1 at any magnitude."""
    d = block.shape[0]
    if c is None:
        diagonal = np.real(np.diagonal(block))
        lo, hi = float(diagonal.min()), float(diagonal.max())
        c = lo + (hi - lo) / 2
    return c if max_abs(block - c * np.eye(d)) <= threshold else None


def ds_central_scalars(x: DirectSumElement, tol: ToleranceConfig = DEFAULT_TOL) -> list[float] | None:
    """Per-block scalars when every block is a real multiple of its identity,
    else None. A block that is not finite (a sum of blocks that overflowed)
    raises NonFiniteError."""
    scalars = [scalar_block(b, tol.eps_proj) for b in x.blocks]
    if None in scalars and not all(np.isfinite(b).all() for b in x.blocks):
        raise NonFiniteError("a block has entries that are not finite (NaN or infinite)")
    return None if None in scalars else scalars


def ds_atom_scalar_decompose(
    x: DirectSumElement, cone: str, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[float, int, np.ndarray] | None:
    """Write x as alpha * e for an atomic projection e of the direct sum.

    Atoms of a direct sum live in a single factor, so this succeeds exactly
    when one block is a positive scalar multiple of a rank-one projection
    and every other block vanishes. Returns (alpha, block index, e) or None.
    It is defined on the cones whose interval is bounded below ('pos' and
    'eff'), where the scalar multiples of atoms are exactly the elements
    below which the order is total. Each block is validated and decomposed
    once, and its cone membership is read from that eigensystem. Any other
    cone raises ConeError before any block is decomposed.
    """
    if not np.isfinite(cone_domain(cone)[0]):
        raise ConeError("atom decomposition is defined on cones 'pos' and 'eff'")
    systems = [_cone_eigh(b, cone, tol, f"blocks[{j}]") for j, b in enumerate(x.blocks)]
    supported = [j for j, b in enumerate(x.blocks) if max_abs(b) > tol.eps_proj]
    if not supported:
        raise ConeError("x = 0 admits no atomic decomposition")
    if len(supported) != 1:
        return None
    j = supported[0]
    es = systems[j]
    significant = np.nonzero(es.values > tol.eps_proj)[0]
    if len(significant) != 1:
        return None
    i = int(significant[0])
    return float(es.values[i]), j, spectral_sum(es.vectors[:, [i]], 1.0)
