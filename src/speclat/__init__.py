"""Spectral order computations on Hermitian matrices and direct sums of
matrix factors: spectral families, lattice operations, canonical
isomorphisms, and structure recovery for black-box order isomorphisms."""

from .directsum import (
    BlockProfile,
    DirectSumElement,
    central_atoms,
    ds_atom_scalar_decompose,
    ds_family,
    ds_pos_neg_parts,
    ds_spec_join,
    ds_spec_leq,
    ds_spec_meet,
    embed_block,
)
from .errors import (
    ConeError,
    DecompositionError,
    DimensionMismatchError,
    InvalidFamilyError,
    NonFiniteError,
    NonHermitianError,
    NotMonotoneError,
    SchemaError,
    SpeclatError,
)
from .family import SpectralFamily, element_of, family_of, merged_breakpoints
from .isos import (
    DirectSumIso,
    FactorCanonicalIso,
    JordanIso,
    OrderIsoOracle,
    ProjectionIsomorphism,
    theta_apply,
)
from .linalg import EigenSystem, eigh, is_psd, orthonormal_range
from .monotone import MonotoneBijection
from .order import (
    CONES,
    EFFECT,
    POSITIVE,
    SELF_ADJOINT,
    apply_monotone,
    atom_scalar_decompose,
    check_cone,
    distributive_check,
    is_central,
    pos_neg_parts,
    spec_join,
    spec_leq,
    spec_meet,
)
from .projections import is_atomic, proj_complement, proj_join, proj_leq, proj_meet
from .recover import (
    DirectSumIsoDecomposer,
    FactorCanonicalRecovery,
    decompose_effect_iso,
    decompose_sa_iso,
    is_orthoiso,
    recover_factor_canonical,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig

__version__ = "0.1.0"
