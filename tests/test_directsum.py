import numpy as np
import pytest

from speclat.directsum import (
    BlockProfile,
    DirectSumElement,
    central_atoms,
    ds_atom_scalar_decompose,
    ds_central_scalars,
    ds_family,
    ds_pos_neg_parts,
    ds_spec_join,
    ds_spec_leq,
    ds_spec_meet,
    embed_block,
)
from speclat.errors import ConeError, DimensionMismatchError, NonFiniteError
from speclat.family import family_of, merged_breakpoints
from speclat.isos import DirectSumIso, FactorCanonicalIso
from speclat.linalg import EigenSystem, eigh
from speclat.order import pos_neg_parts, spec_join, spec_leq, spec_meet
from speclat.sampling import random_ds_element, random_effect, random_hermitian
from speclat.validation import check_hermitian, max_abs


def test_profile_validation():
    assert BlockProfile((2, 3)).total == 5
    assert BlockProfile((2, 3)).offsets == (0, 2, 5)
    with pytest.raises(DimensionMismatchError):
        BlockProfile(())
    with pytest.raises(DimensionMismatchError):
        BlockProfile((2, 0))


def test_element_shape_and_hermitian_validation():
    profile = BlockProfile((2, 2))
    with pytest.raises(DimensionMismatchError):
        DirectSumElement(profile, [np.eye(2)])
    with pytest.raises(DimensionMismatchError):
        DirectSumElement(profile, [np.eye(2), np.eye(3)])


def test_assemble_split_round_trip(rng):
    """assemble puts each block on the diagonal at profile.offsets and zeros
    everywhere else."""
    profile = BlockProfile((2, 3))
    x = random_ds_element(rng, profile, "sa")
    m = x.assemble()
    assert m.shape == (5, 5)
    off = profile.offsets
    for j, b in enumerate(x.blocks):
        assert max_abs(m[off[j] : off[j + 1], off[j] : off[j + 1]] - b) == 0.0
    assert max_abs(m[:2, 2:]) == 0.0 and max_abs(m[2:, :2]) == 0.0


def test_central_atoms_examples():
    atoms = central_atoms(BlockProfile((2, 3)))
    np.testing.assert_allclose(atoms[0].assemble(), np.diag([1, 1, 0, 0, 0]).astype(complex))
    np.testing.assert_allclose(atoms[1].assemble(), np.diag([0, 0, 1, 1, 1]).astype(complex))
    total = sum(a.assemble() for a in atoms)
    np.testing.assert_allclose(total, np.eye(5))
    assert max_abs(atoms[0].assemble() @ atoms[1].assemble()) == 0.0
    (single,) = central_atoms(BlockProfile((4,)))
    np.testing.assert_allclose(single.assemble(), np.eye(4))


def test_ds_family_trivial_examples():
    profile = BlockProfile((1, 1))
    x = DirectSumElement(profile, [np.array([[1.0]]), np.array([[2.0]])])
    fams = ds_family(x)
    np.testing.assert_allclose(fams[0].breakpoints, [1.0])
    np.testing.assert_allclose(fams[1].breakpoints, [2.0])


def test_ds_family_matches_assembled(rng):
    for _ in range(100):
        profile = BlockProfile((2, 3))
        x = random_ds_element(rng, profile, "sa")
        assembled = family_of(x.assemble())
        blockwise = ds_family(x)
        reps = merged_breakpoints([assembled] + blockwise)
        for t in np.concatenate([[reps[0] - 1.0], reps]):
            stacked = DirectSumElement(profile, [f.evaluate(t) for f in blockwise]).assemble()
            assert max_abs(stacked - assembled.evaluate(t)) <= 1e-8


def test_ds_spec_leq_blockwise(rng):
    profile = BlockProfile((2, 2))
    x = random_ds_element(rng, profile, "sa")
    assert ds_spec_leq(x, x)
    y = DirectSumElement(
        profile, [spec_join([b, random_hermitian(rng, 2)], "sa") for b in x.blocks]
    )
    assert ds_spec_leq(x, y)
    # break one block: the order must fail even though the other block holds
    bad = DirectSumElement(profile, [y.blocks[0], x.blocks[1] - np.eye(2)])
    assert not ds_spec_leq(x, bad)


def test_ds_spec_leq_agrees_with_assembly(rng):
    for i in range(200):
        profile = BlockProfile((2, 2))
        x = random_ds_element(rng, profile, "sa")
        if i % 2 == 0:
            y = DirectSumElement(
                profile, [spec_join([b, random_hermitian(rng, 2)], "sa") for b in x.blocks]
            )
        else:
            y = random_ds_element(rng, profile, "sa")
        assert ds_spec_leq(x, y) == spec_leq(x.assemble(), y.assemble())


def test_ds_join_meet_blockwise(rng):
    profile = BlockProfile((2, 3))
    xs = [random_ds_element(rng, profile, "eff") for _ in range(2)]
    top = ds_spec_join(xs, "eff")
    bot = ds_spec_meet(xs, "eff")
    for x in xs:
        assert ds_spec_leq(x, top) and ds_spec_leq(bot, x)


def test_ds_pos_neg(rng):
    x = random_ds_element(rng, BlockProfile((2, 2)), "sa")
    plus, minus = ds_pos_neg_parts(x)
    diff = plus - minus - x
    assert max(max_abs(b) for b in diff.blocks) <= 1e-9


def test_ds_central_scalars():
    profile = BlockProfile((2, 3))
    z = DirectSumElement(profile, [2.0 * np.eye(2), -1.0 * np.eye(3)])
    assert ds_central_scalars(z) == pytest.approx([2.0, -1.0])
    w = DirectSumElement(profile, [np.diag([1.0, 2.0]), np.eye(3)])
    assert ds_central_scalars(w) is None


def test_ds_atom_decompose(rng):
    profile = BlockProfile((2, 2))
    e = np.diag([1.0, 0.0]).astype(complex)
    x = embed_block(profile, 1, 0.5 * e)
    alpha, j, proj = ds_atom_scalar_decompose(x, "eff")
    assert (alpha, j) == (pytest.approx(0.5), 1)
    np.testing.assert_allclose(proj, e, atol=1e-12)
    # support in two blocks is not an atom multiple
    two = DirectSumElement(profile, [0.5 * e, 0.5 * e])
    assert ds_atom_scalar_decompose(two, "eff") is None
    with pytest.raises(ConeError):
        ds_atom_scalar_decompose(DirectSumElement.zero(profile), "eff")


def test_arithmetic():
    profile = BlockProfile((2,))
    x = DirectSumElement(profile, [np.diag([1.0, 2.0])])
    y = DirectSumElement(profile, [np.eye(2)])
    np.testing.assert_allclose((x + y).blocks[0], np.diag([2.0, 3.0]))
    np.testing.assert_allclose((x - y).blocks[0], np.diag([0.0, 1.0]))
    np.testing.assert_allclose((-x).blocks[0], np.diag([-1.0, -2.0]))
    np.testing.assert_allclose((2.0 * x).blocks[0], np.diag([2.0, 4.0]))


def test_ds_atom_decompose_validates_and_decomposes_each_block_once(count_calls):
    profile = BlockProfile((2, 3))
    e = np.diag([1.0, 0.0]).astype(complex)
    x = DirectSumElement(profile, [0.5 * e, np.zeros((3, 3))])
    hermitian = count_calls(check_hermitian)
    spectra = count_calls(np.linalg.eigvalsh)
    solves = count_calls(np.linalg.eigh)
    alpha, j, proj = ds_atom_scalar_decompose(x, "eff")
    assert (alpha, j) == (pytest.approx(0.5), 0)
    np.testing.assert_allclose(proj, e, atol=1e-12)
    # the blocks were validated when x was built: no second check, and one
    # eigensolve per block, the cone read from it
    assert hermitian == []
    assert len(solves) == 2
    assert spectra == []


def test_one_pair_request_solves_each_matrix_once(rng, count_calls):
    """Join, meet, x <= x v z, x <= z, the family and the parts of x on a
    one-block pair read three matrices: x, z and the join."""
    profile = BlockProfile((6,))
    x, z = (DirectSumElement(profile, [random_effect(rng, 6)]) for _ in range(2))
    solves = count_calls(np.linalg.eigh)
    join = ds_spec_join([x, z], "eff")
    ds_spec_meet([x, z], "eff")
    assert ds_spec_leq(x, join)
    ds_spec_leq(x, z)
    ds_family(x)
    ds_pos_neg_parts(x)
    assert len(solves) == 3


def test_lattice_operations_read_element_blocks_unchecked(rng, count_calls):
    """Element blocks are checked when the element is built: the order
    test, join, meet, family and parts read them with no second
    check_hermitian."""
    profile = BlockProfile((2, 3))
    x, z = (random_ds_element(rng, profile, "eff") for _ in range(2))
    hermitian = count_calls(check_hermitian)
    join = ds_spec_join([x, z], "eff")
    ds_spec_meet([x, z], "eff")
    assert ds_spec_leq(x, join)
    ds_family(x)
    ds_pos_neg_parts(x)
    assert hermitian == []


def test_lattice_operations_reach_the_public_operation_once_per_block(rng, count_calls):
    """Each ds_* operation is its single-factor operation applied block by
    block: one call of the public function per block, on the blocks'
    eigensystems."""
    profile = BlockProfile((2, 3))
    x, z = (random_ds_element(rng, profile, "eff") for _ in range(2))
    join = ds_spec_join([x, z], "eff")
    for fn, run in (
        (spec_leq, lambda: ds_spec_leq(x, join)),  # true in every block: no early exit
        (spec_join, lambda: ds_spec_join([x, z], "eff")),
        (spec_meet, lambda: ds_spec_meet([x, z], "eff")),
        (pos_neg_parts, lambda: ds_pos_neg_parts(x)),
        (family_of, lambda: ds_family(x)),
    ):
        calls = count_calls(fn)
        run()
        assert len(calls) == len(profile), fn.__name__
        for args in calls:
            operands = args[0] if isinstance(args[0], list) else args[:-1]
            assert all(isinstance(a, EigenSystem) for a in operands), fn.__name__


@pytest.mark.filterwarnings("ignore:overflow encountered in add")
@pytest.mark.parametrize("op", [
    lambda y: ds_spec_leq(y, y),
    lambda y: ds_spec_join([y, y]),
    lambda y: ds_spec_meet([y, y]),
    ds_family,
    ds_pos_neg_parts,
])
def test_lattice_operations_refuse_blocks_that_overflowed(op):
    """x + x builds its blocks unchecked; the eigensolver refuses a block
    that overflowed to infinity in every lattice operation."""
    x = DirectSumElement(BlockProfile((1, 2)), [[[1e308]], np.eye(2)])
    with pytest.raises(NonFiniteError, match="not finite"):
        op(x + x)


@pytest.mark.parametrize("op", [ds_spec_join, ds_spec_meet])
def test_blockwise_cone_errors_name_the_operand(op):
    """Blocks read unchecked still meet the cone check, whose message names
    the operand as spec_join's does."""
    x = DirectSumElement(BlockProfile((1, 2)), [[[0.5]], np.diag([0.0, 1.0])])
    y = DirectSumElement(BlockProfile((1, 2)), [[[0.5]], np.diag([0.0, 1.5])])
    with pytest.raises(ConeError, match=r"^element\[1\] has eigenvalue 1.5 > 1"):
        op([x, y], "eff")
    with pytest.raises(ConeError, match="unknown cone"):
        op([x, y], "psd")


def test_ds_atom_decompose_cone_errors_name_the_block():
    profile = BlockProfile((2, 2))
    x = DirectSumElement(profile, [np.diag([0.5, 0.0]), np.diag([1.5, 0.0])])
    with pytest.raises(ConeError, match=r"blocks\[1\] has eigenvalue 1.5 > 1"):
        ds_atom_scalar_decompose(x, "eff")


@pytest.mark.parametrize("op", [ds_spec_join, ds_spec_meet])
def test_empty_element_list_is_refused(op):
    with pytest.raises(DimensionMismatchError, match="empty list"):
        op([], "eff")


def test_an_element_stores_its_blocks_symmetrized():
    """A block off Hermitian by no more than eps_proj is kept as
    (b + b*) / 2, so the element's blocks are exactly Hermitian; an exactly
    Hermitian block is kept as it is."""
    profile = BlockProfile((2, 2))
    near = np.array([[1.0, 0.5 + 5e-10j], [0.5, 2.0 + 1e-10j]])
    exact = np.array([[0.0, 1j], [-1j, 3.0]])
    x = DirectSumElement(profile, [near, exact])
    assert x.blocks[0].tobytes() == ((near + near.conj().T) / 2).tobytes()
    assert np.array_equal(x.blocks[0], x.blocks[0].conj().T)
    assert x.blocks[1].tobytes() == exact.astype(complex).tobytes()


# the refusal comes with no RuntimeWarning before it
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "bad",
    [np.array([[1.0, np.inf], [np.inf, 1.0]]), np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0])],
    ids=["inf-offdiagonal", "nan-diagonal", "inf-diagonal"],
)
def test_non_finite_blocks_are_refused_at_every_entry_point(bad):
    """An exact-Hermitian test by == would take [[1, inf], [inf, 1]] (inf
    equals inf); the difference m - m* does not, since inf - inf is NaN."""
    with pytest.raises(NonFiniteError):
        DirectSumElement(BlockProfile((2, 2)), [np.eye(2), bad])
    with pytest.raises(NonFiniteError):
        FactorCanonicalIso.identity(2).apply(bad)
    with pytest.raises(NonFiniteError):
        DirectSumIso.identity(BlockProfile((2,))).apply(DirectSumElement(BlockProfile((2,)), [bad]))
    with pytest.raises(NonFiniteError):
        eigh(bad)
    with pytest.raises(NonFiniteError):
        check_hermitian(bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_central_scalars_of_blocks_whose_trace_overflows():
    """A finite c * 1 whose trace is out of the floats is still central."""
    for c, d in ((1e308, 2), (0.9e308, 2), (0.6e308, 3)):
        x = DirectSumElement(BlockProfile((d, 1)), [c * np.eye(d), [[-1.0]]])
        assert ds_central_scalars(x) == [c, -1.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_scalar_blocks_are_central_at_every_magnitude():
    """An exact x * 1 is central with scalar x however large x is. The mean
    diagonal entry trace / d rounds, and eps_proj is absolute, so from
    about 1e7 on that c was refused: at seed 3, 31, 37 and 33 of 200
    blocks at scales 1e8, 1e10 and 1e100."""
    rng = np.random.default_rng(3)
    for scale in (1e6, 1e8, 1e10, 1e100, 1e300, 3.3e307):
        for _ in range(200):
            x = float(rng.uniform(1.0, 2.0) * scale)
            z = DirectSumElement(BlockProfile((3,)), [x * np.eye(3)])
            assert ds_central_scalars(z) == [x]
    # the midpoint of the diagonal's range is the c nearest every entry:
    # within eps_proj of each here, where the mean is 1.2e-9 from 1.0
    w = DirectSumElement(BlockProfile((3,)), [np.diag([1.0, 1.0 + 1.8e-9, 1.0 + 1.8e-9])])
    assert ds_central_scalars(w) == [pytest.approx(1.0 + 0.9e-9, abs=1e-15)]


@pytest.mark.filterwarnings("error::RuntimeWarning", "ignore:overflow encountered in add")
def test_blocks_that_overflow_in_element_arithmetic_are_refused_as_non_finite():
    """x + x does not check its blocks, and a sum of finite blocks can
    overflow. The isos, the eigensolver and ds_central_scalars refuse such
    a block with NonFiniteError, as ds_spec_join does; a finite block that
    f sends out of the floats keeps InvalidFamilyError
    (test_values_sent_out_of_the_floats_are_refused)."""
    for block in (
        [[1e308, 1e308], [1e308, -1e308]],  # the eigensolver returns NaN
        [[1.0, 2.0, 1e308], [2.0, 1.0, 0.0], [1e308, 0.0, 3.0]],  # it does not converge
        [[1e308]],  # a scalar block
    ):
        profile = BlockProfile((len(block),))
        x = DirectSumElement(profile, [block])
        for cone in ("sa", "pos"):
            with pytest.raises(NonFiniteError, match="not finite"):
                DirectSumIso.identity(profile, cone).apply(x + x)
        with pytest.raises(NonFiniteError, match="not finite"):
            eigh((x + x).blocks[0])
        with pytest.raises(NonFiniteError):
            ds_spec_join([x + x, x + x])
    z = DirectSumElement(BlockProfile((1, 1)), [[[1.0]], [[1e308]]])
    assert ds_central_scalars(z) == [1.0, 1e308]
    with pytest.raises(NonFiniteError, match="^a block has entries that are not finite"):
        ds_central_scalars(z + z)
