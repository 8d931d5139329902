import numpy as np
import pytest

from speclat import order
from speclat.directsum import BlockProfile, DirectSumElement, ds_atom_scalar_decompose, ds_central_scalars
from speclat.errors import ConeError, DimensionMismatchError, InvalidFamilyError, NonFiniteError
from speclat.family import SpectralFamily, element_of, family_of, merged_breakpoints
from speclat.isos import FactorCanonicalIso, ProjectionIsomorphism
from speclat.linalg import eigh, is_psd, spectral_sum
from speclat.monotone import MonotoneBijection
from speclat.order import (
    check_cone,
    distributive_check,
    pos_neg_parts,
    spec_join,
    spec_leq,
    spec_meet,
)
from speclat.projections import proj_leq, proj_meet
from speclat.sampling import (
    random_commuting_family,
    random_effect,
    random_hermitian,
    random_in_cone,
    random_projection,
    random_unitary,
    random_with_spectrum,
)
from speclat.tolerances import DEFAULT_TOL, ToleranceConfig
from speclat.validation import max_abs, proj_rank

# Loewner-true / spectral-false separation pair
X_SEP = np.diag([1.0, 0.0]).astype(complex)
Y_SEP = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)

# frozen distributivity violation for the non-central z = diag(1, 0) in one factor
Z_NC = np.diag([1.0, 0.0]).astype(complex)
X_NC = np.array([[2.0409, -1.0688 + 0.9022j], [-1.0688 - 0.9022j, -0.5678]], dtype=complex)
Y_NC = np.array([[-0.8652, 1.7744 + 0.1936j], [1.7744 - 0.1936j, -0.3526]], dtype=complex)


def test_spec_leq_commuting_diagonals():
    assert spec_leq(np.diag([1.0, 2.0]).astype(complex), np.diag([2.0, 3.0]).astype(complex))


def test_spec_leq_separates_from_loewner():
    assert is_psd(Y_SEP - X_SEP)
    assert not spec_leq(X_SEP, Y_SEP)
    # the crossing happens at the small eigenvalue of y, (3 - sqrt 5) / 2,
    # whose eigenvector is not e2; probe just past the jump
    lam = (3.0 - np.sqrt(5.0)) / 2.0 + 1e-9
    ey = family_of(Y_SEP).evaluate(lam)
    ex = family_of(X_SEP).evaluate(lam)
    assert not proj_leq(ey, ex)


def test_spec_leq_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        spec_leq(np.eye(2), np.eye(3))


def test_spec_leq_coincides_with_projection_order(rng):
    for _ in range(200):
        n = int(rng.integers(2, 5))
        p = random_projection(rng, n)
        q = random_projection(rng, n)
        assert spec_leq(p, q) == proj_leq(p, q)


TIE_GRID = {"sa": [-1.0, 0.0, 0.5, 2.0], "pos": [0.0, 0.5, 1.0, 3.0], "eff": [0.0, 0.25, 0.5, 1.0]}


def _pairs(rng, n, cone):
    """Generic, tied, tied-comparable, tied-commuting and x <= x v z pairs
    in the cone."""
    grid = np.array(TIE_GRID[cone])
    x = random_in_cone(rng, n, cone)
    yield x, random_in_cone(rng, n, cone)
    yield x, spec_join([x, random_in_cone(rng, n, cone)], cone)
    lo = rng.integers(0, len(grid), n)
    tied = random_with_spectrum(rng, grid[lo])
    yield tied, random_with_spectrum(rng, grid[rng.integers(0, len(grid), n)])
    # commuting with ties, in a random basis and in permuted coordinates
    # (exact zero overlaps): pointwise larger eigenvalues are comparable,
    # independent ones mostly not
    hi = np.minimum(lo + rng.integers(0, 2, n), len(grid) - 1)
    other = rng.integers(0, len(grid), n)
    for u in (random_unitary(rng, n), np.eye(n)[rng.permutation(n)]):
        x, y, z = ((u * grid[k]) @ u.conj().T for k in (lo, hi, other))
        yield x, y
        yield x, z


def test_spec_leq_matches_projection_definition(rng):
    """spec_leq against its definition: E^y_l <= E^x_l at every merged
    breakpoint, with the families' cumulative projections."""
    verdicts = []
    for n in (2, 3, 4, 5, 6, 16):
        for cone in ("sa", "pos", "eff"):
            for _ in range(6):
                for a, b in _pairs(rng, n, cone):
                    for x, y in ((a, b), (b, a)):
                        fx, fy = family_of(x), family_of(y)
                        expected = all(
                            proj_leq(fy.evaluate(lam), fx.evaluate(lam))
                            for lam in merged_breakpoints([fx, fy])
                        )
                        assert spec_leq(x, y) == expected
                        verdicts.append(expected)
                    es = eigh(a)
                    bounds = zip([0, *es.offsets[:-1]], es.offsets)
                    old = [float(np.mean(es.values[lo:hi])) for lo, hi in bounds]
                    assert es.breakpoints.tobytes() == family_of(a).breakpoints.tobytes()
                    assert es.breakpoints.tobytes() == np.array(old).tobytes()
    assert 0.2 < np.mean(verdicts) < 0.8


def _join_by_definition(xs):
    """The supremum from its definition: the pointwise proj_meet of the
    families at every merged breakpoint, compressed to the rank jumps."""
    fams = [family_of(x) for x in xs]
    n = fams[0].n
    kept_b, kept_p, prev = [], [], 0
    for lam in merged_breakpoints(fams):
        p = proj_meet([f.evaluate(lam) for f in fams])
        rank = proj_rank(p)
        assert rank >= prev
        if rank > prev:
            kept_b.append(lam)
            kept_p.append(p)
            prev = rank
    assert prev == n
    kept_p[-1] = np.eye(n, dtype=complex)
    return element_of(SpectralFamily(kept_b, kept_p))


def test_join_and_meet_match_projection_definition(rng):
    """spec_join and spec_meet against the pointwise projection meet of the
    families (the meet as the negated join of the negations), over pairs,
    x v x, three-operand lists and 1 x 1 matrices."""
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 16, 32):
        for cone in ("sa", "pos", "eff"):
            for _ in range(3 if n <= 8 else 1):
                cases = [[a, b] for a, b in _pairs(rng, n, cone)]
                x = random_in_cone(rng, n, cone)
                cases.append([x, x])
                cases.append([x, random_in_cone(rng, n, cone), cases[2][0]])
                for xs in cases:
                    expected = _join_by_definition(xs)
                    assert max_abs(spec_join(xs, cone) - expected) <= 1e-12
                    expected = 0.0 - _join_by_definition([-m for m in xs])
                    assert max_abs(spec_meet(xs, cone) - expected) <= 1e-12


def test_join_and_meet_match_projection_definition_at_wide_sizes(rng):
    """The same check at the sizes of the wide benchmark: a generic pair, a
    tied pair, a three-operand list, a comparable pair x, x v y (its meet
    refuses one-column steps inside long runs) and three generic
    operands."""
    grid = np.array(TIE_GRID["sa"])
    for n in (48, 64):
        x, y = random_hermitian(rng, n), random_hermitian(rng, n)
        tied = [random_with_spectrum(rng, grid[rng.integers(0, len(grid), n)]) for _ in range(2)]
        z = random_hermitian(rng, n)
        for xs in ([x, y], tied, [x, y, tied[0]], [x, spec_join([x, y])], [x, y, z]):
            assert max_abs(spec_join(xs) - _join_by_definition(xs)) <= 1e-12
            expected = 0.0 - _join_by_definition([-m for m in xs])
            assert max_abs(spec_meet(xs) - expected) <= 1e-12


def test_negated_eigensystem_clusters_as_eigh_of_the_negation(rng):
    """The infimum reads -x's eigensystem from x's. Its clusters are formed
    afresh from the low end, so on a chain of steps inside eps_eig (0, 6e-9,
    1.2e-8) they match eigh(-x) and not x's clusters reversed."""
    spectra = [[0.0, 6e-9, 1.2e-8], [0.0, 0.0, 1.0], [-1.0, 0.5, 0.5, 2.0], rng.standard_normal(6)]
    for w in spectra:
        x = random_with_spectrum(rng, np.asarray(w))
        got, expected = order._negated(eigh(x), DEFAULT_TOL), eigh(-x)
        assert got.offsets.tolist() == expected.offsets.tolist()
        assert max_abs(got.values - expected.values) <= 1e-14
        assert max_abs(spectral_sum(got.vectors, got.values) + x) <= 1e-14


def test_join_splits_only_the_entering_eigenvectors(rng, monkeypatch):
    """Going down, each step splits the join's remaining directions against
    the eigenvectors that enter the complement there, and no singular-value
    pre-check runs. On a generic pair one eigenvector enters at each of the
    2n breakpoints, and the first n are independent, so one QR of the n x n
    matrix h* B completes the join, with no split_range. On a commuting
    tied pair several eigenvectors enter at every breakpoint, and each step
    is one split_range of exactly those."""
    n = 32
    widths, values_only, qr_shapes = [], [], []
    split_range, svd, qr = order.split_range, np.linalg.svd, np.linalg.qr

    def recording_split(a, tol):
        widths.append(a.shape[1])
        return split_range(a, tol)

    def recording_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv") is False or args[1:2] == (False,):
            values_only.append(a.shape)
        return svd(a, *args, **kwargs)

    def recording_qr(a, *args, **kwargs):
        qr_shapes.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(order, "split_range", recording_split)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    x, y = random_hermitian(rng, n), random_hermitian(rng, n)
    spec_join([x, y])
    assert len(merged_breakpoints([eigh(x), eigh(y)])) == 2 * n
    assert qr_shapes == [(n, n)]
    assert widths == []

    # both spectra take every grid value, so both operands have
    # eigenvectors at every merged breakpoint
    grid = np.array(TIE_GRID["sa"])
    u = random_unitary(rng, n)
    x, y = (spectral_sum(u, np.sort(grid[np.r_[0:4, rng.integers(0, 4, n - 4)]])) for _ in range(2))
    systems = [eigh(x), eigh(y)]
    reps = merged_breakpoints(systems)
    counts = sum(np.diff(es.columns_at(reps)) for es in systems)
    qr_shapes.clear()
    spec_join([x, y])
    assert len(reps) == 4 and min(counts) >= 2
    assert qr_shapes == []
    assert widths and widths == counts[::-1][: len(widths)].tolist()
    assert values_only == []


def test_join_reaches_identity_at_last_breakpoint(rng):
    """Every family is the identity at the last merged breakpoint, so the
    join's remaining directions take it there, even under a rank threshold
    below rounding: the spectrum stays on the merged breakpoints."""
    tiny = ToleranceConfig(eps_proj=1e-300)
    for n in range(2, 9):
        for _ in range(5):
            x, y = random_hermitian(rng, n), random_hermitian(rng, n)
            reps = merged_breakpoints([eigh(x), eigh(y)])
            got = np.linalg.eigvalsh(spec_join([x, y], "sa", tiny))
            assert np.all(np.min(np.abs(got[:, None] - reps[None, :]), axis=1) <= 1e-12)
            assert abs(got[-1] - reps[-1]) <= 1e-12


def _near_rotation(rng, n, eps):
    """exp(i eps h) for a random Hermitian h, through its eigensystem."""
    w, v = np.linalg.eigh(random_hermitian(rng, n))
    return (v * np.exp(1j * eps * w)) @ v.conj().T


@pytest.mark.parametrize("eps", [1e-10, 5e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5])
def test_join_and_meet_bound_nearly_aligned_operands(rng, eps):
    """y = u x u* with u within eps of the identity: the eigenbases of x and
    y differ by a rotation of order eps, and the join and meet still bound
    both operands."""
    for n in range(2, 9):
        for _ in range(5):
            x = random_hermitian(rng, n)
            u = _near_rotation(rng, n, eps)
            y = u @ x @ u.conj().T
            y = (y + y.conj().T) / 2.0
            top, bottom = spec_join([x, y]), spec_meet([x, y])
            assert spec_leq(x, top) and spec_leq(y, top)
            assert spec_leq(bottom, x) and spec_leq(bottom, y)


NAN, INF, EYE = np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0]), np.eye(2)


# the refusal comes with no RuntimeWarning before it
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "probe",
    [
        lambda: spec_leq(NAN, EYE),
        lambda: spec_leq(INF, EYE),
        lambda: spec_join([NAN, EYE]),
        lambda: is_psd(NAN),
    ],
    ids=["spec_leq-nan", "spec_leq-inf", "spec_join-nan", "is_psd-nan"],
)
def test_non_finite_input_is_refused(probe):
    """A NaN or infinite entry is an input error, not a verdict."""
    with pytest.raises(NonFiniteError, match="not finite"):
        probe()


def test_partial_order_axioms(rng):
    """Reflexive, antisymmetric and transitive on random instances; chains
    are built through joins."""
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        a = random_hermitian(rng, n)
        assert spec_leq(a, a)
        b = spec_join([a, random_hermitian(rng, n)], "sa")
        c = spec_join([b, random_hermitian(rng, n)], "sa")
        assert spec_leq(a, b) and spec_leq(b, c) and spec_leq(a, c)
        if spec_leq(b, a):
            assert max_abs(a - b) <= 1e-6


def test_spec_implies_loewner(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        x = random_hermitian(rng, n)
        y = spec_join([x, random_hermitian(rng, n)], "sa")
        assert spec_leq(x, y) and is_psd(y - x)


def test_join_idempotent(rng):
    x = random_hermitian(rng, 4)
    np.testing.assert_allclose(spec_join([x, x], "sa"), x, atol=1e-9)
    np.testing.assert_allclose(spec_meet([x, x], "sa"), x, atol=1e-9)


def test_join_meet_commuting_max_min():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    np.testing.assert_allclose(spec_join([a, b], "sa"), np.eye(2), atol=1e-9)
    x = np.diag([1.0, 4.0]).astype(complex)
    y = np.diag([3.0, 2.0]).astype(complex)
    np.testing.assert_allclose(spec_meet([x, y], "sa"), np.diag([1.0, 2.0]), atol=1e-9)


def test_join_meet_commuting_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        u, spectra, mats = random_commuting_family(rng, n, 2)
        np.testing.assert_allclose(
            spec_meet(mats, "sa"), (u * np.min(spectra, axis=0)) @ u.conj().T, atol=1e-8
        )
        np.testing.assert_allclose(
            spec_join(mats, "sa"), (u * np.max(spectra, axis=0)) @ u.conj().T, atol=1e-8
        )


def test_join_universal_property_effects(rng):
    for _ in range(200):
        n = int(rng.integers(2, 5))
        x = random_effect(rng, n)
        y = random_effect(rng, n)
        top = spec_join([x, y], "eff")
        assert spec_leq(x, top) and spec_leq(y, top)
        z = spec_join([x, y, random_effect(rng, n)], "eff")
        assert spec_leq(top, z)


def test_meet_of_projections_matches_lattice_meet(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        p = random_projection(rng, n)
        q = random_projection(rng, n)
        np.testing.assert_allclose(spec_meet([p, q], "eff"), proj_meet([p, q]), atol=1e-8)


def test_empty_join_meet_rejected():
    with pytest.raises(DimensionMismatchError):
        spec_join([], "sa")
    with pytest.raises(DimensionMismatchError):
        spec_meet([], "sa")


def test_sublattice_closure(rng):
    """Meets and joins of effects are effects; of positives, positive."""
    for _ in range(100):
        n = int(rng.integers(2, 5))
        es = [random_effect(rng, n) for _ in range(2)]
        for out in (spec_meet(es, "eff"), spec_join(es, "eff")):
            check_cone(out, "eff")
        ps = [random_effect(rng, n) for _ in range(2)]
        for out in (spec_meet(ps, "pos"), spec_join(ps, "pos")):
            check_cone(out, "pos")


def test_absorption_laws(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        x = random_hermitian(rng, n)
        y = random_hermitian(rng, n)
        assert max_abs(spec_join([x, spec_meet([x, y], "sa")], "sa") - x) <= 1e-8
        assert max_abs(spec_meet([x, spec_join([x, y], "sa")], "sa") - x) <= 1e-8


def test_pos_neg_parts_examples():
    plus, minus = pos_neg_parts(np.diag([3.0, -2.0]).astype(complex))
    np.testing.assert_allclose(plus, np.diag([3.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(minus, np.diag([0.0, 2.0]), atol=1e-12)


def test_pos_neg_parts_psd_input(rng):
    x = random_effect(rng, 3)
    plus, minus = pos_neg_parts(x)
    np.testing.assert_allclose(plus, x, atol=1e-9)
    np.testing.assert_allclose(minus, np.zeros((3, 3)), atol=1e-9)


def test_pos_neg_parts_identities(rng):
    for _ in range(100):
        x = random_hermitian(rng, 4)
        plus, minus = pos_neg_parts(x)
        assert max_abs(plus - minus - x) <= 1e-9
        assert max_abs(plus @ minus) <= 1e-9
        assert is_psd(plus) and is_psd(minus)


def functional_calculus(f, x, cone="sa"):
    """Monotone functional calculus: the canonical isomorphism with identity
    tau, so eigenvalues pass through f and spectral projections stay."""
    return FactorCanonicalIso(f, ProjectionIsomorphism.identity(len(x)), cone).apply(x)


def test_apply_monotone_identity(rng):
    x = random_hermitian(rng, 3)
    np.testing.assert_allclose(functional_calculus(MonotoneBijection.identity(), x), x, atol=1e-10)


def test_apply_monotone_cube():
    got = functional_calculus(MonotoneBijection.power(3.0), np.diag([1.0, -2.0]).astype(complex))
    np.testing.assert_allclose(got, np.diag([1.0, -8.0]), atol=1e-10)


def test_apply_monotone_preserves_order(rng):
    f = MonotoneBijection.power(3.0)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        x = random_hermitian(rng, n)
        y = spec_join([x, random_hermitian(rng, n)], "sa")
        assert spec_leq(functional_calculus(f, x), functional_calculus(f, y))


def test_apply_monotone_cone_domain_guard():
    f = MonotoneBijection.piecewise_linear([0.0, 1.0], [0.1, 1.0])
    with pytest.raises(ConeError):
        functional_calculus(f, np.diag([0.5, 0.5]).astype(complex), "eff")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_apply_monotone_matches_family_formula(rng):
    """The canonical map with identity tau equals the family formula
    element_of(SpectralFamily(f(breakpoints), cumulative)), an independent
    reference."""
    maps = {
        "sa": [MonotoneBijection.power(3.0), MonotoneBijection.piecewise_linear([-1.0, 0.0, 2.0], [-3.0, 0.5, 1.0])],
        "pos": [MonotoneBijection.power(0.5), MonotoneBijection.piecewise_linear([0.0, 0.5, 3.0], [0.0, 1.0, 1.5])],
        "eff": [MonotoneBijection.power(2.0), MonotoneBijection.piecewise_linear([0.0, 0.2, 1.0], [0.0, 0.7, 1.0])],
    }
    for trial in range(240):
        cone = ("sa", "pos", "eff")[trial % 3]
        n = 1 + trial % 6
        lo, hi = {"sa": (-1.0, 2.0), "pos": (0.0, 3.0), "eff": (0.0, 1.0)}[cone]
        values = np.sort(rng.uniform(lo, hi, n))
        if trial % 2:
            values[: n // 2 + 1] = values[0]  # tied
        x = random_with_spectrum(rng, values)
        for f in maps[cone]:
            fam = family_of(x)
            expected = element_of(SpectralFamily(f(fam.breakpoints), fam.cumulative))
            assert max_abs(functional_calculus(f, x, cone) - expected) <= 1e-12
    # a breakpoint that f sends to infinity is refused, as SpectralFamily refuses it
    with pytest.raises(InvalidFamilyError, match="finite"):
        functional_calculus(MonotoneBijection.power(5.0), np.diag([1e100, 1.0]))


def one_block_atom(x, cone):
    """ds_atom_scalar_decompose on the one-factor direct sum of x."""
    return ds_atom_scalar_decompose(DirectSumElement(BlockProfile((len(x),)), [x]), cone)


def test_atom_scalar_decompose_examples():
    found = one_block_atom(0.5 * np.diag([1.0, 0.0]).astype(complex), "eff")
    assert found is not None
    alpha, block, e = found
    assert block == 0
    assert alpha == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(e, np.diag([1.0, 0.0]), atol=1e-12)
    assert one_block_atom(np.eye(2, dtype=complex), "eff") is None


def test_atom_scalar_decompose_errors():
    with pytest.raises(ConeError):
        one_block_atom(np.zeros((2, 2)), "eff")
    with pytest.raises(ConeError):
        one_block_atom(np.diag([2.0, 0.0]).astype(complex), "eff")
    with pytest.raises(ConeError):
        one_block_atom(np.diag([1.0, 0.0]).astype(complex), "sa")
    # the cone is refused before any block is read: two supported blocks on
    # 'sa' are no false "not an atom" verdict
    two = DirectSumElement(BlockProfile((2, 2)), [np.diag([1.0, 0.0]), np.diag([0.5, 0.0])])
    with pytest.raises(ConeError, match="'pos' and 'eff'"):
        ds_atom_scalar_decompose(two, "sa")


def test_atoms_make_order_total_below(rng):
    """Everything below a scalar atom is comparable; below the identity an
    incomparable pair exists."""
    x = 0.7 * np.diag([1.0, 0.0]).astype(complex)
    below = [spec_meet([x, random_effect(rng, 2)], "eff") for _ in range(20)]
    for a in below:
        for b in below:
            assert spec_leq(a, b) or spec_leq(b, a)
    top = np.eye(2, dtype=complex)
    found_incomparable = False
    for _ in range(100):
        y = random_effect(rng, 2)
        z = random_effect(rng, 2)
        assert spec_leq(y, top) and spec_leq(z, top)
        if not spec_leq(y, z) and not spec_leq(z, y):
            found_incomparable = True
            break
    assert found_incomparable


def central_scalars(*blocks):
    """ds_central_scalars of the direct sum with the given blocks."""
    profile = BlockProfile(tuple(len(b) for b in blocks))
    return ds_central_scalars(DirectSumElement(profile, [np.asarray(b, dtype=complex) for b in blocks]))


def test_is_central_examples():
    assert central_scalars(2.5 * np.eye(3)) == [2.5]
    assert central_scalars(np.diag([1.0, 2.0])) is None
    assert central_scalars(2.0 * np.eye(2), -np.eye(3)) == [2.0, -1.0]
    assert central_scalars(np.diag([2.0, 1.0]), -np.eye(3)) is None


def test_distributive_check_central_and_absorbing(rng):
    z = 0.3 * np.eye(2, dtype=complex)
    for _ in range(50):
        x = random_hermitian(rng, 2)
        y = random_hermitian(rng, 2)
        assert distributive_check(z, x, y, "sa")
        assert distributive_check(x, x, y, "sa")


def test_distributive_check_stored_violation():
    assert central_scalars(Z_NC) is None
    assert not distributive_check(Z_NC, X_NC, Y_NC, "sa")
