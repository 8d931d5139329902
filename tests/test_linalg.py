import numpy as np
import pytest

from speclat import linalg
from speclat.errors import DimensionMismatchError, NonFiniteError, NonHermitianError
from speclat.family import merged_breakpoints
from speclat.linalg import EigenSystem, eigh, is_psd, orthonormal_range, spectral_sum, split_range
from speclat.sampling import random_hermitian, random_unitary, random_with_spectrum
from speclat.tolerances import ToleranceConfig
from speclat.validation import check_hermitian, max_abs

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def test_eigh_diagonal_sorts_ascending():
    es = eigh(np.diag([2.0, 1.0]).astype(complex))
    np.testing.assert_allclose(es.values, [1.0, 2.0])
    np.testing.assert_allclose(np.abs(es.vectors[:, 0]), np.abs(E2))
    np.testing.assert_allclose(np.abs(es.vectors[:, 1]), np.abs(E1))


def test_eigh_symmetric_offdiagonal():
    es = eigh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    np.testing.assert_allclose(es.values, [-1.0, 1.0])
    # the basis is LAPACK's, so each column is fixed up to a unit phase
    for column, expected in zip(es.vectors.T, ([1.0, -1.0], [1.0, 1.0])):
        np.testing.assert_allclose(abs(np.vdot(expected, column)), np.sqrt(2))


def test_eigh_reconstruction_random(rng):
    for _ in range(50):
        x = random_hermitian(rng, 4)
        es = eigh(x)
        assert max_abs(spectral_sum(es.vectors, es.values) - x) <= 1e-10


def test_eigh_orthonormal_and_deterministic(rng):
    x = random_hermitian(rng, 5)
    a, b = eigh(x), eigh(x)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    assert max_abs(a.vectors.conj().T @ a.vectors - np.eye(5)) <= 1e-12


def test_eigh_clusters_group_repeated_eigenvalues():
    es = eigh(np.diag([1.0, 1.0, 2.0]).astype(complex))
    assert es.offsets.tolist() == [2, 3]


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_eigh_solves_equal_bytes_once(rng, count_calls):
    x = random_hermitian(rng, 4)
    solves = count_calls(np.linalg.eigh)
    first = eigh(x)
    again = eigh(x.copy(), name="copy")
    assert len(solves) == 1
    assert again.vectors.tobytes() == first.vectors.tobytes()
    assert again.offsets.tolist() == first.offsets.tolist()


def test_eigh_solves_a_changed_matrix_or_tol_again(rng, count_calls):
    x = random_hermitian(rng, 4)
    solves = count_calls(np.linalg.eigh)
    eigh(x)
    x[0, 0] += 1.0
    es = eigh(x)
    assert len(solves) == 2
    assert max_abs(spectral_sum(es.vectors, es.values) - x) <= 1e-12
    eigh(x, ToleranceConfig(eps_eig=1e-6))
    assert len(solves) == 3


def test_eigh_arrays_are_read_only(rng):
    """Every array that a memo hit hands out again is read-only;
    column_breakpoints of a tied system is built afresh on each read."""
    es = eigh(random_with_spectrum(rng, [0.0, 0.0, 1.0]))
    for a in (es.values, es.vectors, es.offsets, es.breakpoints):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5


def test_eigh_refuses_bad_input_on_every_call_under_its_own_name():
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    for name in ("a", "b"):
        with pytest.raises(NonFiniteError, match=f"^{name} has entries"):
            eigh(nan, name=name)
        with pytest.raises(NonHermitianError, match=f"^{name} is not Hermitian"):
            eigh(skew, name=name)


def test_eigh_refuses_a_finite_matrix_whose_spectrum_overflows():
    """Every entry is finite, but the eigenvalue 2e308 is not a float."""
    with pytest.raises(NonFiniteError, match="^matrix has eigenvalues that are not finite"):
        eigh(np.full((2, 2), 1e308, dtype=complex))


def test_eigh_solves_the_first_matrix_again_after_memo_size_others(count_calls):
    solves = count_calls(np.linalg.eigh)
    xs = [np.diag([float(i), 0.0]).astype(complex) for i in range(linalg._MEMO_SIZE + 1)]
    for x in xs:
        eigh(x)
    eigh(xs[0])
    assert len(solves) == linalg._MEMO_SIZE + 2


def test_eigh_involutive_many(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        x = random_hermitian(rng, n)
        es = eigh(x)
        assert max_abs(spectral_sum(es.vectors, es.values) - x) <= 1e-8


def test_orthonormal_range_single_vector():
    np.testing.assert_allclose(orthonormal_range([E1]), np.diag([1.0, 0.0]), atol=1e-12)


def test_orthonormal_range_dependent_vectors():
    p = orthonormal_range([E1, E1])
    np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-12)
    assert round(np.real(np.trace(p))) == 1


def test_orthonormal_range_spanning_pair():
    p = orthonormal_range([np.array([1.0, 1.0]), np.array([1.0, -1.0])])
    np.testing.assert_allclose(p, np.eye(2), atol=1e-12)


def test_orthonormal_range_empty_dimension():
    with pytest.raises(DimensionMismatchError):
        orthonormal_range(np.zeros((0, 1)))


def test_orthonormal_range_is_projection(rng):
    for _ in range(100):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 4))
        cols = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        p = orthonormal_range(cols)
        assert max_abs(p - p.conj().T) <= 1e-12
        assert max_abs(p @ p - p) <= 1e-12


def test_split_range_of_wide_and_empty_matrices():
    """The split is at singular value eps_proj = 1e-9, and a matrix with no
    columns has an empty range. On wide, square and tall inputs the range
    and its complement together span C^n."""
    wide = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1e-10, 0.0], [0.0, 0.0, 0.0, 2e-9]])
    square = np.diag([1.0, 1e-10, 2e-9])
    tall = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2e-9]])
    for a in (wide, square, tall):
        inside, outside = split_range(a)
        assert max_abs(spectral_sum(inside, 1.0) - np.diag([1.0, 0.0, 1.0])) <= 1e-15
        assert max_abs(spectral_sum(outside, 1.0) - np.diag([0.0, 1.0, 0.0])) <= 1e-15
        both = np.hstack([inside, outside])
        assert both.shape == (3, 3)
        assert max_abs(both.conj().T @ both - np.eye(3)) <= 1e-15
    inside, outside = split_range(np.zeros((3, 0)))
    assert inside.shape == (3, 0)
    assert max_abs(spectral_sum(outside, 1.0) - np.eye(3)) <= 1e-15


def test_is_psd_examples():
    assert is_psd(np.diag([0.0, 3.0]).astype(complex))
    assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))


def test_is_psd_constructed(rng):
    for _ in range(50):
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert is_psd(b.conj().T @ b)


def test_is_psd_reads_the_memoized_eigensystem(rng, count_calls):
    """is_psd solves through eigh's memo, as check_cone does, so a matrix
    already decomposed is not solved again and eigvalsh is never called."""
    x = random_hermitian(rng, 4)
    eigvalsh = count_calls(np.linalg.eigvalsh)
    solves = count_calls(np.linalg.eigh)
    eigh(x)
    assert is_psd(x) == (eigh(x).values[0] >= -ToleranceConfig().eps_proj)
    assert eigvalsh == [] and len(solves) == 1


def test_check_hermitian_returns_an_exactly_hermitian_input_itself(rng):
    """An exactly Hermitian matrix is its own symmetrization, so it is
    returned as it is, with no copy; any other input is symmetrized."""
    x = random_hermitian(rng, 4)
    assert check_hermitian(x) is x
    near = x.copy()
    near[0, 1] += 1e-12
    got = check_hermitian(near)
    assert got is not near and got.tobytes() == ((near + near.conj().T) / 2).tobytes()


def test_is_psd_matches_min_eigenvalue(rng):
    tol = ToleranceConfig()
    for _ in range(100):
        x = random_hermitian(rng, 4)
        assert is_psd(x) == (eigh(x).values[0] >= -tol.eps_proj)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(eps_eig=-1.0)
    with pytest.raises(ValueError):
        ToleranceConfig(eps_eig=1e-12, eps_proj=1e-9)


def _reference_eigh(x, eps_eig=1e-8):
    """Reference for eigh: (values, vectors, offsets, breakpoints), with
    numpy's eigenbasis and the clusters and their means found one
    eigenvalue at a time."""
    x = np.asarray(x, dtype=np.complex128)
    values, vectors = np.linalg.eigh((x + x.conj().T) / 2.0)
    starts = [0]
    for i in range(1, len(values)):
        if not (values[i] - values[starts[-1]] <= eps_eig and values[i] - values[i - 1] <= eps_eig):
            starts.append(i)
    bounds = list(zip(starts, starts[1:] + [len(values)]))
    breakpoints = np.array([
        0.0 + values[lo] if hi - lo == 1 else float(np.mean(values[lo:hi])) for lo, hi in bounds
    ])
    return values, vectors, [hi for _, hi in bounds], breakpoints


def test_spectral_sum_symmetrizes_in_place_with_the_bytes_of_the_mean(rng):
    """spectral_sum's in-place m += m*; m *= 0.5 gives the bytes of
    (m + m*) / 2.0, on complex unitary columns and on real columns (where
    m.conj() is m itself), with weights at scales from 1e-300 to 1e300."""
    for i in range(2000):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(0, n + 1))
        v = rng.standard_normal((n, k)) if i % 3 == 0 else random_unitary(rng, n)[:, :k]
        w = rng.standard_normal(k) * 10.0 ** int(rng.integers(-300, 301))
        m = (v * w) @ v.conj().T
        assert spectral_sum(v, w).tobytes() == ((m + m.conj().T) / 2.0).tobytes()


def test_eigh_matches_per_column_reference(rng, spectra):
    """values, vectors, offsets and breakpoints agree bit for bit with the
    reference, whose vectors are np.linalg.eigh's, in a random basis and in
    permuted coordinates (exact zeros)."""
    for n in [*range(1, 9)] * 12 + [16, 24, 32, 48, 64]:
        for w in spectra(rng, n):
            for u in (random_unitary(rng, n), np.eye(n)[rng.permutation(n)]):
                x = (u * w) @ u.conj().T
                values, vectors, offsets, breakpoints = _reference_eigh(x)
                es = eigh(x)
                assert es.values.tobytes() == values.tobytes()
                assert es.vectors.tobytes() == vectors.tobytes()
                assert es.offsets.tolist() == offsets
                assert es.breakpoints.tobytes() == breakpoints.tobytes()


def test_column_breakpoints_repeat_each_breakpoint_over_its_cluster(rng, spectra):
    """column_breakpoints is breakpoints itself when no eigenvalue is tied.
    With and without ties it equals np.repeat(breakpoints, counts) bit for
    bit, also for a -0.0 eigenvalue, which breakpoints store as +0.0."""
    systems = [EigenSystem(np.array([-0.0, 1.0]), np.eye(2, dtype=complex), np.array([1, 2]))]
    for n in range(1, 7):
        for w in spectra(rng, n):
            systems.append(eigh(random_with_spectrum(rng, w)))
    tied = 0
    for es in systems:
        tied += len(es.offsets) < es.n
        counts = np.diff(es.offsets, prepend=0)
        assert es.column_breakpoints.tobytes() == np.repeat(es.breakpoints, counts).tobytes()
    assert 0 < tied < len(systems)


def test_merged_breakpoints_matches_reference_loop(rng, spectra):
    """merged_breakpoints against a reference loop, on point sets with
    exact repeats, near repeats and chains wider than eps_eig."""

    class Steps:
        def __init__(self, breakpoints):
            self.breakpoints = breakpoints

    for _ in range(300):
        sets = [np.sort(w) for w in spectra(rng, int(rng.integers(1, 12)))]
        pts = np.sort(np.concatenate(sets))
        reps, start, top = [], pts[0], pts[0]
        for p in pts[1:]:
            if p - top <= 1e-8 and p - start <= 1e-8:
                top = p
            else:
                reps.append(top)
                start = top = p
        reps.append(top)
        assert merged_breakpoints([Steps(s) for s in sets]).tobytes() == np.array(reps).tobytes()
