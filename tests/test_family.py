import tracemalloc

import numpy as np
import pytest

from speclat.errors import InvalidFamilyError
from speclat.family import SpectralFamily, element_of, family_of, merged_breakpoints
from speclat.linalg import eigh, spectral_sum
from speclat.projections import proj_leq
from speclat.sampling import random_hermitian, random_projection, random_with_spectrum
from speclat.validation import max_abs

P_E1 = np.diag([1.0, 0.0]).astype(complex)


def min_eig(h):
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])


def test_family_of_diagonal():
    fam = family_of(np.diag([1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(fam.breakpoints, [1.0, 2.0])
    np.testing.assert_allclose(fam.cumulative[0], P_E1, atol=1e-12)
    np.testing.assert_allclose(fam.cumulative[1], np.eye(2), atol=1e-12)


def test_family_of_projection_two_point(rng):
    p = random_projection(rng, 4, rank=2)
    fam = family_of(p)
    np.testing.assert_allclose(fam.breakpoints, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(fam.cumulative[0], np.eye(4) - p, atol=1e-9)
    np.testing.assert_allclose(fam.cumulative[1], np.eye(4), atol=1e-12)


def test_family_defining_inequalities(rng):
    """x E_l <= l E_l and l (1 - E_l) <= x (1 - E_l) at every breakpoint."""
    for _ in range(50):
        x = random_hermitian(rng, 3)
        fam = family_of(x)
        for lam, p in fam.steps():
            comp = np.eye(3) - p
            assert min_eig(lam * p - x @ p) >= -1e-8
            assert min_eig(x @ comp - lam * comp) >= -1e-8


def test_family_of_matches_the_prefix_reference(rng, spectra):
    """The prefix updates agree within 1e-14 with each projection built on
    its own over a prefix of the eigenbasis, on generic, tied, near-tied
    and chained spectra at n = 1-64; breakpoints are the eigensystem's bit
    for bit, and every projection is exactly Hermitian."""
    for n in range(1, 65):
        for w in spectra(rng, n):
            x = random_with_spectrum(rng, w)
            fam = family_of(x)
            es = eigh(x)
            reference = [spectral_sum(es.vectors[:, :c], 1.0) for c in es.offsets[:-1]]
            assert fam.breakpoints.tobytes() == es.breakpoints.tobytes()
            assert len(fam.cumulative) == len(reference) + 1
            for p, q in zip(fam.cumulative, reference):
                assert max_abs(p - q) <= 1e-14
            assert (fam.cumulative[-1] == np.eye(n)).all()
            for p in fam.cumulative:
                assert (p == p.conj().T).all()


def test_family_of_passes_each_eigenvector_to_spectral_sum_once(rng, spectra, count_calls):
    """family_of makes no spectral_sum call; reading its family does, one
    cluster at a time: together, in order, the calls of one iteration take
    the columns below the last cluster, each column once."""
    calls = count_calls(spectral_sum)
    for n in (1, 2, 5, 16, 33):
        for w in spectra(rng, n):
            x = random_with_spectrum(rng, w)
            calls.clear()
            fam = family_of(x)
            assert calls == []
            for _ in fam.cumulative:
                pass
            es = eigh(x)
            below_last = es.offsets[-2] if len(es.offsets) > 1 else 0
            passed = np.hstack([es.vectors[:, :0], *(vectors for vectors, _ in calls)])
            assert passed.tobytes() == es.vectors[:, :below_last].tobytes()


def test_reading_a_family_builds_only_the_projections_it_returns(rng, spectra, count_calls):
    """len, n, repr and evaluate below l_1 build no projection; evaluate at
    l_i and cumulative[i] make the i + 1 updates up to P_i, and the
    identity in the last slot takes none."""
    calls = count_calls(spectral_sum)
    for w in spectra(rng, 6):
        fam = family_of(random_with_spectrum(rng, w))
        m = len(fam.cumulative)
        calls.clear()
        assert (fam.n, len(fam.cumulative)) == (6, m)
        assert repr(fam).startswith("SpectralFamily(n=6, breakpoints=[")
        assert (fam.evaluate(fam.breakpoints[0] - 1.0) == 0).all()
        assert calls == []
        for i, lam in enumerate(fam.breakpoints):
            for read, arg in ((fam.evaluate, lam), (fam.cumulative.__getitem__, i),
                              (fam.cumulative.__getitem__, i - m)):
                calls.clear()
                read(arg)
                assert len(calls) == (i + 1 if i < m - 1 else 0)
        assert (fam.cumulative[-1] == np.eye(6)).all()


def test_indexed_projections_have_the_iterated_bytes(rng, spectra):
    """cumulative[i] and cumulative[i - m] run the updates up to i and
    return the bytes that iterating yields at i, each in an array of its
    own."""
    for n in (1, 2, 5, 16):
        for w in spectra(rng, n):
            fam = family_of(random_with_spectrum(rng, w))
            iterated = [p.tobytes() for p in fam.cumulative]
            m = len(fam.cumulative)
            assert len(iterated) == m
            for i in range(m):
                p, q = fam.cumulative[i], fam.cumulative[i - m]
                assert p.tobytes() == q.tobytes() == iterated[i]
                assert not np.shares_memory(p, q)
            identity = np.eye(n, dtype=complex).tobytes()
            assert fam.cumulative[-1].tobytes() == iterated[-1] == identity
            for i in (m, -m - 1):
                with pytest.raises(IndexError):
                    fam.cumulative[i]


def test_each_read_of_a_family_returns_a_new_array(rng):
    """Writing into a projection that cumulative[i], evaluate or an
    iteration returned, also before the iteration goes on to the next
    projection, leaves the family as it was."""
    x = random_with_spectrum(rng, [0.0, 1.0, 1.0, 2.0, 3.0])
    fam = family_of(x)
    before = [p.copy() for p in fam.cumulative]
    for p, q in zip(fam.cumulative, before, strict=True):
        assert p.tobytes() == q.tobytes()
        p[...] = np.nan
    read = list(fam.cumulative)
    read += [fam.cumulative[i] for i in range(-len(before), len(before))]
    read += [fam.evaluate(lam) for lam in fam.breakpoints]
    for p in read:
        p[...] = np.nan
    for p, q in zip(fam.cumulative, before, strict=True):
        assert p.tobytes() == q.tobytes()


def test_a_wide_family_holds_one_projection_at_a_time(rng):
    """family_of and one full iteration of its projections on a generic
    n = 64 matrix, whose eigensystem is memoized, allocate less than six
    n x n complex matrices at their peak: the running sum, the copy the
    loop holds, and spectral_sum's update with its temporaries (5.06 when
    measured). An (m, n, n) stack of all m = 64 would take 64."""
    n = 64
    x = random_hermitian(rng, n)
    eigh(x)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for p in family_of(x).cumulative:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (p == np.eye(n)).all()
    assert peak < 6 * n * n * 16


def test_element_of_examples():
    fam = SpectralFamily([1.0, 2.0], [P_E1, np.eye(2)])
    np.testing.assert_allclose(element_of(fam), np.diag([1.0, 2.0]), atol=1e-12)
    scalar = SpectralFamily([3.5], [np.eye(3)])
    np.testing.assert_allclose(element_of(scalar), 3.5 * np.eye(3), atol=1e-12)


def test_round_trip_random(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        x = random_hermitian(rng, n)
        assert max_abs(element_of(family_of(x)) - x) <= 1e-8


def test_family_of_element_of_round_trip(rng):
    x = random_hermitian(rng, 4)
    fam = family_of(x)
    fam2 = family_of(element_of(fam))
    np.testing.assert_allclose(fam.breakpoints, fam2.breakpoints, atol=1e-9)
    for p, q in zip(fam.cumulative, fam2.cumulative):
        assert max_abs(p - q) <= 1e-8


def test_evaluate_step_lookup():
    fam = family_of(np.diag([1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(fam.evaluate(1.5), P_E1, atol=1e-12)
    np.testing.assert_allclose(fam.evaluate(0.999), np.zeros((2, 2)))
    # right-continuity: the jump happens exactly at the eigenvalue
    np.testing.assert_allclose(fam.evaluate(1.0), P_E1, atol=1e-12)
    np.testing.assert_allclose(fam.evaluate(2.0), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(fam.evaluate(100.0), np.eye(2), atol=1e-12)


def test_evaluate_commutes_with_element(rng):
    for _ in range(50):
        x = random_hermitian(rng, 4)
        fam = family_of(x)
        for lam in np.linspace(float(fam.breakpoints[0]) - 0.5, float(fam.breakpoints[-1]) + 0.5, 7):
            p = fam.evaluate(lam)
            assert max_abs(x @ p - p @ x) <= 1e-9


def test_merged_breakpoints_determine_all_comparisons(rng):
    """Order conclusions at the merged representatives agree with dense
    sampling of the two step functions."""
    for _ in range(20):
        x = random_hermitian(rng, 3)
        y = random_hermitian(rng, 3)
        fx, fy = family_of(x), family_of(y)
        reps = merged_breakpoints([fx, fy])
        at_reps = all(proj_leq(fy.evaluate(t), fx.evaluate(t)) for t in reps)
        dense = np.linspace(reps[0] - 1.0, reps[-1] + 1.0, 200)
        at_dense = all(proj_leq(fy.evaluate(t), fx.evaluate(t)) for t in dense)
        assert at_reps == at_dense


def test_invalid_families_rejected():
    with pytest.raises(InvalidFamilyError):
        SpectralFamily([1.0, 0.5], [P_E1, np.eye(2)])  # breakpoints not ascending
    with pytest.raises(InvalidFamilyError):
        SpectralFamily([0.0, 1.0], [np.eye(2), P_E1])  # not increasing
    with pytest.raises(InvalidFamilyError):
        SpectralFamily([0.0], [P_E1])  # does not end at the identity
    with pytest.raises(InvalidFamilyError):
        SpectralFamily([0.0, 1.0], [P_E1])  # length mismatch


def test_merged_breakpoints_cluster_to_max():
    fam_a = family_of(np.diag([0.0, 1.0]).astype(complex))
    fam_b = family_of(np.diag([1e-12, 1.0]).astype(complex))
    reps = merged_breakpoints([fam_a, fam_b])
    assert len(reps) == 2
    assert reps[0] >= 1e-12 - 1e-18
