import numpy as np
import pytest

from speclat.errors import DimensionMismatchError
from speclat.linalg import orthonormal_range
from speclat.projections import is_atomic, proj_complement, proj_join, proj_leq, proj_meet
from speclat.sampling import random_projection
from speclat.validation import max_abs, proj_rank

P_E1 = np.diag([1.0, 0.0]).astype(complex)
P_E2 = np.diag([0.0, 1.0]).astype(complex)
P_DIAG = orthonormal_range([np.array([1.0, 1.0]) / np.sqrt(2)])


def test_proj_leq_examples():
    assert proj_leq(P_E1, np.eye(2))
    assert not proj_leq(np.eye(2), P_E1)
    assert not proj_leq(P_DIAG, P_E1)


def test_proj_leq_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        proj_leq(P_E1, np.eye(3))


def test_meet_idempotent(rng):
    p = random_projection(rng, 4)
    np.testing.assert_allclose(proj_meet([p, p]), p, atol=1e-9)


def test_meet_of_distinct_lines_is_zero():
    np.testing.assert_allclose(proj_meet([P_E1, P_DIAG]), np.zeros((2, 2)), atol=1e-9)


def test_meet_explicit_intersection():
    p12 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    p23 = np.diag([0.0, 1.0, 1.0]).astype(complex)
    np.testing.assert_allclose(proj_meet([p12, p23]), np.diag([0.0, 1.0, 0.0]), atol=1e-9)


def test_meet_empty_list():
    with pytest.raises(DimensionMismatchError):
        proj_meet([])


def test_join_with_zero(rng):
    p = random_projection(rng, 3)
    np.testing.assert_allclose(proj_join([p, np.zeros((3, 3))]), p, atol=1e-9)


def test_join_of_axes():
    p1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(proj_join([p1, p2]), np.diag([1.0, 1.0, 0.0]), atol=1e-9)


def test_join_spans_plane():
    np.testing.assert_allclose(proj_join([P_E1, P_DIAG]), np.eye(2), atol=1e-9)


def test_complement_examples():
    np.testing.assert_allclose(proj_complement(np.zeros((2, 2))), np.eye(2))
    np.testing.assert_allclose(proj_complement(np.eye(2)), np.zeros((2, 2)))
    anti = orthonormal_range([np.array([1.0, -1.0]) / np.sqrt(2)])
    np.testing.assert_allclose(proj_complement(P_DIAG), anti, atol=1e-9)


def test_is_atomic():
    assert is_atomic(P_E1)
    assert not is_atomic(np.zeros((2, 2)))
    assert not is_atomic(np.diag([1.0, 1.0, 0.0]).astype(complex))


def test_lattice_bounds_and_universal_property(rng):
    """meet is the greatest lower bound and join the least upper bound on
    random triples."""
    for _ in range(500):
        n = int(rng.integers(2, 6))
        p = random_projection(rng, n)
        q = random_projection(rng, n)
        meet = proj_meet([p, q])
        join = proj_join([p, q])
        assert proj_leq(meet, p) and proj_leq(meet, q)
        assert proj_leq(p, join) and proj_leq(q, join)
        z = proj_meet([p, q, random_projection(rng, n)])
        if proj_leq(z, p) and proj_leq(z, q):
            assert proj_leq(z, meet)


def test_de_morgan(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        p = random_projection(rng, n)
        q = random_projection(rng, n)
        lhs = proj_complement(proj_meet([p, q]))
        rhs = proj_join([proj_complement(p), proj_complement(q)])
        assert max_abs(lhs - rhs) <= 1e-9


def test_meet_infinite_distributivity_commuting(rng):
    """For simultaneously diagonal projections the lattice is distributive:
    meet over the family commutes with a fixed join, exactly."""
    for _ in range(100):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(2, 5))
        p = np.diag(rng.integers(0, 2, n).astype(float)).astype(complex)
        qs = [np.diag(rng.integers(0, 2, n).astype(float)).astype(complex) for _ in range(count)]
        lhs = proj_meet([proj_join([p, q]) for q in qs])
        rhs = proj_join([p, proj_meet(qs)])
        assert max_abs(lhs - rhs) <= 1e-9


def test_distributivity_fails_non_commuting():
    """Stored counterexample: three lines in C^2 violate distributivity."""
    p, q, r = P_E1, P_E2, P_DIAG
    lhs = proj_join([p, proj_meet([q, r])])
    rhs = proj_meet([proj_join([p, q]), proj_join([p, r])])
    np.testing.assert_allclose(lhs, p, atol=1e-9)
    np.testing.assert_allclose(rhs, np.eye(2), atol=1e-9)
    assert max_abs(lhs - rhs) > 0.5


def _lines_at_angle(theta):
    p = orthonormal_range([np.array([1.0, 0.0, 0.0])])
    q = orthonormal_range([np.array([np.cos(theta), np.sin(theta), 0.0])])
    return p, q


def test_de_morgan_for_nearly_aligned_lines():
    """Lines 1e-6 apart span a plane, and their complements meet in the
    complement of that plane: join and meet decide rank by one rule."""
    p, q = _lines_at_angle(1e-6)
    join = proj_join([p, q])
    assert proj_rank(join) == 2
    meet = proj_meet([proj_complement(p), proj_complement(q)])
    assert max_abs(join - proj_complement(meet)) <= 1e-12


def test_meet_of_nearly_aligned_lines_is_a_lower_bound():
    p, q = _lines_at_angle(1e-6)
    meet = proj_meet([p, q])
    assert proj_leq(meet, p) and proj_leq(meet, q)
