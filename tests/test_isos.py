import numpy as np
import pytest

from speclat.directsum import BlockProfile
from speclat.errors import DimensionMismatchError, SpeclatError
from speclat.isos import (
    DirectSumIso,
    FactorCanonicalIso,
    JordanIso,
    OrderIsoOracle,
    ProjectionIsomorphism,
    theta_apply,
)
from speclat.linalg import eigh, orthonormal_range
from speclat.monotone import MonotoneBijection
from speclat.order import apply_monotone, spec_leq
from speclat.sampling import (
    random_ds_element,
    random_effect,
    random_hermitian,
    random_projection,
    random_unitary,
)
from speclat.validation import max_abs


def line(v):
    return orthonormal_range([np.asarray(v, dtype=complex)])


def test_projection_iso_identity(rng):
    tau = ProjectionIsomorphism.identity(3)
    p = random_projection(rng, 3)
    np.testing.assert_allclose(tau.apply(p), p, atol=1e-10)


def test_projection_iso_maps_ranges():
    tau = ProjectionIsomorphism(np.diag([1.0, 2.0]))
    image = tau.apply(line([1.0, 1.0]))
    np.testing.assert_allclose(image, line([1.0, 2.0]), atol=1e-10)


def test_projection_iso_inverse(rng):
    t = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    for anti in (False, True):
        tau = ProjectionIsomorphism(t, antilinear=anti)
        p = random_projection(rng, 2)
        np.testing.assert_allclose(tau.inverse().apply(tau.apply(p)), p, atol=1e-9)


def test_projection_iso_rejects_singular():
    with pytest.raises(SpeclatError):
        ProjectionIsomorphism(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_theta_identity(rng):
    x = random_hermitian(rng, 3)
    np.testing.assert_allclose(theta_apply(ProjectionIsomorphism.identity(3), x), x, atol=1e-9)


def test_theta_unitary_is_conjugation(rng):
    u = random_unitary(rng, 4)
    tau = ProjectionIsomorphism(u)
    for _ in range(20):
        x = random_hermitian(rng, 4)
        np.testing.assert_allclose(theta_apply(tau, x), u @ x @ u.conj().T, atol=1e-8)


def test_theta_transports_the_family():
    """Theta moves cumulative projections through tau: at a shear the image
    of a projection keeps the breakpoints but its family is tau of the
    original family."""
    from speclat.family import family_of

    tau = ProjectionIsomorphism(np.diag([1.0, 2.0]))
    p = line([1.0, 1.0])
    image = theta_apply(tau, p)
    fam = family_of(image)
    np.testing.assert_allclose(fam.breakpoints, [0.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(fam.evaluate(0.5), tau.apply(line([1.0, -1.0])), atol=1e-9)


def test_jordan_identity_and_transpose(rng):
    x = random_hermitian(rng, 3)
    psi = JordanIso(np.eye(3))
    np.testing.assert_allclose(psi.apply(x), x, atol=1e-12)
    flip = JordanIso(np.eye(2), transpose=True)
    y = np.array([[0.0, 1j], [-1j, 0.0]])
    np.testing.assert_allclose(flip.apply(y), np.array([[0.0, -1j], [1j, 0.0]]))


def test_jordan_preserves_spectrum_and_orthogonality(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        psi = JordanIso(random_unitary(rng, n), transpose=bool(rng.integers(2)))
        x = random_hermitian(rng, n)
        np.testing.assert_allclose(
            eigh(psi.apply(x)).values, eigh(x).values, atol=1e-9
        )
        p = random_projection(rng, n)
        q = np.eye(n) - p
        assert max_abs(psi.apply(p) @ psi.apply(q)) <= 1e-9


def test_jordan_rejects_non_unitary():
    with pytest.raises(SpeclatError):
        JordanIso(np.diag([1.0, 2.0]))


def test_jordan_inverse(rng):
    for transpose in (False, True):
        psi = JordanIso(random_unitary(rng, 3), transpose=transpose)
        x = random_hermitian(rng, 3)
        np.testing.assert_allclose(psi.inverse().apply(psi.apply(x)), x, atol=1e-10)


def test_jordan_matches_theta_of_its_projection_iso(rng):
    for transpose in (False, True):
        psi = JordanIso(random_unitary(rng, 3), transpose=transpose)
        tau = psi.as_projection_iso()
        x = random_hermitian(rng, 3)
        np.testing.assert_allclose(theta_apply(tau, x), psi.apply(x), atol=1e-8)


def test_theta_commutes_with_monotone(rng):
    f = MonotoneBijection.power(3.0)
    tau = ProjectionIsomorphism(np.array([[1.0, 0.5], [0.0, 1.0]]))
    for _ in range(20):
        x = random_hermitian(rng, 2)
        a = theta_apply(tau, apply_monotone(f, x))
        b = apply_monotone(f, theta_apply(tau, x))
        assert max_abs(a - b) <= 1e-8


def test_canonical_iso_preserves_order_both_ways(rng):
    iso = FactorCanonicalIso(
        MonotoneBijection.power(3.0),
        ProjectionIsomorphism(np.array([[1.0, 1.0], [0.0, 1.0]])),
        "sa",
    )
    inv = iso.inverse()
    for _ in range(50):
        x = random_hermitian(rng, 2)
        y = random_hermitian(rng, 2)
        assert spec_leq(x, y) == spec_leq(iso.apply(x), iso.apply(y))
        np.testing.assert_allclose(inv.apply(iso.apply(x)), x, atol=1e-8)


def test_direct_sum_iso_identity_and_swap(rng):
    profile = BlockProfile((2, 2))
    ident = DirectSumIso.identity(profile)
    x = random_ds_element(rng, profile, "sa")
    out = ident.apply(x)
    assert all(max_abs(a - b) <= 1e-9 for a, b in zip(out.blocks, x.blocks))

    swap = DirectSumIso(
        profile,
        profile,
        (1, 0),
        (FactorCanonicalIso.identity(2), FactorCanonicalIso.identity(2)),
    )
    swapped = swap.apply(x)
    assert max_abs(swapped.blocks[0] - x.blocks[1]) <= 1e-9
    assert max_abs(swapped.blocks[1] - x.blocks[0]) <= 1e-9


def test_direct_sum_iso_motivating_map(rng):
    """pi = identity with cubing on the second slot realizes the
    component-cubing automorphism."""
    profile = BlockProfile((2, 2))
    iso = DirectSumIso(
        profile,
        profile,
        (0, 1),
        (
            FactorCanonicalIso.identity(2),
            FactorCanonicalIso(MonotoneBijection.power(3.0), ProjectionIsomorphism.identity(2)),
        ),
    )
    x = random_ds_element(rng, profile, "sa")
    out = iso.apply(x)
    assert max_abs(out.blocks[0] - x.blocks[0]) <= 1e-9
    w, v = np.linalg.eigh(x.blocks[1])
    cube = (v * w**3) @ v.conj().T
    assert max_abs(out.blocks[1] - cube) <= 1e-8


def test_direct_sum_iso_validation():
    profile = BlockProfile((2, 3))
    blocks = (FactorCanonicalIso.identity(2), FactorCanonicalIso.identity(3))
    with pytest.raises(DimensionMismatchError):
        DirectSumIso(profile, profile, (1, 0), blocks)  # dims forbid the swap
    with pytest.raises(DimensionMismatchError):
        DirectSumIso(profile, profile, (0, 0), blocks)  # not a bijection


def test_direct_sum_iso_inverse_round_trip(rng):
    from speclat.sampling import random_direct_sum_iso

    profile = BlockProfile((2, 2, 3))
    iso = random_direct_sum_iso(rng, profile, "eff")
    inv = iso.inverse()
    x = random_ds_element(rng, profile, "eff")
    back = inv.apply(iso.apply(x))
    assert all(max_abs(a - b) <= 1e-8 for a, b in zip(back.blocks, x.blocks))


def test_oracle_from_iso_round_trip(rng):
    from speclat.sampling import random_direct_sum_iso

    profile = BlockProfile((2, 3))
    iso = random_direct_sum_iso(rng, profile, "eff")
    oracle = OrderIsoOracle.from_iso(iso)
    x = random_ds_element(rng, profile, "eff")
    y = oracle.forward(x)
    back = oracle.inverse(y)
    assert all(max_abs(a - b) <= 1e-8 for a, b in zip(back.blocks, x.blocks))
    # order preservation both directions on a constructed comparable pair
    from speclat.directsum import ds_spec_join, ds_spec_leq

    z = ds_spec_join([x, random_ds_element(rng, profile, "eff")], "eff")
    assert ds_spec_leq(oracle.forward(x), oracle.forward(z))
