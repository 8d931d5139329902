import sys

import numpy as np
import pytest

from speclat import linalg, validation
from speclat.directsum import BlockProfile, DirectSumElement
from speclat.errors import (
    ConeError,
    DimensionMismatchError,
    InvalidFamilyError,
    NonFiniteError,
    SpeclatError,
)
from speclat.isos import (
    DirectSumIso,
    FactorCanonicalIso,
    JordanIso,
    OrderIsoOracle,
    ProjectionIsomorphism,
    _transported_spectrum,
)
from speclat.linalg import eigh, orthonormal_range
from speclat.monotone import MonotoneBijection
from speclat.order import spec_join, spec_leq, spec_meet
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


def theta(tau, x):
    """Theta_tau: the canonical isomorphism with the identity scalar map."""
    return FactorCanonicalIso(MonotoneBijection.identity(), tau).apply(x)


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
    np.testing.assert_allclose(theta(ProjectionIsomorphism.identity(3), x), x, atol=1e-9)


def test_theta_unitary_is_conjugation(rng):
    u = random_unitary(rng, 4)
    tau = ProjectionIsomorphism(u)
    for _ in range(20):
        x = random_hermitian(rng, 4)
        np.testing.assert_allclose(theta(tau, x), u @ x @ u.conj().T, atol=1e-8)


def test_theta_transports_the_family():
    """Theta moves cumulative projections through tau: at a shear the image
    of a projection keeps the breakpoints but its family is tau of the
    original family."""
    from speclat.family import family_of

    tau = ProjectionIsomorphism(np.diag([1.0, 2.0]))
    p = line([1.0, 1.0])
    image = theta(tau, p)
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


def test_jordan_matches_theta_of_its_projection_iso(rng):
    for transpose in (False, True):
        psi = JordanIso(random_unitary(rng, 3), transpose=transpose)
        tau = psi.as_projection_iso()
        x = random_hermitian(rng, 3)
        np.testing.assert_allclose(theta(tau, x), psi.apply(x), atol=1e-8)


def test_theta_commutes_with_monotone(rng):
    """Theta_tau after f, f after Theta_tau and the canonical map of (f, tau)
    agree: each of the three is FactorCanonicalIso.apply."""
    f = MonotoneBijection.power(3.0)
    tau = ProjectionIsomorphism(np.array([[1.0, 0.5], [0.0, 1.0]]))
    calculus = FactorCanonicalIso(f, ProjectionIsomorphism.identity(2))
    canonical = FactorCanonicalIso(f, tau)
    for _ in range(20):
        x = random_hermitian(rng, 2)
        a = theta(tau, calculus.apply(x))
        b = calculus.apply(theta(tau, x))
        assert max_abs(a - b) <= 1e-8
        assert max_abs(canonical.apply(x) - a) <= 1e-8


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


def test_an_iso_refuses_an_unknown_cone_when_it_is_built():
    with pytest.raises(ConeError, match="unknown cone 'psd'"):
        FactorCanonicalIso(MonotoneBijection.identity(), ProjectionIsomorphism.identity(2), "psd")
    with pytest.raises(ConeError, match="unknown cone"):
        FactorCanonicalIso.identity(2, "effect")


def test_direct_sum_iso_refuses_blocks_built_for_another_cone():
    """Cubing blocks built for 'sa' would map diag(2, -3), which is no
    effect, to diag(8, -27) under an 'eff' isomorphism."""
    profile = BlockProfile((2,))
    cube = FactorCanonicalIso(MonotoneBijection.power(3.0), ProjectionIsomorphism.identity(2), "sa")
    with pytest.raises(ConeError, match="blocks\\[0\\] is built for cone 'sa', not 'eff'"):
        DirectSumIso(profile, profile, (0,), (cube,), "eff")
    with pytest.raises(ConeError):
        DirectSumIso(profile, profile, (0,), (FactorCanonicalIso.identity(2, "pos"),), "sa")
    iso = DirectSumIso(profile, profile, (0,), (cube,), "sa")
    out = iso.apply(DirectSumElement(profile, [np.diag([2.0, -3.0])]))
    np.testing.assert_allclose(out.blocks[0], np.diag([8.0, -27.0]), atol=1e-12)


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


SHEAR = np.array([[1.0, 0.5 - 0.25j, 0.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])


def _error_of(call):
    with pytest.raises(SpeclatError) as info:
        call()
    return type(info.value), str(info.value)


def test_scalar_map_moving_an_endpoint_is_refused_on_every_block():
    """A scalar map that does not fix 0 (or 1 on 'eff') is refused at apply
    time with one ConeError, whether the block takes the scalar shortcut
    or the eigensystem path."""
    moves_zero = MonotoneBijection.piecewise_linear([0.0, 1.0], [0.1, 1.0])
    moves_one = MonotoneBijection.piecewise_linear([0.0, 1.0], [0.0, 0.9])
    cases = [("pos", moves_zero, "0"), ("eff", moves_zero, "0"), ("eff", moves_one, "1")]
    for cone, f, endpoint in cases:
        iso = FactorCanonicalIso(f, ProjectionIsomorphism.identity(2), cone)
        errors = {
            _error_of(lambda: iso.apply(x))
            for x in (0.5 * np.eye(2), np.zeros((2, 2)), np.diag([0.2, 0.7]), random_effect(np.random.default_rng(1), 2))
        }
        assert errors == {
            (ConeError, f"scalar map does not fix {endpoint}, so it is not a bijection of the {cone!r} domain")
        }


def test_scalar_shortcut_refuses_what_the_eigensystem_path_refuses():
    f = MonotoneBijection.power(2.0)
    eff = FactorCanonicalIso(f, ProjectionIsomorphism.identity(2), "eff")
    pos = FactorCanonicalIso(f, ProjectionIsomorphism.identity(2), "pos")
    with pytest.raises(ConeError, match="1.5 > 1"):
        eff.apply(1.5 * np.eye(2))
    with pytest.raises(ConeError, match="-5.000e-01 < 0"):
        pos.apply(-0.5 * np.eye(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteError):
            eff.apply(np.diag([bad, bad]))
    with pytest.raises(DimensionMismatchError, match="tau acts on dimension 2, element has 3"):
        eff.apply(0.5 * np.eye(3))


def test_cone_is_read_from_the_extreme_eigenvalues():
    """5e-10 and -2e-9 in diag(5e-10, -2e-9, 1) fall in one cluster, whose
    breakpoint -7.5e-10 lies inside the cone's band and whose columns are
    whatever basis LAPACK picks; the cone check must read the smallest
    eigenvalue, -2e-9, not the breakpoint or a column's place."""
    x = np.diag([5e-10, -2e-9, 1.0]).astype(complex)
    es = eigh(x)
    assert es.offsets.tolist() == [2, 3] and es.values[0] == -2e-9 and es.breakpoints[0] > -1e-9
    iso = FactorCanonicalIso(MonotoneBijection.identity(), ProjectionIsomorphism.identity(3), "pos")
    with pytest.raises(ConeError, match="-2.000e-09 < 0"):
        iso.apply(x)
    for operation in (spec_join, spec_meet):
        with pytest.raises(ConeError, match="-2.000e-09 < 0"):
            operation([x, x], "pos")
    profile = BlockProfile((3,))
    with pytest.raises(ConeError, match="-2.000e-09 < 0"):
        DirectSumIso.identity(profile, "pos").apply(DirectSumElement(profile, [x]))


def test_scalar_shortcut_agrees_with_the_transported_spectrum(rng):
    """tau(1) = 1, so c * 1 maps to f(c) * 1: the shortcut agrees with the
    general transport for unitary, shear and antilinear tau."""
    taus = [
        ProjectionIsomorphism(random_unitary(rng, 3)),
        ProjectionIsomorphism(SHEAR),
        ProjectionIsomorphism(SHEAR, antilinear=True),
        ProjectionIsomorphism(random_unitary(rng, 3), antilinear=True),
    ]
    maps = {
        "sa": MonotoneBijection.power(3.0),
        "pos": MonotoneBijection.piecewise_linear([0.0, 0.5, 2.0], [0.0, 0.2, 1.5]),
        "eff": MonotoneBijection.piecewise_linear([0.0, 0.3, 1.0], [0.0, 0.6, 1.0]),
    }
    scalars = {"sa": (-1.1, -0.3, 0.0, 0.7, 1.2), "pos": (0.0, 0.4, 1.0, 1.7), "eff": (0.0, 0.25, 0.5, 1.0)}
    for cone, f in maps.items():
        for tau in taus:
            iso = FactorCanonicalIso(f, tau, cone)
            for c in scalars[cone]:
                x = c * np.eye(3, dtype=complex)
                got = iso.apply(x)
                assert np.array_equal(got, f(c) * np.eye(3))
                es = eigh(x)
                assert max_abs(got - _transported_spectrum(tau, es, f(es.column_breakpoints))) <= 1e-14


def test_scalar_probe_decomposes_a_block_scalar_only_at_its_first_entries(count_calls):
    """The c * 1 shortcut first compares entries (1, 0) and (1, 1). A block
    that equals c * 1 there and at (0, 0) but not at (0, 2) must still be
    decomposed, and map as the transported spectrum does. A 1 x 1 block is
    scalar and needs no eigensolve; out of the cone, or not finite, it is
    refused as before, and so is a block with a NaN or an infinite entry."""
    f = MonotoneBijection.piecewise_linear([-1.0, 0.0, 1.0], [-2.0, 0.0, 0.5])
    eighs = count_calls(np.linalg.eigh)
    for tau in (ProjectionIsomorphism(SHEAR), ProjectionIsomorphism(SHEAR, antilinear=True)):
        iso = FactorCanonicalIso(f, tau, "sa")
        # each tau sees the same blocks; an empty memo makes each solve again
        linalg._solve.cache_clear()
        for c in (-0.5, 0.0, 0.5):
            x = c * np.eye(3, dtype=complex)
            x[0, 2] = x[2, 0] = 0.25
            eighs.clear()
            got = iso.apply(x)
            assert len(eighs) == 1
            es = eigh(x)
            assert got.tobytes() == _transported_spectrum(tau, es, f(es.column_breakpoints)).tobytes()
            # a scalar block keeps unsigned zeros off the diagonal
            eighs.clear()
            got = iso.apply(c * np.eye(3))
            assert eighs == []
            assert got.tobytes() == np.diag(np.full(3, f(c), dtype=complex)).tobytes()
    eff = FactorCanonicalIso(MonotoneBijection.power(2.0), ProjectionIsomorphism.identity(1), "eff")
    eighs.clear()
    assert eff.apply([[0.5]]).tobytes() == np.array([[0.25]], dtype=complex).tobytes()
    assert eighs == []
    with pytest.raises(ConeError, match="1.5 > 1"):
        eff.apply([[1.5]])
    with pytest.raises(ConeError, match="-5.000e-01 < 0"):
        eff.apply([[-0.5]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteError):
            eff.apply([[bad]])
        x = 0.5 * np.eye(3, dtype=complex)
        x[0, 2] = x[2, 0] = bad
        with pytest.raises(NonFiniteError):
            FactorCanonicalIso(f, ProjectionIsomorphism(SHEAR), "sa").apply(x)


def test_values_sent_out_of_the_floats_are_refused():
    """t^5 sends 1e100 to infinity. The image is refused on the eigensystem
    path and on the c * 1 path, for every kind of tau, rather than returned
    with NaN or infinite entries."""
    f = MonotoneBijection.power(5.0)
    taus = (
        ProjectionIsomorphism.identity(3),
        ProjectionIsomorphism(SHEAR),
        ProjectionIsomorphism(SHEAR, antilinear=True),
    )
    for tau in taus:
        iso = FactorCanonicalIso(f, tau, "sa")
        for x in (np.diag([1e100, 1.0, 1.0]), 1e100 * np.eye(3), -1e100 * np.eye(3)):
            with np.errstate(over="ignore"), pytest.raises(InvalidFamilyError, match="finite"):
                iso.apply(x)
        # (1e60)^5 = 1e300 is still a float
        assert np.isfinite(iso.apply(np.diag([1e60, 1.0, 1.0]))).all()


def _count_calls(monkeypatch, module, names, calls):
    """Record the name of every call to module.<name> in calls."""
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def test_scalar_block_needs_no_eigensolve_and_no_qr(monkeypatch):
    iso = FactorCanonicalIso(
        MonotoneBijection.power(2.0), ProjectionIsomorphism(SHEAR), "eff"
    )
    calls = []
    _count_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh", "qr"), calls)
    for c in (0.0, 0.5, 1.0):
        iso.apply(c * np.eye(3))
    assert calls == []
    iso.apply(np.diag([0.0, 0.5, 0.5]))
    assert sorted(calls) == ["eigh", "qr"]


def test_lattice_operations_validate_and_decompose_each_operand_once(monkeypatch, rng):
    x, y = random_effect(rng, 4), random_effect(rng, 4)
    eigvalsh_calls = []
    _count_calls(monkeypatch, np.linalg, ("eigvalsh",), eigvalsh_calls)
    hermitian_calls = []
    original = validation.check_hermitian

    def counted(a, *args, **kwargs):
        hermitian_calls.append(id(a))
        return original(a, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("speclat") and getattr(module, "check_hermitian", None) is original:
            monkeypatch.setattr(module, "check_hermitian", counted)
    spec_join([x, y], "eff")
    assert eigvalsh_calls == []
    assert hermitian_calls == [id(x), id(y)]
    for operation in (lambda: spec_meet([x, y], "eff"), lambda: spec_leq(x, y)):
        hermitian_calls.clear()
        operation()
        assert len(hermitian_calls) == 2
    assert eigvalsh_calls == []
