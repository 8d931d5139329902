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
from speclat.linalg import eigh, orthonormal_range, spectral_sum
from speclat.monotone import MonotoneBijection
from speclat.order import spec_join, spec_leq, spec_meet
from speclat.sampling import (
    random_direct_sum_iso,
    random_ds_element,
    random_effect,
    random_hermitian,
    random_projection,
    random_shear,
    random_unitary,
)
from speclat.tolerances import DEFAULT_TOL, ToleranceConfig
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


def test_tau_agrees_with_theta_on_projections_only_for_jordan_shapes(rng):
    """Theta_tau(p) = 1 - tau(1 - p) for every tau, since Theta moves the
    cumulative ranges of p and the first of them is ker p. tau(p) itself
    agrees only when tau is Jordan-shaped: ProjectionIsomorphism.apply is
    tau, not a second Theta_tau."""
    for n in range(2, 6):
        eye = np.eye(n)
        for _ in range(5):
            p = random_projection(rng, n)
            shear = ProjectionIsomorphism(random_shear(rng, n), antilinear=bool(rng.integers(2)))
            assert max_abs(theta(shear, p) - (eye - shear.apply(eye - p))) <= 1e-10
            jordan = JordanIso(random_unitary(rng, n), transpose=bool(rng.integers(2)))
            assert max_abs(theta(jordan, p) - (eye - jordan.apply(eye - p))) <= 1e-10
            assert max_abs(theta(jordan, p) - jordan.apply(p)) <= 1e-10
    tau = ProjectionIsomorphism(np.diag([1.0, 2.0]))
    p = line([1.0, 1.0])
    np.testing.assert_allclose(tau.apply(p), line([1.0, 2.0]), atol=1e-10)
    np.testing.assert_allclose(theta(tau, p), line([2.0, 1.0]), atol=1e-10)
    assert max_abs(theta(tau, p) - tau.apply(p)) > 0.1


def test_jordan_identity_and_transpose(rng):
    x = random_hermitian(rng, 3)
    np.testing.assert_allclose(theta(JordanIso(np.eye(3)), x), x, atol=1e-12)
    flip = JordanIso(np.eye(2), transpose=True)
    y = np.array([[0.0, 1j], [-1j, 0.0]])
    np.testing.assert_allclose(theta(flip, y), np.array([[0.0, -1j], [1j, 0.0]]), atol=1e-12)


def test_jordan_preserves_spectrum_and_orthogonality(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        psi = JordanIso(random_unitary(rng, n), transpose=bool(rng.integers(2)))
        x = random_hermitian(rng, n)
        np.testing.assert_allclose(
            eigh(theta(psi, x)).values, eigh(x).values, atol=1e-9
        )
        p = random_projection(rng, n)
        q = np.eye(n) - p
        assert max_abs(theta(psi, p) @ theta(psi, q)) <= 1e-9


def test_jordan_rejects_non_unitary():
    with pytest.raises(SpeclatError, match="^u is not unitary$"):
        JordanIso(np.diag([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError, match=r"^u must be square, got \(2, 3\)$"):
        JordanIso(np.ones((2, 3)), transpose=True)


def test_jordan_matches_theta_of_its_projection_iso(rng, count_calls):
    """JordanIso(u, t) is the projection map (u, antilinear = t), with gram
    set, and the canonical iso over it is x -> u f(x) u* (u f(x)^T u* when
    t) with no QR, at n = 1 to 6 on every cone."""
    maps = {
        "sa": MonotoneBijection.power(3.0),
        "pos": MonotoneBijection.piecewise_linear([0.0, 0.5, 2.0], [0.0, 0.2, 1.5]),
        "eff": MonotoneBijection.piecewise_linear([0.0, 0.3, 1.0], [0.0, 0.6, 1.0]),
    }
    qrs = count_calls(np.linalg.qr)
    for n in range(1, 7):
        for transpose in (False, True):
            u = random_unitary(rng, n)
            tau = JordanIso(u, transpose)
            assert type(tau) is ProjectionIsomorphism
            assert np.array_equal(tau.T, u) and tau.antilinear is transpose
            assert abs(tau.gram - 1.0) <= 1e-14
            for cone, f in maps.items():
                x = random_hermitian(rng, n) if cone == "sa" else random_effect(rng, n)
                w, v = np.linalg.eigh(x)
                fx = (v * f(w)) @ v.conj().T
                expected = u @ (fx.T if transpose else fx) @ u.conj().T
                qrs.clear()
                got = FactorCanonicalIso(f, tau, cone).apply(x)
                assert qrs == []
                assert max_abs(got - expected) <= 1e-12


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


def test_a_replayed_image_is_the_image_a_new_iso_computes():
    """An iso answers the exact repeat of its last non-scalar input from
    what it kept; the answer must not differ from a fresh computation: a
    returned image is the caller's to write into, an input changed in place
    is a new input, and so is the same input under another tol."""
    f = MonotoneBijection.piecewise_linear([0.0, 0.5, 1.0], [0.0, 0.3, 1.0])
    iso = FactorCanonicalIso(f, ProjectionIsomorphism(SHEAR), "eff")

    def fresh(x, tol=DEFAULT_TOL):
        return FactorCanonicalIso(iso.f, iso.tau, iso.cone).apply(x, tol).tobytes()

    # the two lower eigenvalues are one breakpoint at the default eps_eig
    # only, so the two tols give different images
    x = spectral_sum(np.linalg.qr(SHEAR)[0], np.array([0.2, 0.2 + 5e-9, 0.7]))
    first = iso.apply(x)
    first[:] = 0.0
    again = iso.apply(x)
    assert again.tobytes() == fresh(x)
    again[0, 0] = 7.0
    assert iso.apply(x).tobytes() == fresh(x)

    tight = ToleranceConfig(eps_eig=1e-12, eps_proj=1e-12)
    assert fresh(x, tight) != fresh(x)
    assert iso.apply(x, tight).tobytes() == fresh(x, tight)
    assert iso.apply(x).tobytes() == fresh(x)

    x[0, 0] += 0.01
    assert iso.apply(x).tobytes() == fresh(x)


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


def _qr_reference(tau, es, values):
    """Theta_tau through one QR of T V, as every block was transported
    before Jordan-shaped blocks skipped it."""
    q, _ = np.linalg.qr(tau.T @ (es.vectors.conj() if tau.antilinear else es.vectors))
    return linalg.spectral_sum(q, values)


def _jordan_shaped_taus(rng, n):
    """Unitary, antiunitary, 2.5 * unitary and inverse-built blocks."""
    u = random_unitary(rng, n)
    return [
        ProjectionIsomorphism(u),
        ProjectionIsomorphism(u, antilinear=True),
        ProjectionIsomorphism(2.5 * u),
        ProjectionIsomorphism(3.0 * random_unitary(rng, n), antilinear=True).inverse(),
        JordanIso(random_unitary(rng, n), transpose=True),
    ]


def test_jordan_shaped_blocks_transport_with_no_qr(rng, count_calls):
    """A block whose T is a multiple of a unitary makes no QR; a shear
    makes one."""
    f = MonotoneBijection.piecewise_linear([0.0, 0.5, 1.0], [0.0, 0.2, 1.0])
    x = random_effect(rng, 3)
    isos = [FactorCanonicalIso(f, tau, "eff") for tau in _jordan_shaped_taus(rng, 3)]
    shear = FactorCanonicalIso(f, ProjectionIsomorphism(SHEAR), "eff")
    qrs = count_calls(np.linalg.qr)
    for iso in isos:
        iso.apply(x)
    assert qrs == []
    shear.apply(x)
    assert len(qrs) == 1


def test_jordan_shaped_blocks_agree_with_the_qr_path(rng):
    """T V / sqrt(gram) is orthonormal to rounding, so the QR-free image
    agrees with the QR path within 1e-14 * max(1, max |image|), at
    n = 1 to 16 on every cone. The 16 n eps rule takes every such block."""
    maps = {
        "sa": MonotoneBijection.power(3.0),
        "pos": MonotoneBijection.piecewise_linear([0.0, 0.5, 2.0], [0.0, 0.2, 1.5]),
        "eff": MonotoneBijection.piecewise_linear([0.0, 0.3, 1.0], [0.0, 0.6, 1.0]),
    }
    for n in range(1, 17):
        taus = _jordan_shaped_taus(rng, n)
        assert all(tau.gram is not None for tau in taus)
        for cone, f in maps.items():
            x = random_hermitian(rng, n) if cone == "sa" else random_effect(rng, n)
            es = eigh(x)
            values = f(es.column_breakpoints)
            for tau in taus:
                got = _transported_spectrum(tau, es, values)
                if n > 1:
                    assert got.tobytes() == FactorCanonicalIso(f, tau, cone).apply(x).tobytes()
                assert max_abs(got - _qr_reference(tau, es, values)) <= 1e-14 * max(1.0, max_abs(got))


def test_shear_blocks_keep_the_qr_path_bit_for_bit(rng):
    f = MonotoneBijection.power(3.0)
    for tau in (ProjectionIsomorphism(SHEAR), ProjectionIsomorphism(SHEAR, antilinear=True)):
        assert tau.gram is None
        for _ in range(5):
            x = random_hermitian(rng, 3)
            es = eigh(x)
            expected = _qr_reference(tau, es, f(es.column_breakpoints))
            assert FactorCanonicalIso(f, tau, "sa").apply(x).tobytes() == expected.tobytes()


def test_a_block_decides_its_shape_once(rng, count_calls):
    """The SVD that construction runs to refuse a singular T also decides
    whether T* T = gram * 1; applying the block runs no second one."""
    u = random_unitary(rng, 4)
    svds = count_calls(np.linalg.svd)
    taus = [ProjectionIsomorphism(2.5 * u), ProjectionIsomorphism(np.diag([1.0, 2.0, 1.0, 1.0]))]
    assert len(svds) == 2
    assert abs(taus[0].gram - 6.25) <= 1e-14 and taus[1].gram is None
    for tau in taus:
        iso = FactorCanonicalIso(MonotoneBijection.identity(), tau)
        for _ in range(3):
            iso.apply(random_hermitian(rng, 4))
    assert len(svds) == 2


def test_a_shifted_oracle_is_the_closures_it_replaced_bit_for_bit(rng):
    """shifted(s) is x -> forward(x) + s, y -> inverse(y - s), and
    shifted(-s) takes s off again as y - s and y + s did; None is self."""
    profile = BlockProfile((2, 3))
    iso = random_direct_sum_iso(rng, profile, "sa")
    cod = iso.codomain_profile
    oracle = OrderIsoOracle.from_iso(iso)
    assert oracle.shifted(None) is oracle
    shift = DirectSumElement(cod, [rng.uniform(-2.0, 2.0) * np.eye(d) for d in cod.dims])
    shifted = oracle.shifted(shift)
    unshifted = shifted.shifted(-shift)
    for o in (shifted, unshifted):
        assert (o.domain_profile, o.codomain_profile, o.cone) == (profile, cod, "sa")

    def same(a: DirectSumElement, b: DirectSumElement) -> bool:
        return all(p.tobytes() == q.tobytes() for p, q in zip(a.blocks, b.blocks))

    for _ in range(10):
        x, y = random_ds_element(rng, profile, "sa"), random_ds_element(rng, cod, "sa")
        assert same(shifted.forward(x), oracle.forward(x) + shift)
        assert same(shifted.inverse(y), oracle.inverse(y - shift))
        assert same(unshifted.forward(x), shifted.forward(x) - shift)
        assert same(unshifted.inverse(y), shifted.inverse(y + shift))
