import numpy as np
import pytest

from speclat.directsum import (
    BlockProfile,
    DirectSumElement,
    ds_atom_scalar_decompose,
    ds_central_scalars,
    embed_block,
)
from speclat.errors import DecompositionError, DimensionMismatchError
from speclat.isos import (
    DirectSumIso,
    FactorCanonicalIso,
    JordanIso,
    OrderIsoOracle,
    ProjectionIsomorphism,
)
from speclat.monotone import MonotoneBijection
from speclat.order import pos_neg_parts
from speclat.recover import (
    DirectSumIsoDecomposer,
    FactorCanonicalRecovery,
    is_orthoiso,
    reassembly_residuals,
    sample_scalar_action,
)
from speclat.sampling import (
    random_direct_sum_iso,
    random_ds_element,
    random_effect,
    random_monotone_bijection,
    random_unitary,
    rng_from,
)
from speclat.selftest import run_selftest
from speclat.tolerances import DEFAULT_TOL, ToleranceConfig
from speclat.validation import max_abs


def single_factor_oracle(block_iso: FactorCanonicalIso) -> OrderIsoOracle:
    profile = BlockProfile((block_iso.n,))
    iso = DirectSumIso(profile, profile, (0,), (block_iso,), block_iso.cone)
    return OrderIsoOracle.from_iso(iso)


def test_recover_identity_oracle():
    oracle = single_factor_oracle(FactorCanonicalIso.identity(3, "eff"))
    rec = FactorCanonicalRecovery(random_state=0).fit(oracle)
    grid = np.linspace(0.0, 1.0, 9)
    np.testing.assert_allclose(rec.scale_function_(grid), grid, atol=1e-9)
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    np.testing.assert_allclose(rec.canonical_.tau.apply(p), p, atol=1e-8)
    assert rec.max_residual_ <= 1e-9


def test_recover_unitary_canonical(rng):
    n = 3
    f = random_monotone_bijection(rng, "eff", grid=128)
    tau = ProjectionIsomorphism(random_unitary(rng, n))
    oracle = single_factor_oracle(FactorCanonicalIso(f, tau, "eff"))
    rec = FactorCanonicalRecovery(random_state=1).fit(oracle)
    # tau is only determined projectively; compare actions on samples
    for _ in range(20):
        x = random_effect(rng, n)
        expected = oracle.forward(embed_block(oracle.domain_profile, 0, x)).blocks[0]
        assert max_abs(rec.canonical_.apply(x) - expected) <= 1e-8
    grid = np.linspace(0.0, 1.0, 129)
    np.testing.assert_allclose(rec.scale_function_(grid), f(grid), atol=1e-9)


def test_recover_shear_canonical(rng):
    from speclat.sampling import random_shear

    f = random_monotone_bijection(rng, "eff", grid=128)
    tau = ProjectionIsomorphism(random_shear(rng, 3))
    oracle = single_factor_oracle(FactorCanonicalIso(f, tau, "eff"))
    rec = FactorCanonicalRecovery(random_state=2).fit(oracle)
    assert rec.max_residual_ <= 1e-8


def test_recover_antilinear_canonical(rng):
    psi = JordanIso(random_unitary(rng, 3), transpose=True)
    f = random_monotone_bijection(rng, "eff", grid=128)
    oracle = single_factor_oracle(FactorCanonicalIso(f, psi, "eff"))
    rec = FactorCanonicalRecovery(random_state=3).fit(oracle)
    assert rec.canonical_.tau.antilinear
    assert rec.max_residual_ <= 1e-8


def test_recover_square_map_on_grid_with_loose_verification(rng):
    """t^2 is a bijection of [0, 1] outside the piecewise-linear class: the
    grid values are still recovered exactly, and default verification
    rejects the PL interpolant."""
    f = MonotoneBijection.power(2.0)
    tau = ProjectionIsomorphism(random_unitary(rng, 2))
    oracle = single_factor_oracle(FactorCanonicalIso(f, tau, "eff"))
    rec = FactorCanonicalRecovery(random_state=4, tol=ToleranceConfig(eps_recon=1e-3)).fit(oracle)
    grid = np.linspace(0.0, 1.0, 129)
    np.testing.assert_allclose(rec.scale_function_(grid), grid**2, atol=1e-6)
    with pytest.raises(DecompositionError):
        FactorCanonicalRecovery(random_state=4).fit(oracle)


def test_recover_rejects_non_isomorphism():
    """A map tearing the central line off the scalars is rejected."""
    profile = BlockProfile((2,))

    def fwd(x):
        return DirectSumElement(profile, [x.blocks[0] @ np.diag([1.0, 0.5])])

    oracle = OrderIsoOracle(profile, profile, "eff", fwd, lambda y: y)
    with pytest.raises(DecompositionError):
        FactorCanonicalRecovery(random_state=0).fit(oracle)


def test_recover_refuses_a_scalar_action_that_moves_zero():
    """f(0) = 5e-8 is above eps_recon, so the sampled scalar action is no
    bijection of [0, 1]; fit says so with a DecompositionError."""
    profile = BlockProfile((2,))
    lift = 5e-8

    def fwd(x):
        return DirectSumElement(profile, [lift * np.eye(2) + (1.0 - lift) * x.blocks[0]])

    oracle = OrderIsoOracle(profile, profile, "eff", fwd, lambda y: y)
    with pytest.raises(DecompositionError, match="does not fix 0"):
        FactorCanonicalRecovery(n_verify=5).fit(oracle)


def test_decompose_identity_oracle(rng):
    profile = BlockProfile((2, 3))
    oracle = OrderIsoOracle.from_iso(DirectSumIso.identity(profile, "eff"))
    dec = DirectSumIsoDecomposer(random_state=0).fit(oracle)
    pi, blocks = dec.permutation_, dec.block_oracles_
    assert pi == (0, 1)
    x = random_effect(rng, 2)
    single = DirectSumElement(BlockProfile((2,)), [x])
    assert max_abs(blocks[0].forward(single).blocks[0] - x) <= 1e-10


def test_decompose_recovers_swap(rng):
    profile = BlockProfile((2, 2))
    for _ in range(5):
        iso = random_direct_sum_iso(rng, profile, "eff")
        oracle = OrderIsoOracle.from_iso(iso)
        assert DirectSumIsoDecomposer(random_state=1).fit(oracle).permutation_ == iso.pi


def test_decompose_dimension_forcing(rng):
    """With distinct block dimensions only the identity assignment respects
    dimensions, whatever the map does inside the blocks."""
    profile = BlockProfile((2, 3))
    iso = random_direct_sum_iso(rng, profile, "eff")
    dec = DirectSumIsoDecomposer(random_state=2).fit(OrderIsoOracle.from_iso(iso))
    assert dec.permutation_ == (0, 1)


def test_decompose_positive_cone(rng):
    profile = BlockProfile((2, 2))
    iso = random_direct_sum_iso(rng, profile, "pos")
    dec = DirectSumIsoDecomposer(random_state=3).fit(OrderIsoOracle.from_iso(iso))
    assert dec.permutation_ == iso.pi
    assert dec.shift_ is None


def test_decompose_sa_with_shift(rng):
    profile = BlockProfile((2, 2, 3))
    iso = random_direct_sum_iso(rng, profile, "sa")
    cod = iso.codomain_profile
    shift = DirectSumElement(cod, [c * np.eye(d) for c, d in zip([0.5, -1.0, 2.0], cod.dims)])
    base = OrderIsoOracle.from_iso(iso)
    oracle = OrderIsoOracle(
        profile, cod, "sa",
        forward=lambda x: base.forward(x) + shift,
        inverse=lambda y: base.inverse(y - shift),
    )
    dec = DirectSumIsoDecomposer(random_state=4).fit(oracle)
    assert dec.permutation_ == iso.pi
    assert max(max_abs(a - b) for a, b in zip(dec.shift_.blocks, shift.blocks)) <= 1e-8


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 3)])
@pytest.mark.parametrize("cone", ["sa", "pos", "eff"])
def test_block_oracles_invert_their_forward(rng, cone, dims):
    """Each restricted block oracle's inverse undoes its forward on that
    block, on sa through a central shift that both directions must remove
    and add back."""
    profile = BlockProfile(dims)
    iso = random_direct_sum_iso(rng, profile, cone)
    cod = iso.codomain_profile
    base = OrderIsoOracle.from_iso(iso)
    oracle = base
    if cone == "sa":
        shift = DirectSumElement(cod, [(k - 0.5) * np.eye(d) for k, d in enumerate(cod.dims)])
        oracle = OrderIsoOracle(
            profile, cod, "sa",
            forward=lambda x: base.forward(x) + shift,
            inverse=lambda y: base.inverse(y - shift),
        )
    dec = DirectSumIsoDecomposer(n_verify=3, random_state=5).fit(oracle)
    assert dec.permutation_ == iso.pi
    worst = 0.0
    for j, d in enumerate(dims):
        block = dec.block_oracles_[j]
        for _ in range(10):
            x = random_ds_element(rng, BlockProfile((d,)), cone)
            back = block.inverse(block.forward(x))
            worst = max(worst, max_abs(back.blocks[0] - x.blocks[0]))
    assert worst <= DEFAULT_TOL.eps_recon


def test_decompose_rejects_noncentral_zero_image():
    profile = BlockProfile((2, 2))
    bump = embed_block(profile, 0, np.diag([1.0, 0.0]))

    def fwd(x):
        return x + bump

    oracle = OrderIsoOracle(profile, profile, "sa", fwd, lambda y: y - bump)
    with pytest.raises(DecompositionError):
        DirectSumIsoDecomposer(random_state=0).fit(oracle)


def test_decompose_rejects_mismatched_sign_permutations():
    """Tearing positive and negative parts into different slots makes the
    scalar actions disagree on a slot, which the recovery must reject."""
    profile = BlockProfile((2, 2))

    def fwd(x):
        p0, m0 = pos_neg_parts(x.blocks[0])
        p1, m1 = pos_neg_parts(x.blocks[1])
        return DirectSumElement(profile, [p0 - m1, p1 - m0])

    oracle = OrderIsoOracle(profile, profile, "sa", fwd, lambda y: y)
    with pytest.raises(DecompositionError, match="different codomain slots"):
        DirectSumIsoDecomposer(random_state=0).fit(oracle)


def test_decompose_rejects_non_blockwise_map():
    """A unitary mixing the two slots sends central atoms off the center."""
    profile = BlockProfile((2, 2))
    u = np.eye(4, dtype=complex)
    u[1, 1] = u[2, 2] = np.sqrt(0.5)
    u[1, 2], u[2, 1] = np.sqrt(0.5), -np.sqrt(0.5)

    def mixing_fwd(x):
        m = u @ x.assemble() @ u.conj().T
        off = profile.offsets
        blocks = [m[off[j] : off[j + 1], off[j] : off[j + 1]] for j in range(len(profile))]
        return DirectSumElement(profile, [(b + b.conj().T) / 2 for b in blocks])

    oracle = OrderIsoOracle(profile, profile, "eff", mixing_fwd, lambda y: y)
    with pytest.raises(DecompositionError):
        DirectSumIsoDecomposer(random_state=0).fit(oracle)


def test_effect_iso_preserves_scalar_atom_multiples(rng):
    """Effect-lattice isomorphisms carry scalar multiples of atoms onto the
    same set, and atomic projections (the maximal such elements) onto atomic
    projections."""
    from speclat.linalg import orthonormal_range
    from speclat.sampling import random_projection_isomorphism

    for _ in range(20):
        n = int(rng.integers(2, 5))
        f = random_monotone_bijection(rng, "eff")
        tau = random_projection_isomorphism(rng, n, "shear")
        phi = FactorCanonicalIso(f, tau, "eff")
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        atom = orthonormal_range([v])
        lam = rng.uniform(0.1, 0.9)
        profile = BlockProfile((n,))
        image = DirectSumElement(profile, [phi.apply(lam * atom)])
        found = ds_atom_scalar_decompose(image, "eff")
        assert found is not None
        top = ds_atom_scalar_decompose(DirectSumElement(profile, [phi.apply(atom)]), "eff")
        assert top is not None
        alpha, _, e = top
        assert alpha == pytest.approx(1.0, abs=1e-9)
        assert max_abs(e @ e - e) <= 1e-9


def test_is_orthoiso_identity_and_jordan(rng):
    profile = BlockProfile((2, 3))
    ident = OrderIsoOracle.from_iso(DirectSumIso.identity(profile, "eff"))
    assert is_orthoiso(ident, trials=40, random_state=0).ok
    iso = random_direct_sum_iso(rng, profile, "eff", tau_kinds=("jordan",))
    check = is_orthoiso(OrderIsoOracle.from_iso(iso), trials=60, random_state=1)
    assert check.ok and check.witness is None
    assert "type-I2" in check.flags


def test_is_orthoiso_flags_shear(rng):
    iso = random_direct_sum_iso(rng, BlockProfile((3,)), "eff", tau_kinds=("shear",))
    check = is_orthoiso(OrderIsoOracle.from_iso(iso), trials=1000, random_state=2)
    assert not check.ok
    assert check.witness is not None
    assert check.witness["image_product_norm"] > 1e-6


def test_is_orthoiso_finds_a_nonzero_product_sent_to_zero():
    """Keeping only the larger slot of a two-slot effect keeps orthogonal
    pairs orthogonal, but sends (a, b) and (c, d) with a > b, c < d to
    orthogonal images although their product is not zero. The inverse is
    the identity, so only the forward scan can find it: at seed 0 the first
    trial draws no such pair, the second does."""
    profile = BlockProfile((1, 1))

    def keep_larger(x):
        a, b = (float(m[0, 0].real) for m in x.blocks)
        keep = [a, 0.0] if a >= b else [0.0, b]
        return DirectSumElement(profile, [np.array([[v]], dtype=complex) for v in keep])

    oracle = OrderIsoOracle(profile, profile, "eff", keep_larger, lambda y: y)
    assert is_orthoiso(oracle, trials=1, random_state=0).ok
    check = is_orthoiso(oracle, trials=2, random_state=0)
    assert not check.ok
    assert check.witness["kind"] == "nonzero product collapsed to zero"
    assert check.witness["direction"] == "forward"
    assert check.witness["image_product_norm"] == 0.0
    x, y = check.witness["x"], check.witness["y"]
    assert max(max_abs(a @ b) for a, b in zip(x.blocks, y.blocks)) > 1e-8


def _unqueried_oracle(profile):
    def refuse(_x):
        raise AssertionError("the oracle was queried")

    return OrderIsoOracle(profile, profile, "eff", refuse, refuse)


@pytest.mark.parametrize("count", [0, -1])
def test_sample_counts_below_one_are_refused_before_any_query(count):
    """A check over no samples passes vacuously: at trials=0 the shear map
    of the CLI's ortho test would read as an orthoisomorphism."""
    oracle = _unqueried_oracle(BlockProfile((3,)))
    with pytest.raises(ValueError, match="trials must be at least 1"):
        is_orthoiso(oracle, trials=count)
    with pytest.raises(ValueError, match="n_verify must be at least 1"):
        DirectSumIsoDecomposer(n_verify=count).fit(oracle)
    with pytest.raises(ValueError, match="n_verify must be at least 1"):
        FactorCanonicalRecovery(n_verify=count).fit(oracle)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_selftest(trials=count)


def test_effect_decomposer_rejects_half_atom_images():
    """On effects the image of a central atom must be a codomain atom: a
    map sending z_j to 0.5 * w_j is refused, although 0.5 * w_j is a
    positive scalar multiple of w_j."""
    profile = BlockProfile((2, 3))
    oracle = OrderIsoOracle(profile, profile, "eff", lambda x: 0.5 * x, lambda y: 2.0 * y)
    dec = DirectSumIsoDecomposer(random_state=0)
    with pytest.raises(DecompositionError, match="is not a codomain central atom"):
        dec.fit(oracle)
    # a failed fit sets no fitted attributes
    assert not hasattr(dec, "permutation_") and not hasattr(dec, "block_oracles_")


def test_tau_image_reads_one_eigensystem(rng, count_calls):
    """tau(q) is read as the one eigenvector of the image of 1 - q with
    breakpoint at most mid, from a single eigensolve of that image."""
    import speclat.family
    import speclat.linalg

    profile = BlockProfile((3,))
    u = random_unitary(rng, 3)
    y = (u * np.array([0.1, 0.8, 0.9])) @ u.conj().T
    image = DirectSumElement(profile, [(y + y.conj().T) / 2.0])
    oracle = OrderIsoOracle(profile, profile, "eff", lambda x: image, lambda y: y)
    solves = count_calls(speclat.linalg.eigh)
    families = count_calls(speclat.family.family_of)
    q = np.diag([1.0, 0.0, 0.0]).astype(complex)
    v = FactorCanonicalRecovery()._tau_image(oracle, q, 0.5)
    assert len(solves) == 1 and np.array_equal(solves[0][0], image.blocks[0])
    assert families == []
    assert v.shape == (3,)
    assert abs(np.vdot(u[:, 0], v)) == pytest.approx(1.0, abs=1e-12)


def test_scalar_action_sampler_refuses_a_non_scalar_image():
    """The map of test_recover_rejects_non_isomorphism sends 0.5 * identity
    to diag(0.5, 0.25), which is off the center."""
    profile = BlockProfile((2,))

    def fwd(x):
        return DirectSumElement(profile, [x.blocks[0] @ np.diag([1.0, 0.5])])

    oracle = OrderIsoOracle(profile, profile, "eff", fwd, lambda y: y)
    with pytest.raises(DecompositionError, match="is not scalar"):
        sample_scalar_action(oracle, np.linspace(0.0, 1.0, 5))


def test_scalar_action_sampler_refuses_a_two_factor_oracle():
    oracle = OrderIsoOracle.from_iso(DirectSumIso.identity(BlockProfile((2, 2)), "eff"))
    with pytest.raises(DimensionMismatchError, match="single-factor"):
        sample_scalar_action(oracle, np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("cone", ["eff", "pos", "sa"])
def test_reassembly_residuals_reproduce_the_decomposer_verification(rng, cone):
    """Every image block gains 1e-10 * trace(x) * identity, which a block
    oracle sees only its own slot's share of, so the residuals are nonzero,
    below eps_recon, and depend on the samples."""
    profile = BlockProfile((2, 3, 2))
    iso = random_direct_sum_iso(rng, profile, cone)
    base = OrderIsoOracle.from_iso(iso)

    def fwd(x):
        leak = 1e-10 * sum(float(np.real(np.trace(b))) for b in x.blocks)
        return base.forward(x).map_blocks(lambda b: b + leak * np.eye(b.shape[0]))

    oracle = OrderIsoOracle(profile, iso.codomain_profile, cone, fwd, base.inverse)
    dec = DirectSumIsoDecomposer(n_verify=3, random_state=7).fit(oracle)
    assert min(dec.block_residuals_) > 0.0
    residuals = reassembly_residuals(
        oracle, rng_from(7), 3, dec.permutation_, dec.block_oracles_, dec.shift_
    )
    assert tuple(residuals) == dec.block_residuals_


def test_reassembly_validates_each_block_once(count_calls):
    """One sample over profile (2, 3) runs check_hermitian 2 times: once
    per codomain slot, where the restricted oracle takes the black box's
    image block into an element (1 per slot). random_ds_elements draws
    exactly Hermitian blocks, and the blocks of an element are not checked
    again, so neither the sample, nor its embedding in one slot, nor an
    iso's image of either is checked."""
    import speclat.validation

    profile = BlockProfile((2, 3))
    oracle = OrderIsoOracle.from_iso(random_direct_sum_iso(rng_from(3), profile, "eff"))
    dec = DirectSumIsoDecomposer(n_verify=1, random_state=0).fit(oracle)
    checks = count_calls(speclat.validation.check_hermitian)
    reassembly_residuals(oracle, rng_from(0), 1, dec.permutation_, dec.block_oracles_, dec.shift_)
    assert len(checks) == 2


@pytest.mark.parametrize("cone, draws", [("eff", 2), ("sa", 0)])
def test_reassembly_draws_each_slot_once_and_maps_each_block_once(count_calls, cone, draws):
    """s = 5 samples over profile (2, 3) with shear blocks: one stacked QR
    per slot draws the effects (the self-adjoint cone draws with no QR),
    the oracle's image of each sample makes one QR per shear block, and
    the block oracles, which send each sampled block through the same
    black box again, replay those images. Each sampled block is solved
    once: 2 s eighs."""
    s = 5
    iso = random_direct_sum_iso(rng_from(3), BlockProfile((2, 3)), cone, tau_kinds=("shear",))
    oracle = OrderIsoOracle.from_iso(iso)
    dec = DirectSumIsoDecomposer(n_verify=1, random_state=0).fit(oracle)
    qrs = count_calls(np.linalg.qr)
    eighs = count_calls(np.linalg.eigh)
    reassembly_residuals(oracle, rng_from(0), s, dec.permutation_, dec.block_oracles_, dec.shift_)
    assert len(qrs) == draws + 2 * s
    assert len(eighs) == 2 * s


def _nan_element(profile):
    """A black box's answer with NaN blocks, which no check has seen."""
    blocks = [np.full((d, d), np.nan, dtype=complex) for d in profile.dims]
    return DirectSumElement(profile, blocks, validate=False)


@pytest.mark.parametrize("cone", ["eff", "pos", "sa"])
def test_decomposer_refuses_nan_images_off_the_center(cone):
    """An oracle that answers central queries as an iso does and every other
    query with NaN blocks matches every central atom, so only the
    reassembly can refuse it. Python's max(0.0, nan) is 0.0 and nan > bound
    is False, so such an oracle passed with max_residual_ 0.0."""
    profile = BlockProfile((2, 3))
    iso = random_direct_sum_iso(rng_from(4), profile, cone)
    base = OrderIsoOracle.from_iso(iso)

    def central_only(apply, profile):
        def query(x):
            return apply(x) if ds_central_scalars(x) is not None else _nan_element(profile)

        return query

    oracle = OrderIsoOracle(
        profile, iso.codomain_profile, cone,
        central_only(base.forward, iso.codomain_profile), central_only(base.inverse, profile),
    )
    with pytest.raises(DecompositionError):
        DirectSumIsoDecomposer(n_verify=5, random_state=0).fit(oracle)


def test_decomposer_refuses_a_nan_residual():
    """Images whose blocks are finite one slot at a time, but NaN for an
    element supported on both slots, reach the reassembly residual itself."""
    profile = BlockProfile((2, 3))
    base = OrderIsoOracle.from_iso(random_direct_sum_iso(rng_from(5), profile, "eff"))

    def fwd(x):
        supported = sum(max_abs(b) > 0 for b in x.blocks)
        return base.forward(x) if supported < 2 else _nan_element(base.codomain_profile)

    oracle = OrderIsoOracle(profile, base.codomain_profile, "eff", fwd, base.inverse)
    with pytest.raises(DecompositionError, match="reassembly residual nan"):
        DirectSumIsoDecomposer(n_verify=5, random_state=0).fit(oracle)


def test_decomposer_refuses_a_nan_image_of_zero():
    """ds_central_scalars raises NonFiniteError on a NaN block; the
    decomposer still answers a black box's NaN shift with its own
    DecompositionError."""
    profile = BlockProfile((2, 3))
    oracle = OrderIsoOracle(
        profile, profile, "sa", lambda x: _nan_element(profile), lambda y: _nan_element(profile)
    )
    with pytest.raises(DecompositionError, match="image of 0 is not central"):
        DirectSumIsoDecomposer(n_verify=5, random_state=0).fit(oracle)


def test_canonical_recovery_refuses_nan_verification_images():
    """The oracle answers the recovery's own queries (multiples of the
    identity and projections) as an iso does, and returns NaN for the
    random effects of the verification."""
    iso = FactorCanonicalIso(
        MonotoneBijection.piecewise_linear([0.0, 0.5, 1.0], [0.0, 0.3, 1.0]),
        ProjectionIsomorphism(random_unitary(rng_from(6), 2)),
        "eff",
    )
    base = single_factor_oracle(iso)
    profile = base.domain_profile

    def fwd(x):
        m = x.blocks[0]
        if max_abs(m @ m - m) <= 1e-9 or ds_central_scalars(x) is not None:
            return base.forward(x)
        return _nan_element(profile)

    oracle = OrderIsoOracle(profile, profile, "eff", fwd, base.inverse)
    with pytest.raises(DecompositionError, match="verification residual nan"):
        FactorCanonicalRecovery(n_verify=5, random_state=0).fit(oracle)


@pytest.mark.parametrize("dims", [(3,), (2, 3)])
def test_is_orthoiso_refuses_nan_images(dims):
    """NaN fails both product tests (nan > bound and nan <= bound are both
    False), so an oracle that answers NaN passed every trial."""
    profile = BlockProfile(dims)
    oracle = OrderIsoOracle(
        profile, profile, "eff", lambda x: _nan_element(profile), lambda y: _nan_element(profile)
    )
    check = is_orthoiso(oracle, trials=20, random_state=0)
    assert not check.ok
    assert check.witness["direction"] == "forward"
    assert np.isnan(check.witness["image_product_norm"])


def test_a_decomposer_validates_images_under_its_own_tolerances(rng):
    """A black box whose images are 1e-8 off Hermitian passes a decomposer
    built with eps_proj = 1e-6, and is refused under the default 1e-9."""
    profile = BlockProfile((2, 3))
    iso = random_direct_sum_iso(rng, profile, "eff")
    base = OrderIsoOracle.from_iso(iso)

    def skewed(x: DirectSumElement) -> DirectSumElement:
        blocks = [b.copy() for b in base.forward(x).blocks]
        for b in blocks:
            b[0, 1] += 1e-8
        return DirectSumElement(iso.codomain_profile, blocks, validate=False)

    oracle = OrderIsoOracle(profile, iso.codomain_profile, "eff", skewed, base.inverse)
    loose = ToleranceConfig(eps_eig=1e-6, eps_proj=1e-6, eps_recon=1e-6)
    dec = DirectSumIsoDecomposer(n_verify=5, random_state=1, tol=loose).fit(oracle)
    assert dec.permutation_ == iso.pi
    with pytest.raises(DecompositionError, match="not Hermitian.*> 1.0e-09"):
        DirectSumIsoDecomposer(n_verify=5, random_state=1).fit(oracle)
