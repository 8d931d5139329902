"""Randomized verification battery.

Each check validates one family of order-theoretic statements on random
instances against an independent oracle (Loewner positivity, simultaneous
diagonalization, assembled block-diagonal matrices, construct-then-recover
round trips). The acceptance tests run these at full sample counts; the CLI
``selftest`` command runs a reduced sweep by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .directsum import (
    BlockProfile,
    DirectSumElement,
    central_atoms,
    ds_family,
    ds_spec_leq,
    embed_block,
)
from .errors import DecompositionError
from .family import SpectralFamily, element_of, family_of
from .io import matrix_to_json
from .isos import DirectSumIso, FactorCanonicalIso, OrderIsoOracle, ProjectionIsomorphism
from .linalg import is_psd
from .monotone import MonotoneBijection
from .order import cone_domain, distributive_check, pos_neg_parts, spec_join, spec_leq, spec_meet
from .projections import proj_join, proj_leq
from .recover import DirectSumIsoDecomposer, is_orthoiso, reassembly_residuals, sample_scalar_action
from .sampling import (
    random_commuting_family,
    random_direct_sum_iso,
    random_ds_element,
    random_effect,
    random_hermitian,
    random_monotone_bijection,
    random_projection,
    random_projection_isomorphism,
    rng_from,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import _check_count, max_abs

# frozen Loewner-vs-spectral separation pair: y - x is positive
# semidefinite, yet the spectral families cross at (3 - sqrt 5)/2
LOEWNER_X = np.diag([1.0, 0.0]).astype(complex)
LOEWNER_Y = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)

_PROFILES = (
    BlockProfile((2, 2)),
    BlockProfile((2, 3)),
    BlockProfile((2, 2, 3)),
    BlockProfile((3, 3)),
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    residual: float | None = None
    witness: dict | None = None


def _min_eig(h: np.ndarray) -> float:
    h = (h + h.conj().T) / 2.0
    return float(np.linalg.eigvalsh(h)[0])


def check_family_axioms(
    rng, samples: int = 1000, max_dim: int = 6,
    psd_floor: float = -1e-8, recon_tol: float = 1e-8,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CheckResult:
    """Defining inequalities of the spectral family plus the element round
    trip, on random Hermitian matrices."""
    worst_floor, worst_recon = 0.0, 0.0
    for _ in range(samples):
        n = int(rng.integers(2, max_dim + 1))
        x = random_hermitian(rng, n)
        fam = family_of(x, tol)
        eye = np.eye(n)
        for lam, p in fam.steps():
            worst_floor = min(worst_floor, _min_eig(lam * p - x @ p))
            worst_floor = min(worst_floor, _min_eig(x @ (eye - p) - lam * (eye - p)))
        worst_recon = max(worst_recon, max_abs(element_of(fam) - x))
    passed = worst_floor >= psd_floor and worst_recon <= recon_tol
    return CheckResult(
        "spectral-family axioms",
        passed,
        f"{samples} samples, min PSD eigenvalue {worst_floor:.2e}, "
        f"round-trip residual {worst_recon:.2e}",
        residual=worst_recon,
    )


def check_projection_coincidence(
    rng, pairs: int = 500, max_dim: int = 5, tol: ToleranceConfig = DEFAULT_TOL
) -> CheckResult:
    """Spectral order restricted to projections equals the standard order,
    on comparable and incomparable random pairs alike."""
    mismatches = 0
    for i in range(pairs):
        n = int(rng.integers(2, max_dim + 1))
        p = random_projection(rng, n)
        if i % 2 == 0:
            q = proj_join([p, random_projection(rng, n)], tol)
        else:
            q = random_projection(rng, n)
        if spec_leq(p, q, tol) != proj_leq(p, q, tol):
            mismatches += 1
        if spec_leq(q, p, tol) != proj_leq(q, p, tol):
            mismatches += 1
    return CheckResult(
        "order coincidence on projections",
        mismatches == 0,
        f"{pairs} pairs, {mismatches} disagreements",
    )


def check_loewner_separation(
    rng, pairs: int = 500, max_dim: int = 5, tol: ToleranceConfig = DEFAULT_TOL
) -> CheckResult:
    """Spectral order implies Loewner order; the frozen counterexample shows
    the converse fails."""
    violations = 0
    for _ in range(pairs):
        n = int(rng.integers(2, max_dim + 1))
        x = random_hermitian(rng, n)
        y = spec_join([x, random_hermitian(rng, n)], "sa", tol)
        if not spec_leq(x, y, tol) or not is_psd(y - x, tol):
            violations += 1
    sep_ok = is_psd(LOEWNER_Y - LOEWNER_X, tol) and not spec_leq(LOEWNER_X, LOEWNER_Y, tol)
    return CheckResult(
        "Loewner vs spectral separation",
        violations == 0 and sep_ok,
        f"{pairs} ordered pairs all Loewner-comparable; "
        f"counterexample Loewner-true/spectral-false: {sep_ok}",
    )


def check_lattice_formulas(
    rng, commuting: int = 500, noncommuting: int = 500, max_dim: int = 5,
    recon_tol: float = 1e-8, tol: ToleranceConfig = DEFAULT_TOL,
) -> CheckResult:
    """Meets and joins against the simultaneous-diagonalization oracle on
    commuting families, and sampled universal properties off it."""
    worst = 0.0
    for _ in range(commuting):
        n = int(rng.integers(2, max_dim + 1))
        count = int(rng.integers(2, 4))
        u, spectra, mats = random_commuting_family(rng, n, count)
        lo = np.min(spectra, axis=0)
        hi = np.max(spectra, axis=0)
        expect_meet = (u * lo) @ u.conj().T
        expect_join = (u * hi) @ u.conj().T
        worst = max(worst, max_abs(spec_meet(mats, "sa", tol) - expect_meet))
        worst = max(worst, max_abs(spec_join(mats, "sa", tol) - expect_join))
    violations = 0
    for _ in range(noncommuting):
        n = int(rng.integers(2, max_dim + 1))
        x, y, r = (random_effect(rng, n) for _ in range(3))
        top = spec_join([x, y], "eff", tol)
        bot = spec_meet([x, y], "eff", tol)
        upper = spec_join([x, y, r], "eff", tol)
        lower = spec_meet([x, y, r], "eff", tol)
        good = (
            spec_leq(x, top, tol) and spec_leq(y, top, tol)
            and spec_leq(bot, x, tol) and spec_leq(bot, y, tol)
            and spec_leq(top, upper, tol) and spec_leq(lower, bot, tol)
        )
        violations += 0 if good else 1
    passed = worst <= recon_tol and violations == 0
    return CheckResult(
        "lattice formulas",
        passed,
        f"{commuting} commuting families within {worst:.2e}; "
        f"{noncommuting} universal-property samples, {violations} violations",
        residual=worst,
    )


def _random_profile(rng) -> BlockProfile:
    count = int(rng.integers(2, 4))
    return BlockProfile(tuple(int(rng.integers(1, 4)) for _ in range(count)))


def check_central_projection_meet(
    rng, samples: int = 300, recon_tol: float = 1e-8, tol: ToleranceConfig = DEFAULT_TOL
) -> CheckResult:
    """z x = z ^ x for central projections z and effects x."""
    worst = 0.0
    for _ in range(samples):
        profile = _random_profile(rng)
        atoms = central_atoms(profile)
        picks = rng.uniform(size=len(atoms)) < 0.5
        z = sum(
            (a.assemble() for a, keep in zip(atoms, picks) if keep),
            np.zeros((profile.total, profile.total), dtype=complex),
        )
        x = random_ds_element(rng, profile, "eff").assemble()
        worst = max(worst, max_abs(spec_meet([z, x], "eff", tol) - z @ x))
    return CheckResult(
        "infimum with central projection",
        worst <= recon_tol,
        f"{samples} samples, residual {worst:.2e}",
        residual=worst,
    )


def check_orthogonal_central_sup(
    rng, samples: int = 300, recon_tol: float = 1e-8, tol: ToleranceConfig = DEFAULT_TOL
) -> CheckResult:
    """sup_j (z_j x) = (sup_j z_j) x for orthogonal central projections."""
    worst = 0.0
    for _ in range(samples):
        profile = _random_profile(rng)
        x = random_ds_element(rng, profile, "pos")
        chosen = [j for j in range(len(profile)) if rng.uniform() < 0.6]
        if not chosen:
            chosen = [int(rng.integers(len(profile)))]
        terms = [embed_block(profile, j, x.blocks[j]).assemble() for j in chosen]
        expected = sum(terms)
        got = spec_join(terms, "pos", tol)
        worst = max(worst, max_abs(got - expected))
    return CheckResult(
        "supremum and multiplication",
        worst <= recon_tol,
        f"{samples} samples, residual {worst:.2e}",
        residual=worst,
    )


def check_direct_sum_family(
    rng, samples: int = 300, recon_tol: float = 1e-8, tol: ToleranceConfig = DEFAULT_TOL
) -> CheckResult:
    """The spectral family of a direct sum is the family of blockwise
    spectral projections."""
    worst = 0.0
    for _ in range(samples):
        profile = _random_profile(rng)
        x = random_ds_element(rng, profile, "sa")
        # evaluate on a family of lists reads a projection where
        # family_of's would build it again at every probe; building one
        # validates its list, so every sample also checks the axioms on
        # the projections family_of yields
        assembled, *blockwise = (
            SpectralFamily(f.breakpoints, list(f.cumulative), tol)
            for f in [family_of(x.assemble(), tol), *ds_family(x, tol)]
        )
        bps = assembled.breakpoints
        probes = np.concatenate([[bps[0] - 1.0], bps, (bps[:-1] + bps[1:]) / 2.0, [bps[-1] + 1.0]])
        for t in probes:
            stacked = DirectSumElement(
                profile, [f.evaluate(t) for f in blockwise]
            ).assemble()
            worst = max(worst, max_abs(stacked - assembled.evaluate(t)))
    return CheckResult(
        "spectral family of direct sum",
        worst <= recon_tol,
        f"{samples} samples, residual {worst:.2e}",
        residual=worst,
    )


def check_direct_sum_order(
    rng, samples: int = 300, tol: ToleranceConfig = DEFAULT_TOL
) -> CheckResult:
    """Blockwise order test agrees with the order on assembled matrices."""
    mismatches = 0
    for i in range(samples):
        profile = _random_profile(rng)
        x = random_ds_element(rng, profile, "sa")
        if i % 2 == 0:
            y = DirectSumElement(
                profile,
                [spec_join([b, random_hermitian(rng, b.shape[0])], "sa", tol) for b in x.blocks],
            )
        else:
            y = random_ds_element(rng, profile, "sa")
        if ds_spec_leq(x, y, tol) != spec_leq(x.assemble(), y.assemble(), tol):
            mismatches += 1
    return CheckResult(
        "spectral order on direct sum",
        mismatches == 0,
        f"{samples} samples, {mismatches} disagreements",
    )


def check_pos_neg_transport(
    rng, samples: int = 300, recon_tol: float = 1e-8, tol: ToleranceConfig = DEFAULT_TOL
) -> CheckResult:
    """For canonical isomorphisms fixing 0: positive parts map to positive
    parts and negative parts to reflected negative parts."""
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        f = random_monotone_bijection(rng, "sa")
        tau = random_projection_isomorphism(rng, n, "unitary" if rng.uniform() < 0.5 else "shear")
        phi = FactorCanonicalIso(f, tau, "sa")
        x = random_hermitian(rng, n)
        xp, xm = pos_neg_parts(x, tol)
        yp, ym = pos_neg_parts(phi.apply(x, tol), tol)
        worst = max(worst, max_abs(yp - phi.apply(xp, tol)))
        worst = max(worst, max_abs(ym - (-phi.apply(-xm, tol))))
    return CheckResult(
        "positive and negative parts",
        worst <= recon_tol,
        f"{samples} samples, residual {worst:.2e}",
        residual=worst,
    )


def check_center_distributive(
    rng, central_zs: int = 2, pairs: int = 200, noncentral_zs: int = 20,
    search_cap: int = 10_000, tol: ToleranceConfig = DEFAULT_TOL,
) -> CheckResult:
    """Central elements are distributive; non-central elements admit a
    distributivity violation found by random search."""
    profile = BlockProfile((2, 2))
    for _ in range(central_zs):
        scalars = rng.uniform(-2.0, 2.0, len(profile))
        z = DirectSumElement(
            profile, [c * np.eye(d) for c, d in zip(scalars, profile.dims)]
        ).assemble()
        for _ in range(pairs):
            # the distributive law quantifies over elements of the direct
            # sum, so the samples are block-diagonal
            x = random_ds_element(rng, profile, "sa").assemble()
            y = random_ds_element(rng, profile, "sa").assemble()
            if not distributive_check(z, x, y, "sa", tol):
                return CheckResult(
                    "center equals distributive elements",
                    False,
                    "a central element failed a distributivity check",
                )
    witness = None
    worst_tries = 0
    for _ in range(noncentral_zs):
        while True:
            z_el = random_ds_element(rng, profile, "sa")
            if any(max_abs(b - np.trace(b) / b.shape[0] * np.eye(b.shape[0])) > 0.1 for b in z_el.blocks):
                break
        z = z_el.assemble()
        found = False
        for attempt in range(1, search_cap + 1):
            x = random_ds_element(rng, profile, "sa").assemble()
            y = random_ds_element(rng, profile, "sa").assemble()
            if not distributive_check(z, x, y, "sa", tol):
                found = True
                worst_tries = max(worst_tries, attempt)
                if witness is None:
                    witness = {
                        "z": matrix_to_json(np.round(z, 6)),
                        "x": matrix_to_json(np.round(x, 6)),
                        "y": matrix_to_json(np.round(y, 6)),
                        "attempts": attempt,
                    }
                break
        if not found:
            return CheckResult(
                "center equals distributive elements",
                False,
                f"no violation found for a non-central element in {search_cap} samples",
            )
    return CheckResult(
        "center equals distributive elements",
        True,
        f"{central_zs} central elements x {pairs} pairs distributive; "
        f"{noncentral_zs} non-central elements violated within {worst_tries} samples",
        witness=witness,
    )


def check_structure_recovery(
    rng, isos: int = 100, fresh: int = 200, shift_tol: float = 1e-8,
    fresh_tol: float = 1e-6, tol: ToleranceConfig = DEFAULT_TOL,
) -> CheckResult:
    """Construct-then-recover round trip for random blockwise isomorphisms
    over all three cones: permutation exact, shift exact, reassembled
    application matching the oracle on fresh samples."""
    cones = ("eff", "pos", "sa")
    worst_fresh, worst_shift = 0.0, 0.0
    for i in range(isos):
        profile = _PROFILES[i % len(_PROFILES)]
        cone = cones[i % len(cones)]
        iso = random_direct_sum_iso(rng, profile, cone, tau_kinds=("unitary", "shear"))
        shift = None
        if not np.isfinite(cone_domain(cone)[0]):
            shift = DirectSumElement(
                iso.codomain_profile,
                [rng.uniform(-2.0, 2.0) * np.eye(d) for d in iso.codomain_profile.dims],
            )
        oracle = OrderIsoOracle.from_iso(iso, tol).shifted(shift)
        dec = DirectSumIsoDecomposer(
            n_verify=20, random_state=int(rng.integers(2**32)), tol=tol
        ).fit(oracle)
        if dec.permutation_ != iso.pi:
            return CheckResult(
                "blockwise structure recovery",
                False,
                f"instance {i}: permutation {dec.permutation_} != {iso.pi}",
            )
        if shift is not None:
            worst_shift = max(
                worst_shift,
                max(max_abs(a - b) for a, b in zip(dec.shift_.blocks, shift.blocks)),
            )
        residuals = reassembly_residuals(
            oracle, rng, fresh, dec.permutation_, dec.block_oracles_, dec.shift_
        )
        worst_fresh = max(worst_fresh, *residuals)
    passed = worst_shift <= shift_tol and worst_fresh <= fresh_tol
    return CheckResult(
        "blockwise structure recovery",
        passed,
        f"{isos} isomorphisms recovered; shift residual {worst_shift:.2e}, "
        f"fresh-sample residual {worst_fresh:.2e}",
        residual=worst_fresh,
    )


def check_orthoiso_discrimination(
    rng, jordan_oracles: int = 5, jordan_trials: int = 100,
    shear_instances: int = 20, shear_trials: int = 1000, min_detected: int = 18,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> CheckResult:
    """Jordan-built maps always pass the orthogonality scan; maps built from
    a non-unitary shear are caught with a witness."""
    profile = BlockProfile((2, 3))
    false_negatives = 0
    for _ in range(jordan_oracles):
        iso = random_direct_sum_iso(rng, profile, "eff", tau_kinds=("jordan",))
        check = is_orthoiso(
            OrderIsoOracle.from_iso(iso, tol),
            trials=jordan_trials,
            random_state=int(rng.integers(2**32)),
            tol=tol,
        )
        if not check.ok:
            false_negatives += 1
    detected = 0
    witness = None
    for _ in range(shear_instances):
        iso = random_direct_sum_iso(
            rng, BlockProfile((3,)), "eff", tau_kinds=("shear",)
        )
        check = is_orthoiso(
            OrderIsoOracle.from_iso(iso, tol),
            trials=shear_trials,
            random_state=int(rng.integers(2**32)),
            tol=tol,
        )
        if not check.ok:
            detected += 1
            if witness is None and check.witness is not None:
                witness = {
                    "direction": check.witness["direction"],
                    "kind": check.witness["kind"],
                    "image_product_norm": check.witness["image_product_norm"],
                }
    passed = false_negatives == 0 and detected >= min_detected
    return CheckResult(
        "orthoisomorphism discrimination",
        passed,
        f"{jordan_oracles} Jordan oracles clean over {jordan_trials} trials each; "
        f"shear maps detected {detected}/{shear_instances}",
        witness=witness,
    )


def motivating_iso() -> DirectSumIso:
    """The component-cubing automorphism of a two-factor spectral lattice:
    identity on the first slot, t -> t^3 on the second."""
    profile = BlockProfile((2, 2))
    blocks = (
        FactorCanonicalIso(MonotoneBijection.identity(), ProjectionIsomorphism.identity(2), "sa"),
        FactorCanonicalIso(MonotoneBijection.power(3.0), ProjectionIsomorphism.identity(2), "sa"),
    )
    return DirectSumIso(profile, profile, (0, 1), blocks, "sa")


def check_motivating_example(tol: ToleranceConfig = DEFAULT_TOL) -> CheckResult:
    """Decompose the component-cubing automorphism and read off its scalar
    actions on a grid, each within 1e-6 of identity and cubing."""
    oracle = OrderIsoOracle.from_iso(motivating_iso(), tol)
    try:
        dec = DirectSumIsoDecomposer(n_verify=20, random_state=0, tol=tol).fit(oracle)
        grid = np.linspace(-1.0, 1.0, 33)
        f0 = sample_scalar_action(dec.block_oracles_[0], grid, tol)
        f1 = sample_scalar_action(dec.block_oracles_[1], grid, tol)
    except DecompositionError as exc:
        return CheckResult("component-cubing automorphism", False, str(exc))
    err_id = float(np.max(np.abs(f0 - grid)))
    err_cube = float(np.max(np.abs(f1 - grid**3)))
    passed = dec.permutation_ == (0, 1) and err_id <= 1e-6 and err_cube <= 1e-6
    return CheckResult(
        "component-cubing automorphism",
        passed,
        f"permutation {dec.permutation_}; identity action within {err_id:.2e}, "
        f"cubing action within {err_cube:.2e}",
        residual=max(err_id, err_cube),
    )


def run_selftest(seed: int = 0, trials: int | None = None, tol: ToleranceConfig = DEFAULT_TOL):
    """Reduced sweep of every check; `trials` overrides the dominant sample
    count of each randomized check and must be at least 1 (ValueError)."""
    if trials is not None:
        _check_count(trials, "trials")
    rng = rng_from(seed)
    t = trials
    results = [
        check_family_axioms(rng, samples=t or 200, tol=tol),
        check_projection_coincidence(rng, pairs=t or 100, tol=tol),
        check_loewner_separation(rng, pairs=t or 100, tol=tol),
        check_lattice_formulas(rng, commuting=t or 100, noncommuting=t or 100, tol=tol),
        check_central_projection_meet(rng, samples=t or 60, tol=tol),
        check_orthogonal_central_sup(rng, samples=t or 60, tol=tol),
        check_direct_sum_family(rng, samples=t or 60, tol=tol),
        check_direct_sum_order(rng, samples=t or 60, tol=tol),
        check_pos_neg_transport(rng, samples=t or 60, tol=tol),
        check_center_distributive(rng, central_zs=1, pairs=t or 50, noncentral_zs=3, tol=tol),
        check_structure_recovery(rng, isos=min(t or 12, 40), fresh=t or 24, tol=tol),
        check_orthoiso_discrimination(
            rng, jordan_oracles=2, jordan_trials=50, shear_instances=4,
            shear_trials=400, min_detected=3, tol=tol,
        ),
        check_motivating_example(tol=tol),
    ]
    return results
