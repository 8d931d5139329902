"""Command-line interface.

Exit codes separate mathematical verdicts from failures: 0 when the command
succeeds and every check passes, 1 when a mathematical verdict is false
(an order that does not hold, a map that is not an isomorphism), 2 on input
errors. Reports go to stdout, as text or with --json as one deterministic
JSON object.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .directsum import (
    ds_atom_scalar_decompose,
    ds_central_scalars,
    ds_family,
    ds_pos_neg_parts,
    ds_spec_join,
    ds_spec_leq,
    ds_spec_meet,
)
from .errors import DecompositionError, DimensionMismatchError, SpeclatError
from .io import (
    Report,
    element_to_doc,
    emit_element,
    file_digest,
    matrix_to_json,
    parse_element,
    parse_iso,
)
from .isos import OrderIsoOracle
from .order import cone_domain, spec_join
from .recover import DirectSumIsoDecomposer, is_orthoiso, sample_scalar_action
from .sampling import random_ds_element, random_in_cone, rng_from
from .tolerances import DEFAULT_TOL, ToleranceConfig
from .validation import max_abs

ENV_SEED = "SPECLAT_SEED"


def _common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument("--seed", type=int, default=None, help=f"seed for randomized checks (default: ${ENV_SEED} or 0)")
    parser.add_argument("--tol-eig", type=float, default=None, help="eigenvalue clustering width")
    parser.add_argument("--tol-proj", type=float, default=None, help="projection residual bound")
    parser.add_argument("--tol-recon", type=float, default=None, help="reconstruction residual bound")


def _count(text: str) -> int:
    """argparse type of a sample count: at least 1, since a check over no
    samples passes vacuously."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclat",
        description="Spectral order computations on direct sums of matrix factors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="test x before y in the spectral order")
    p.add_argument("x")
    p.add_argument("y")

    for name, help_text in (("meet", "blockwise infimum"), ("join", "blockwise supremum")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("elements", nargs="+", metavar="ELEMENT")
        p.add_argument("--out", help="write the resulting element document here")

    p = sub.add_parser("family", help="per-block spectral families of an element")
    p.add_argument("element")

    p = sub.add_parser("posneg", help="blockwise positive and negative parts")
    p.add_argument("element")

    p = sub.add_parser("atoms", help="detect a scalar multiple of an atomic projection")
    p.add_argument("element")

    p = sub.add_parser("center", help="test whether an element is central")
    p.add_argument("element")

    p = sub.add_parser("apply-iso", help="apply a serialized isomorphism to an element")
    p.add_argument("iso")
    p.add_argument("element")
    p.add_argument("--out", help="write the image element document here")

    p = sub.add_parser("decompose", help="recover permutation, shift and blockwise structure of a serialized isomorphism treated as an oracle")
    p.add_argument("iso")
    p.add_argument("--grid", type=_count, default=33, help="grid points for the reported scalar actions")
    p.add_argument("--samples", type=_count, default=50, help="verification samples")

    p = sub.add_parser("verify-iso", help="sampled verification that a serialized map is a spectral order isomorphism")
    p.add_argument("iso")
    p.add_argument("--ortho", action="store_true", help="also scan orthogonality preservation")
    p.add_argument("--trials", type=_count, default=200)

    p = sub.add_parser("selftest", help="run the randomized invariant battery")
    p.add_argument("--trials", type=_count, default=None, help="override the per-check sample counts")

    for p in sub.choices.values():
        _common_options(p)
    return parser


def _tolerances(args) -> ToleranceConfig:
    return ToleranceConfig(
        eps_eig=args.tol_eig if args.tol_eig is not None else DEFAULT_TOL.eps_eig,
        eps_proj=args.tol_proj if args.tol_proj is not None else DEFAULT_TOL.eps_proj,
        eps_recon=args.tol_recon if args.tol_recon is not None else DEFAULT_TOL.eps_recon,
    )


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get(ENV_SEED, "0"))


def _one_based(pi) -> list[int]:
    return [j + 1 for j in pi]


def _cmd_order(args, tol, report: Report) -> int:
    x, cone_x = parse_element(args.x, tol)
    y, cone_y = parse_element(args.y, tol)
    report.inputs = {"x": file_digest(args.x), "y": file_digest(args.y)}
    holds = ds_spec_leq(x, y, tol)
    report.add_verdict("x ⪯ y", holds, detail="true" if holds else "false")
    return 0 if holds else 1


def _cmd_meet_join(args, tol, report: Report) -> int:
    which = args.command
    parsed = [parse_element(path, tol) for path in args.elements]
    report.inputs = {f"element[{i}]": file_digest(p) for i, p in enumerate(args.elements)}
    cones = {cone for _, cone in parsed}
    if len(cones) != 1:
        raise DimensionMismatchError(f"elements carry different cones: {sorted(cones)}")
    cone = cones.pop()
    elements = [x for x, _ in parsed]
    op = ds_spec_meet if which == "meet" else ds_spec_join
    result = op(elements, cone, tol)
    doc = element_to_doc(result, cone)
    report.result = doc
    report.add_verdict(f"{which} computed", True)
    if args.out:
        emit_element(result, cone, args.out)
    return 0


def _cmd_family(args, tol, report: Report) -> int:
    x, _cone = parse_element(args.element, tol)
    report.inputs = {"element": file_digest(args.element)}
    fams = ds_family(x, tol)
    report.result = {
        "profile": list(x.profile.dims),
        "blocks": [
            {
                "breakpoints": [float(b) for b in fam.breakpoints],
                "cumulative": [matrix_to_json(p) for p in fam.cumulative],
            }
            for fam in fams
        ],
    }
    report.add_verdict("spectral family computed", True)
    return 0


def _cmd_posneg(args, tol, report: Report) -> int:
    x, _cone = parse_element(args.element, tol)
    report.inputs = {"element": file_digest(args.element)}
    plus, minus = ds_pos_neg_parts(x, tol)
    residual = max(
        max_abs(p - m - b) for p, m, b in zip(plus.blocks, minus.blocks, x.blocks)
    )
    report.result = {"pos": element_to_doc(plus, "pos"), "neg": element_to_doc(minus, "pos")}
    report.add_verdict("x = x+ - x-", residual <= tol.eps_recon, residual=residual)
    return 0 if residual <= tol.eps_recon else 1


def _cmd_atoms(args, tol, report: Report) -> int:
    x, cone = parse_element(args.element, tol)
    report.inputs = {"element": file_digest(args.element)}
    found = ds_atom_scalar_decompose(x, cone, tol)
    if found is None:
        report.add_verdict("scalar multiple of an atom", False, detail="rank above one")
        return 1
    alpha, block, e = found
    report.result = {
        "alpha": float(alpha),
        "block": int(block),
        "projection": matrix_to_json(e),
    }
    report.add_verdict(
        "scalar multiple of an atom", True, detail=f"alpha={alpha:.12g}, block {block + 1}"
    )
    return 0


def _cmd_center(args, tol, report: Report) -> int:
    x, _cone = parse_element(args.element, tol)
    report.inputs = {"element": file_digest(args.element)}
    scalars = ds_central_scalars(x, tol)
    if scalars is None:
        report.add_verdict("central", False, detail="some block is not scalar")
        return 1
    report.result = {"scalars": [float(c) for c in scalars]}
    report.add_verdict("central", True, detail=f"scalars {[round(c, 12) for c in scalars]}")
    return 0


def _cmd_apply_iso(args, tol, report: Report) -> int:
    iso = parse_iso(args.iso, tol)
    x, cone = parse_element(args.element, tol)
    report.inputs = {"iso": file_digest(args.iso), "element": file_digest(args.element)}
    if cone != iso.cone:
        raise DimensionMismatchError(
            f"element cone {cone!r} does not match isomorphism cone {iso.cone!r}"
        )
    image = iso.apply(x, tol)
    report.result = element_to_doc(image, cone)
    report.add_verdict("isomorphism applied", True)
    if args.out:
        emit_element(image, cone, args.out)
    return 0


def _cmd_decompose(args, tol, report: Report) -> int:
    iso = parse_iso(args.iso, tol)
    report.inputs = {"iso": file_digest(args.iso)}
    oracle = OrderIsoOracle.from_iso(iso, tol)
    try:
        dec = DirectSumIsoDecomposer(n_verify=args.samples, random_state=report.seed, tol=tol).fit(oracle)
        # the cone's domain, cut to at most [-1, 1] or [0, 2] where it is unbounded
        lo, hi = cone_domain(iso.cone)
        lo = max(lo, -1.0)
        grid = np.linspace(lo, min(hi, lo + 2.0), args.grid)
        actions = [
            {"block": j, "grid": grid.tolist(), "values": sample_scalar_action(b, grid, tol).tolist()}
            for j, b in enumerate(dec.block_oracles_)
        ]
    except DecompositionError as exc:
        report.add_verdict("blockwise decomposition", False, detail=str(exc))
        return 1
    report.result = {
        "pi": list(dec.permutation_),
        "pi_one_based": _one_based(dec.permutation_),
        "shift": None if dec.shift_ is None else ds_central_scalars(dec.shift_, tol),
        "block_residuals": [float(r) for r in dec.block_residuals_],
        "scalar_actions": actions,
    }
    report.flags.extend(dec.flags_)
    report.add_verdict(
        "blockwise decomposition",
        True,
        residual=dec.max_residual_,
        detail=f"pi = {_one_based(dec.permutation_)} (1-based)",
    )
    return 0


def _cmd_verify_iso(args, tol, report: Report) -> int:
    iso = parse_iso(args.iso, tol)
    report.inputs = {"iso": file_digest(args.iso)}
    oracle = OrderIsoOracle.from_iso(iso, tol)
    rng = rng_from(report.seed)
    ok_order = True
    worst_inverse = 0.0
    for i in range(args.trials):
        x = random_ds_element(rng, iso.domain_profile, iso.cone)
        if i % 2 == 0:
            y = x.map_blocks(
                lambda b: _join_with_random(b, rng, iso.cone, tol)
            )
        else:
            y = random_ds_element(rng, iso.domain_profile, iso.cone)
        before = ds_spec_leq(x, y, tol)
        after = ds_spec_leq(oracle.forward(x), oracle.forward(y), tol)
        if before != after:
            ok_order = False
            report.witnesses.append(
                {
                    "kind": "order not preserved",
                    "x": element_to_doc(x, iso.cone),
                    "y": element_to_doc(y, iso.cone),
                    "before": before,
                    "after": after,
                }
            )
            break
        back = oracle.inverse(oracle.forward(x))
        worst_inverse = max(
            worst_inverse, max(max_abs(a - b) for a, b in zip(back.blocks, x.blocks))
        )
    ok_inverse = worst_inverse <= 10 * tol.eps_recon
    report.add_verdict("order preserved in both directions", ok_order)
    report.add_verdict("inverse composes to identity", ok_inverse, residual=worst_inverse)
    exit_code = 0 if (ok_order and ok_inverse) else 1
    if args.ortho:
        check = is_orthoiso(oracle, trials=args.trials, random_state=report.seed, tol=tol)
        report.flags.extend(f for f in check.flags if f not in report.flags)
        if check.ok:
            report.add_verdict("orthogonality preserved", True)
        else:
            w = check.witness
            report.add_verdict("orthogonality preserved", False, detail=w["kind"])
            report.witnesses.append(
                {
                    "kind": w["kind"],
                    "direction": w["direction"],
                    "image_product_norm": w["image_product_norm"],
                    "x": element_to_doc(w["x"], "eff"),
                    "y": element_to_doc(w["y"], "eff"),
                }
            )
            exit_code = 1
    return exit_code


def _join_with_random(block: np.ndarray, rng, cone: str, tol) -> np.ndarray:
    other = random_in_cone(rng, block.shape[0], cone)
    return spec_join([block, other], cone, tol)


def _cmd_selftest(args, tol, report: Report) -> int:
    # the battery is imported only for this command, keeping it out of the
    # start-up of every other one
    from .selftest import run_selftest

    results = run_selftest(seed=report.seed, trials=args.trials, tol=tol)
    for res in results:
        report.add_verdict(res.name, res.passed, residual=res.residual, detail=res.detail)
        if res.witness is not None:
            report.witnesses.append({"check": res.name, **res.witness})
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "order": _cmd_order,
    "meet": _cmd_meet_join,
    "join": _cmd_meet_join,
    "family": _cmd_family,
    "posneg": _cmd_posneg,
    "atoms": _cmd_atoms,
    "center": _cmd_center,
    "apply-iso": _cmd_apply_iso,
    "decompose": _cmd_decompose,
    "verify-iso": _cmd_verify_iso,
    "selftest": _cmd_selftest,
}


def run_command(argv) -> tuple[int, Report]:
    """Parse argv, execute one subcommand, and return (exit code, report).

    Raises SpeclatError for input problems (exit code 2 territory); a false
    mathematical verdict is reported with exit code 1, not an exception.
    """
    args = build_parser().parse_args(argv)
    try:
        tol = _tolerances(args)
    except ValueError as exc:
        raise SpeclatError(str(exc)) from None
    report = Report(command=args.command, seed=_seed(args))
    code = _COMMANDS[args.command](args, tol, report)
    return code, report


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    want_json = "--json" in argv
    try:
        code, report = run_command(argv)
    except SpeclatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if want_json else report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
