import json

import numpy as np
import pytest

from speclat.cli import main
from speclat.directsum import BlockProfile, DirectSumElement
from speclat.io import element_from_doc, emit_element, emit_iso, matrix_to_json, parse_element
from speclat.isos import DirectSumIso, FactorCanonicalIso, ProjectionIsomorphism
from speclat.monotone import MonotoneBijection
from speclat.sampling import random_direct_sum_iso, random_unitary, random_with_spectrum, rng_from
from speclat.selftest import motivating_iso
from speclat.validation import check_hermitian


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write_diag(path, *diags, cone="sa"):
    profile = BlockProfile(tuple(len(d) for d in diags))
    x = DirectSumElement(profile, [np.diag(np.asarray(d, dtype=float)) for d in diags])
    emit_element(x, cone, path)
    return x


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_order_true_false_and_exit_codes(workdir, capsys):
    write_diag(workdir / "x.json", [1.0, 2.0])
    write_diag(workdir / "y.json", [2.0, 3.0])
    code, report = run_json(capsys, ["order", str(workdir / "x.json"), str(workdir / "y.json")])
    assert code == 0
    assert report["verdicts"][0]["pass"] is True
    code, report = run_json(capsys, ["order", str(workdir / "y.json"), str(workdir / "x.json")])
    assert code == 1
    assert report["verdicts"][0]["pass"] is False


def test_order_solves_each_block_once(workdir, capsys, count_calls):
    """Loading checks each 'eff' block against the cone through eigh's
    memo, so the second load of the same document and the order test read
    the eigensystems the first load solved."""
    rng = rng_from(3)
    profile = BlockProfile((2, 3))
    blocks = [random_with_spectrum(rng, w) for w in ([0.25, 0.5], [0.0, 0.5, 1.0])]
    emit_element(DirectSumElement(profile, blocks), "eff", workdir / "x.json")
    solves = count_calls(np.linalg.eigh)
    spectra = count_calls(np.linalg.eigvalsh)
    code, report = run_json(capsys, ["order", str(workdir / "x.json"), str(workdir / "x.json")])
    assert code == 0 and report["verdicts"][0]["pass"] is True
    assert len(solves) == 2
    assert spectra == []


@pytest.mark.parametrize("argv", [["order", "x", "y"], ["join", "x", "y"], ["family", "x"]])
def test_commands_check_each_block_once(workdir, capsys, count_calls, argv):
    """The lattice operations read the blocks that loading checked: one
    check_hermitian per block of each two-block document named."""
    rng = rng_from(3)
    profile = BlockProfile((2, 3))
    blocks = [random_with_spectrum(rng, w) for w in ([0.25, 0.5], [0.0, 0.5, 1.0])]
    for name in ("x", "y"):
        emit_element(DirectSumElement(profile, blocks), "eff", workdir / f"{name}.json")
    hermitian = count_calls(check_hermitian)
    code, _ = run_json(capsys, [str(workdir / f"{a}.json") if a in ("x", "y") else a for a in argv])
    assert code == 0
    assert len(hermitian) == 2 * (len(argv) - 1)


def test_order_profile_mismatch_is_input_error(workdir, capsys):
    write_diag(workdir / "x.json", [1.0, 2.0])
    write_diag(workdir / "y.json", [1.0, 2.0, 3.0])
    code = main(["order", str(workdir / "x.json"), str(workdir / "y.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_order_nan_document_is_input_error(workdir, capsys):
    write_diag(workdir / "x.json", [1.0, 2.0])
    write_diag(workdir / "y.json", [2.0, 3.0])
    path = workdir / "x.json"
    path.write_text(path.read_text().replace("1.0", "NaN", 1))
    code = main(["order", str(path), str(workdir / "y.json")])
    assert code == 2
    assert "NaN" in capsys.readouterr().err


def test_order_boolean_entry_is_input_error(workdir, capsys):
    write_diag(workdir / "x.json", [1.0, 2.0])
    write_diag(workdir / "y.json", [2.0, 3.0])
    path = workdir / "x.json"
    path.write_text(path.read_text().replace("1.0", "true", 1))
    code = main(["order", str(path), str(workdir / "y.json")])
    assert code == 2
    assert "[re, im] pairs" in capsys.readouterr().err


def test_missing_file_is_input_error(workdir, capsys):
    code = main(["family", str(workdir / "nope.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_meet_join_with_out(workdir, capsys):
    write_diag(workdir / "a.json", [1.0, 4.0])
    write_diag(workdir / "b.json", [3.0, 2.0])
    out = workdir / "meet.json"
    code, report = run_json(
        capsys, ["meet", str(workdir / "a.json"), str(workdir / "b.json"), "--out", str(out)]
    )
    assert code == 0
    entries = report["result"]["blocks"][0]
    got = np.array([[complex(*pair) for pair in row] for row in entries])
    np.testing.assert_allclose(got, np.diag([1.0, 2.0]), atol=1e-9)
    assert out.exists()
    code2, report2 = run_json(capsys, ["join", str(workdir / "a.json"), str(workdir / "b.json")])
    got2 = np.array(
        [[complex(*pair) for pair in row] for row in report2["result"]["blocks"][0]]
    )
    np.testing.assert_allclose(got2, np.diag([3.0, 4.0]), atol=1e-9)


def test_family_reports_breakpoints(workdir, capsys):
    write_diag(workdir / "x.json", [1.0, 2.0], [0.5])
    code, report = run_json(capsys, ["family", str(workdir / "x.json")])
    assert code == 0
    blocks = report["result"]["blocks"]
    assert blocks[0]["breakpoints"] == [1.0, 2.0]
    assert blocks[1]["breakpoints"] == [0.5]


def test_posneg(workdir, capsys):
    write_diag(workdir / "x.json", [3.0, -2.0])
    code, report = run_json(capsys, ["posneg", str(workdir / "x.json")])
    assert code == 0
    pos = np.array(
        [[complex(*pair) for pair in row] for row in report["result"]["pos"]["blocks"][0]]
    )
    np.testing.assert_allclose(pos, np.diag([3.0, 0.0]), atol=1e-9)


def test_atoms_found_and_not_found(workdir, capsys):
    write_diag(workdir / "atom.json", [0.5, 0.0], cone="eff")
    code, report = run_json(capsys, ["atoms", str(workdir / "atom.json")])
    assert code == 0
    assert report["result"]["alpha"] == pytest.approx(0.5)
    write_diag(workdir / "full.json", [1.0, 1.0], cone="eff")
    code, _report = run_json(capsys, ["atoms", str(workdir / "full.json")])
    assert code == 1
    write_diag(workdir / "sa.json", [0.5, 0.0], cone="sa")
    assert main(["atoms", str(workdir / "sa.json")]) == 2


def test_center(workdir, capsys):
    write_diag(workdir / "z.json", [2.0, 2.0], [-1.0, -1.0, -1.0])
    code, report = run_json(capsys, ["center", str(workdir / "z.json")])
    assert code == 0
    assert report["result"]["scalars"] == [2.0, -1.0]
    write_diag(workdir / "nz.json", [2.0, 1.0], [-1.0, -1.0, -1.0])
    assert main(["center", str(workdir / "nz.json"), "--json"]) == 1
    capsys.readouterr()
    # the trace of this block overflows; its entries do not
    write_diag(workdir / "big.json", [1e308, 1e308])
    code, report = run_json(capsys, ["center", str(workdir / "big.json")])
    assert code == 0
    assert report["result"]["scalars"] == [1e308]
    # trace / 3 of this exact scalar block rounds by more than eps_proj
    write_diag(workdir / "large.json", [195626725.48360986] * 3)
    code, report = run_json(capsys, ["center", str(workdir / "large.json")])
    assert code == 0
    assert report["result"]["scalars"] == [195626725.48360986]


def test_apply_iso(workdir, capsys, rng):
    iso = motivating_iso()
    emit_iso(iso, workdir / "iso.json")
    write_diag(workdir / "x.json", [1.0, -2.0], [1.0, -2.0])
    code, report = run_json(
        capsys, ["apply-iso", str(workdir / "iso.json"), str(workdir / "x.json")]
    )
    assert code == 0
    second = np.array(
        [[complex(*pair) for pair in row] for row in report["result"]["blocks"][1]]
    )
    np.testing.assert_allclose(second, np.diag([1.0, -8.0]), atol=1e-8)


def test_apply_iso_writes_the_reported_image(workdir, capsys):
    emit_iso(motivating_iso(), workdir / "iso.json")
    write_diag(workdir / "x.json", [1.0, -2.0], [0.5, 3.0])
    out = workdir / "image.json"
    code, report = run_json(
        capsys, ["apply-iso", str(workdir / "iso.json"), str(workdir / "x.json"), "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text()) == report["result"]
    written, cone = parse_element(out)
    reported, _ = element_from_doc(report["result"])
    assert cone == "sa"
    assert all(np.array_equal(a, b) for a, b in zip(written.blocks, reported.blocks))
    np.testing.assert_allclose(written.blocks[1], np.diag([0.125, 27.0]), atol=1e-12)


def test_apply_iso_refuses_values_sent_out_of_the_floats(workdir, capsys):
    """t^5 sends 1e100 to infinity: the image is an input error, not an
    element document with NaN entries, and no --out file is written."""
    profile = BlockProfile((2,))
    block = FactorCanonicalIso(MonotoneBijection.power(5.0), ProjectionIsomorphism.identity(2))
    emit_iso(DirectSumIso(profile, profile, (0,), (block,)), workdir / "iso.json")
    write_diag(workdir / "x.json", [1e100, 1.0])
    write_diag(workdir / "c.json", [1e100, 1e100])
    for element in ("x.json", "c.json"):
        out = workdir / f"image-{element}"
        argv = ["apply-iso", str(workdir / "iso.json"), str(workdir / element), "--out", str(out)]
        with np.errstate(over="ignore"):
            assert main(argv) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def test_apply_iso_cone_mismatch(workdir, capsys):
    emit_iso(motivating_iso(), workdir / "iso.json")
    write_diag(workdir / "x.json", [0.5, 0.5], [0.5, 0.5], cone="eff")
    assert main(["apply-iso", str(workdir / "iso.json"), str(workdir / "x.json")]) == 2
    capsys.readouterr()


def test_decompose_swap_reports_one_based_pi(workdir, capsys):
    rng = rng_from(11)
    profile = BlockProfile((2, 2))
    while True:
        iso = random_direct_sum_iso(rng, profile, "eff")
        if iso.pi == (1, 0):
            break
    emit_iso(iso, workdir / "swap.json")
    code = main(["decompose", str(workdir / "swap.json")])
    text = capsys.readouterr().out
    assert code == 0
    assert "pi = [2, 1] (1-based)" in text
    code, report = run_json(capsys, ["decompose", str(workdir / "swap.json")])
    assert report["result"]["pi"] == [1, 0]
    assert all(r <= 1e-8 for r in report["result"]["block_residuals"])


def test_decompose_motivating_example(workdir, capsys):
    emit_iso(motivating_iso(), workdir / "cube.json")
    code, report = run_json(capsys, ["decompose", str(workdir / "cube.json")])
    assert code == 0
    assert report["result"]["pi"] == [0, 1]
    actions = report["result"]["scalar_actions"]
    grid = np.asarray(actions[0]["grid"])
    np.testing.assert_allclose(actions[0]["values"], grid, atol=1e-6)
    np.testing.assert_allclose(actions[1]["values"], grid**3, atol=1e-6)
    assert "type-I2" in report["flags"]


def test_verify_iso_ortho_flags_shear(workdir, capsys):
    rng = rng_from(5)
    iso = random_direct_sum_iso(rng, BlockProfile((3,)), "eff", tau_kinds=("shear",))
    emit_iso(iso, workdir / "shear.json")
    code, report = run_json(
        capsys, ["verify-iso", str(workdir / "shear.json"), "--ortho", "--trials", "300"]
    )
    assert code == 1
    checks = {v["check"]: v["pass"] for v in report["verdicts"]}
    assert checks["order preserved in both directions"] is True
    assert checks["orthogonality preserved"] is False
    assert report["witnesses"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-iso", "shear.json", "--ortho", "--trials", "0"],
        ["verify-iso", "shear.json", "--trials", "-3"],
        ["selftest", "--trials", "0"],
        ["selftest", "--trials", "-1"],
        ["decompose", "cube.json", "--samples", "0"],
        ["decompose", "cube.json", "--grid", "0"],
        ["decompose", "cube.json", "--samples", "-2", "--grid", "-2"],
    ],
)
def test_sample_counts_below_one_are_input_errors(workdir, capsys, argv):
    """A check over no samples would pass vacuously; argparse refuses such a
    count with exit code 2 before anything runs."""
    shear = random_direct_sum_iso(rng_from(5), BlockProfile((3,)), "eff", tau_kinds=("shear",))
    emit_iso(shear, workdir / "shear.json")
    emit_iso(motivating_iso(), workdir / "cube.json")
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "at least 1" in capsys.readouterr().err


def test_verify_iso_jordan_passes(workdir, capsys):
    """A document in jordan form, written by hand: emit_iso writes tau
    blocks only."""
    rng = rng_from(6)
    blocks = []
    for d in (2, 3):
        f = {"kind": "pl", "knots": [0.0, 0.5, 1.0], "values": [0.0, 0.3, 1.0]}
        u = matrix_to_json(random_unitary(rng, d))
        blocks.append({"f": f, "jordan": {"u": u, "transpose": d == 3}})
    doc = {
        "schema_version": "1",
        "domain_profile": [2, 3],
        "codomain_profile": [2, 3],
        "cone": "eff",
        "pi": [0, 1],
        "blocks": blocks,
    }
    (workdir / "jordan.json").write_text(json.dumps(doc), encoding="utf-8")
    code, report = run_json(
        capsys, ["verify-iso", str(workdir / "jordan.json"), "--ortho", "--trials", "40"]
    )
    assert code == 0
    assert report["verdicts"] and all(v["pass"] for v in report["verdicts"])


def _tied_documents(workdir):
    """Tied elements in a random basis (spectra with repeats, so the basis
    inside each eigenspace is LAPACK's choice), a scaled rank-one projection
    and a shear iso, over the profile (2, 3) on the effect cone."""
    rng = rng_from(14)
    profile = BlockProfile((2, 3))

    def tied(*spectra):
        blocks = [random_with_spectrum(rng, w) for w in spectra]
        return DirectSumElement(profile, blocks)

    emit_element(tied([0.5, 0.5], [0.25, 0.25, 0.75]), "eff", workdir / "x.json")
    emit_element(tied([0.125, 0.875], [0.5, 0.5, 0.5 + 1e-10]), "eff", workdir / "y.json")
    emit_element(tied([0.0, 0.0], [0.0, 0.0, 0.625]), "eff", workdir / "atom.json")
    iso = random_direct_sum_iso(rng, profile, "eff", tau_kinds=("shear",))
    emit_iso(iso, workdir / "iso.json")
    emit_iso(motivating_iso(), workdir / "cube.json")


def test_json_reports_are_deterministic(workdir, capsys):
    _tied_documents(workdir)
    commands = [
        ["decompose", "cube.json", "--seed", "9"],
        ["family", "x.json"],
        ["join", "x.json", "y.json"],
        ["meet", "x.json", "y.json"],
        ["atoms", "atom.json"],
        ["apply-iso", "iso.json", "x.json"],
    ]
    for command in commands:
        argv = [str(workdir / a) if a.endswith(".json") else a for a in command] + ["--json"]
        assert main(argv) == 0, command
        first = capsys.readouterr().out
        assert json.loads(first)
        assert main(argv) == 0, command
        assert capsys.readouterr().out == first


def test_seed_from_environment(workdir, capsys, monkeypatch):
    emit_iso(motivating_iso(), workdir / "cube.json")
    monkeypatch.setenv("SPECLAT_SEED", "123")
    code, report = run_json(capsys, ["decompose", str(workdir / "cube.json")])
    assert report["seed"] == 123


def test_tolerance_overrides(workdir, capsys):
    write_diag(workdir / "x.json", [1.0, 2.0])
    write_diag(workdir / "y.json", [2.0, 3.0])
    code = main(
        ["order", str(workdir / "x.json"), str(workdir / "y.json"), "--tol-proj", "1e-12"]
    )
    capsys.readouterr()
    assert code == 0
    assert (
        main(["order", str(workdir / "x.json"), str(workdir / "y.json"), "--tol-proj", "-1.0"])
        == 2
    )
    capsys.readouterr()


def test_selftest_small(workdir, capsys):
    code, report = run_json(capsys, ["selftest", "--seed", "3", "--trials", "12"])
    assert code == 0
    assert all(v["pass"] for v in report["verdicts"])
