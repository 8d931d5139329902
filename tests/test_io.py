import json

import numpy as np
import pytest

from speclat.directsum import BlockProfile, DirectSumElement
from speclat.errors import ConeError, NonHermitianError, SchemaError
from speclat.io import (
    element_from_doc,
    element_to_doc,
    emit_element,
    emit_iso,
    iso_from_doc,
    iso_to_doc,
    matrix_from_json,
    matrix_to_json,
    parse_element,
    parse_iso,
)
from speclat.sampling import random_direct_sum_iso, random_ds_element, random_unitary
from speclat.validation import check_hermitian, max_abs


def test_matrix_json_round_trip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(matrix_to_json(m), "m")
    assert np.array_equal(m, back)


def test_element_round_trip_bitwise(rng, tmp_path):
    profile = BlockProfile((2, 3))
    for cone in ("sa", "pos", "eff"):
        x = random_ds_element(rng, profile, cone)
        path = tmp_path / f"{cone}.json"
        emit_element(x, cone, path)
        back, back_cone = parse_element(path)
        assert back_cone == cone
        assert all(np.array_equal(a, b) for a, b in zip(x.blocks, back.blocks))


def test_element_doc_rejects_non_hermitian():
    doc = element_to_doc(
        DirectSumElement(BlockProfile((2,)), [np.eye(2)]), "sa"
    )
    doc["blocks"][0][0][1] = [5.0, 0.0]  # break symmetry in block 0
    with pytest.raises(NonHermitianError, match=r"blocks\[0\]"):
        element_from_doc(doc)


def test_element_doc_rejects_cone_violation():
    x = DirectSumElement(BlockProfile((2,)), [np.diag([1.2, 0.5])])
    doc = element_to_doc(x, "eff")
    with pytest.raises(ConeError, match="1.2"):
        element_from_doc(doc)


def test_element_doc_shape_mismatch():
    x = DirectSumElement(BlockProfile((2,)), [np.eye(2)])
    doc = element_to_doc(x, "sa")
    doc["profile"] = [3]
    with pytest.raises(SchemaError, match="blocks"):
        element_from_doc(doc)


def test_element_doc_schema_errors():
    with pytest.raises(SchemaError, match="schema_version"):
        element_from_doc({"profile": [2], "cone": "sa", "blocks": []})
    with pytest.raises(SchemaError, match="cone"):
        element_from_doc(
            {"schema_version": "1", "profile": [1], "cone": "weird", "blocks": [[[[0.0, 0.0]]]]}
        )


def test_iso_round_trip(rng, tmp_path):
    for cone, jordan in (("eff", False), ("sa", True), ("pos", False)):
        iso = random_direct_sum_iso(rng, BlockProfile((2, 2)), cone, jordan=jordan)
        path = tmp_path / f"iso-{cone}.json"
        emit_iso(iso, path)
        assert all("tau" in b and "jordan" not in b for b in json.loads(path.read_text())["blocks"])
        back = parse_iso(path)
        assert back.pi == iso.pi
        assert back.cone == iso.cone
        x = random_ds_element(rng, BlockProfile((2, 2)), cone)
        ya, yb = iso.apply(x), back.apply(x)
        assert all(max_abs(a - b) <= 1e-10 for a, b in zip(ya.blocks, yb.blocks))


def test_jordan_block_reads_as_its_tau_form(rng):
    """emit_iso writes tau blocks only; a hand-written jordan block still
    parses, to tau = (u, antilinear = transpose) bit for bit, and a
    non-unitary u is a schema error."""
    u = random_unitary(rng, 2)
    f = {"kind": "power", "exponent": 3.0}

    def doc(block):
        return {
            "schema_version": "1",
            "domain_profile": [2],
            "codomain_profile": [2],
            "cone": "sa",
            "pi": [0],
            "blocks": [block],
        }

    for transpose in (False, True):
        jordan = iso_from_doc(doc({"f": f, "jordan": {"u": matrix_to_json(u), "transpose": transpose}}))
        tau = iso_from_doc(doc({"f": f, "tau": {"T": matrix_to_json(u), "antilinear": transpose}}))
        assert np.array_equal(jordan.blocks[0].tau.T, u)
        assert np.array_equal(jordan.blocks[0].tau.T, tau.blocks[0].tau.T)
        assert jordan.blocks[0].tau.antilinear is transpose
        assert iso_to_doc(jordan) == iso_to_doc(tau)
    shear = matrix_to_json(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(SchemaError, match="not unitary"):
        iso_from_doc(doc({"f": f, "jordan": {"u": shear, "transpose": False}}))


def test_iso_doc_power_kind():
    from speclat.selftest import motivating_iso

    doc = iso_to_doc(motivating_iso())
    assert doc["blocks"][1]["f"] == {"kind": "power", "exponent": 3.0}
    back = iso_from_doc(doc)
    assert back.blocks[1].f.exponent == 3.0


def test_iso_doc_validation():
    from speclat.selftest import motivating_iso

    doc = iso_to_doc(motivating_iso())
    bad = json.loads(json.dumps(doc))
    bad["pi"] = [0, 0]
    with pytest.raises(SchemaError):
        iso_from_doc(bad)
    bad = json.loads(json.dumps(doc))
    bad["blocks"][0].pop("tau")
    with pytest.raises(SchemaError, match="tau"):
        iso_from_doc(bad)


def test_malformed_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="malformed"):
        parse_element(path)
    with pytest.raises(SchemaError, match="cannot read"):
        parse_element(tmp_path / "missing.json")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_literal_is_refused(tmp_path, literal):
    path = tmp_path / "x.json"
    doc = element_to_doc(DirectSumElement(BlockProfile((1,)), [np.eye(1)]), "sa")
    path.write_text(json.dumps(doc).replace("1.0", literal, 1), encoding="utf-8")
    with pytest.raises(SchemaError, match=literal):
        parse_element(path)


def test_boolean_matrix_entry_is_refused():
    with pytest.raises(SchemaError, match=r"m\[0\]\[0\]"):
        matrix_from_json([[[True, 0.0]]], "m")
    with pytest.raises(SchemaError, match=r"m\[0\]\[1\]"):
        matrix_from_json([[[1.0, 0.0], [0.0, False]], [[0.0, 0.0], [1.0, 0.0]]], "m")


def test_boolean_profile_dimension_is_refused():
    doc = element_to_doc(DirectSumElement(BlockProfile((1,)), [np.eye(1)]), "sa")
    doc["profile"] = [True]
    with pytest.raises(SchemaError, match="profile"):
        element_from_doc(doc)


def test_boolean_pi_entry_is_refused():
    from speclat.selftest import motivating_iso

    doc = iso_to_doc(motivating_iso())
    assert doc["pi"] == [0, 1]
    doc["pi"] = [False, True]
    with pytest.raises(SchemaError, match="pi"):
        iso_from_doc(doc)


@pytest.mark.parametrize("cone, solves_per_block", [("sa", 0), ("pos", 1), ("eff", 1)])
def test_element_doc_validates_each_block_once(rng, count_calls, cone, solves_per_block):
    doc = element_to_doc(random_ds_element(rng, BlockProfile((2, 3)), cone), cone)
    hermitian = count_calls(check_hermitian)
    spectra = count_calls(np.linalg.eigvalsh)
    solves = count_calls(np.linalg.eigh)
    x, _ = element_from_doc(doc)
    assert len(hermitian) == 2
    # the cone is read from eigh's memoized eigensystem, not a second solver
    assert len(solves) == 2 * solves_per_block
    assert spectra == []
    # the blocks kept are check_hermitian's symmetrized output
    assert all(np.array_equal(b, b.conj().T) for b in x.blocks)
