"""JSON document formats for elements and isomorphisms, plus the
machine-readable report emitted by the command line.

Complex entries are encoded as [re, im] pairs, row-major, at full double
precision; emit followed by parse is a bitwise round trip.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .directsum import BlockProfile, DirectSumElement
from .errors import SchemaError, SpeclatError
from .isos import DirectSumIso, FactorCanonicalIso, JordanIso, ProjectionIsomorphism
from .monotone import MonotoneBijection
from .order import CONES, check_cone
from .tolerances import DEFAULT_TOL, ToleranceConfig

SCHEMA_VERSION = "1"


def _is_number(v, kinds=(int, float)) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(v, kinds) and not isinstance(v, bool)


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_json(data, path: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{path}: expected a nonempty list of rows")
    n = len(data)
    out = np.zeros((n, len(data[0])), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != len(data[0]):
            raise SchemaError(f"{path}[{i}]: ragged row")
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(_is_number(v) for v in pair)
            ):
                raise SchemaError(f"{path}[{i}][{j}]: complex entries are [re, im] pairs")
            out[i, j] = complex(pair[0], pair[1])
    return out


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing field {key!r}")
    return doc[key]


def _check_version(doc: dict, where: str) -> None:
    version = _require(doc, "schema_version", where)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{where}: unsupported schema_version {version!r}")


def _profile_from_json(data, where: str) -> BlockProfile:
    if not isinstance(data, list) or not all(_is_number(d, int) and d > 0 for d in data):
        raise SchemaError(f"{where}: profile must be a list of positive integers")
    return BlockProfile(tuple(data))


def element_to_doc(x: DirectSumElement, cone: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "profile": list(x.profile.dims),
        "cone": cone,
        "blocks": [matrix_to_json(b) for b in x.blocks],
    }


def element_from_doc(
    doc: dict, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[DirectSumElement, str]:
    _check_version(doc, "element")
    profile = _profile_from_json(_require(doc, "profile", "element"), "element.profile")
    cone = _require(doc, "cone", "element")
    if cone not in CONES:
        raise SchemaError(f"element.cone: expected one of {CONES}, got {cone!r}")
    raw = _require(doc, "blocks", "element")
    if not isinstance(raw, list) or len(raw) != len(profile):
        raise SchemaError(
            f"element.blocks: expected {len(profile)} blocks for profile {profile.dims}"
        )
    blocks = []
    for j, (entry, d) in enumerate(zip(raw, profile.dims)):
        m = matrix_from_json(entry, f"element.blocks[{j}]")
        if m.shape != (d, d):
            raise SchemaError(
                f"element.blocks[{j}]: shape {m.shape} does not match profile entry {d}"
            )
        blocks.append(check_cone(m, cone, tol, name=f"element.blocks[{j}]"))
    return DirectSumElement(profile, blocks, validate=False), cone


def monotone_to_doc(f: MonotoneBijection) -> dict:
    if f.kind == "power":
        return {"kind": "power", "exponent": f.exponent}
    return {
        "kind": "pl",
        "knots": [float(v) for v in f.knots],
        "values": [float(v) for v in f.values],
        "left_slope": f.left_slope,
        "right_slope": f.right_slope,
    }


def monotone_from_doc(doc: dict, where: str) -> MonotoneBijection:
    kind = _require(doc, "kind", where)
    try:
        if kind == "power":
            return MonotoneBijection.power(float(_require(doc, "exponent", where)))
        if kind == "pl":
            return MonotoneBijection.piecewise_linear(
                _require(doc, "knots", where),
                _require(doc, "values", where),
                left_slope=doc.get("left_slope"),
                right_slope=doc.get("right_slope"),
            )
    except SpeclatError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    raise SchemaError(f"{where}.kind: expected 'pl' or 'power', got {kind!r}")


def _block_iso_to_doc(block: FactorCanonicalIso) -> dict:
    return {
        "f": monotone_to_doc(block.f),
        "tau": {"T": matrix_to_json(block.tau.T), "antilinear": block.tau.antilinear},
    }


def _block_iso_from_doc(doc: dict, cone: str, where: str) -> FactorCanonicalIso:
    f = monotone_from_doc(_require(doc, "f", where), f"{where}.f")
    try:
        if "jordan" in doc:
            spec = doc["jordan"]
            tau = JordanIso(
                matrix_from_json(_require(spec, "u", f"{where}.jordan"), f"{where}.jordan.u"),
                transpose=bool(spec.get("transpose", False)),
            )
            return FactorCanonicalIso(f, tau, cone)
        if "tau" in doc:
            spec = doc["tau"]
            tau = ProjectionIsomorphism(
                matrix_from_json(_require(spec, "T", f"{where}.tau"), f"{where}.tau.T"),
                antilinear=bool(spec.get("antilinear", False)),
            )
            return FactorCanonicalIso(f, tau, cone)
    except SpeclatError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    raise SchemaError(f"{where}: each block needs either 'tau' or 'jordan'")


def iso_to_doc(iso: DirectSumIso) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "domain_profile": list(iso.domain_profile.dims),
        "codomain_profile": list(iso.codomain_profile.dims),
        "cone": iso.cone,
        "pi": list(iso.pi),
        "blocks": [_block_iso_to_doc(b) for b in iso.blocks],
    }


def iso_from_doc(doc: dict, tol: ToleranceConfig = DEFAULT_TOL) -> DirectSumIso:
    _check_version(doc, "iso")
    dom = _profile_from_json(_require(doc, "domain_profile", "iso"), "iso.domain_profile")
    cod = _profile_from_json(_require(doc, "codomain_profile", "iso"), "iso.codomain_profile")
    cone = _require(doc, "cone", "iso")
    if cone not in CONES:
        raise SchemaError(f"iso.cone: expected one of {CONES}, got {cone!r}")
    pi = _require(doc, "pi", "iso")
    if not isinstance(pi, list) or not all(_is_number(k, int) for k in pi):
        raise SchemaError("iso.pi: expected a list of integers")
    raw = _require(doc, "blocks", "iso")
    if not isinstance(raw, list) or len(raw) != len(dom):
        raise SchemaError(f"iso.blocks: expected {len(dom)} blocks")
    blocks = tuple(
        _block_iso_from_doc(entry, cone, f"iso.blocks[{j}]") for j, entry in enumerate(raw)
    )
    try:
        return DirectSumIso(dom, cod, tuple(pi), blocks, cone)
    except SpeclatError as exc:
        raise SchemaError(f"iso: {exc}") from None


def load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    def refuse(literal: str):
        raise SchemaError(f"{path}: {literal} is not a finite number")

    try:
        doc = json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return doc


def parse_element(path, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[DirectSumElement, str]:
    return element_from_doc(load_json(path), tol)


def emit_element(x: DirectSumElement, cone: str, path) -> None:
    Path(path).write_text(json.dumps(element_to_doc(x, cone), indent=2) + "\n", encoding="utf-8")


def parse_iso(path, tol: ToleranceConfig = DEFAULT_TOL) -> DirectSumIso:
    return iso_from_doc(load_json(path), tol)


def emit_iso(iso: DirectSumIso, path) -> None:
    Path(path).write_text(json.dumps(iso_to_doc(iso), indent=2) + "\n", encoding="utf-8")


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Report:
    """Deterministic machine-readable outcome of one CLI command."""

    command: str
    seed: int
    inputs: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    result: dict | None = None

    def add_verdict(self, check: str, passed: bool, residual: float | None = None, detail: str = ""):
        entry = {"check": check, "pass": bool(passed)}
        if residual is not None:
            entry["residual"] = float(residual)
        if detail:
            entry["detail"] = detail
        self.verdicts.append(entry)

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "seed": self.seed,
            "inputs": self.inputs,
            "verdicts": self.verdicts,
            "witnesses": self.witnesses,
            "flags": self.flags,
        }
        if self.result is not None:
            out["result"] = self.result
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for name, digest in self.inputs.items():
            lines.append(f"input {name}: sha256 {digest[:16]}...")
        for v in self.verdicts:
            status = "pass" if v["pass"] else "FAIL"
            extra = f"  (residual {v['residual']:.3e})" if "residual" in v else ""
            detail = f"  {v['detail']}" if v.get("detail") else ""
            lines.append(f"[{status}] {v['check']}{extra}{detail}")
        for flag in self.flags:
            lines.append(f"flag: {flag}")
        for w in self.witnesses:
            lines.append(f"witness: {json.dumps(w, sort_keys=True, default=str)}")
        return "\n".join(lines)
