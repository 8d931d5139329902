"""The benchmark's workloads.

Each workload lists the request specs of one round, a fixed mix that every
seed shares; the seed draws the matrices, scalar maps, permutations and the
rotation of the round order. make_pool() draws a pool of rounds from the
seed (benchmark work, untimed), build() turns the pool into speclat objects
(program work, timed as set-up), execute() is one timed request and check()
compares its output with the construction.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import gen
from reference import EPS_RECON, Reference, block_diag, max_abs

CONES = gen.CONES


class Stats:
    """Worst residual per layer and the input properties of the requests
    attempted in a run."""

    def __init__(self):
        self.residual: dict[str, float] = {}
        self.order_tests = 0
        self.order_true = 0
        self.inputs = 0
        self.tied_inputs = 0
        self.merged_breakpoints: list[int] = []
        self.block_dims: Counter = Counter()

    def note(self, layer: str, value: float) -> bool:
        """Record a residual; True when it is within EPS_RECON."""
        self.residual[layer] = max(self.residual.get(layer, 0.0), float(value))
        return value <= EPS_RECON

    def properties(self) -> dict:
        return {
            "leq_true_share": self.order_true / self.order_tests if self.order_tests else None,
            "order_tests": self.order_tests,
            "tied_share": self.tied_inputs / self.inputs if self.inputs else None,
            "inputs": self.inputs,
            "block_dim_histogram": {str(d): c for d, c in sorted(self.block_dims.items())},
            "merged_breakpoints_mean": (
                float(np.mean(self.merged_breakpoints)) if self.merged_breakpoints else None
            ),
        }


class QueryLog:
    """Counts and times the queries recoveries make to the black-box
    oracles the benchmark hands them, by stage. Only active while traced."""

    def __init__(self):
        self.active = False
        self.stage = "other"
        self.queries: Counter = Counter()
        self.wait: Counter = Counter()

    def wrap(self, fn):
        def query(x):
            if not self.active:
                return fn(x)
            start = time.perf_counter()
            try:
                return fn(x)
            finally:
                self.wait[self.stage] += time.perf_counter() - start
                self.queries[self.stage] += 1
        return query

    def enter_sampling(self) -> None:
        # recoveries draw random elements only for their final verification,
        # so the first sampling call inside a fit starts that stage
        if self.stage == "fit":
            self.stage = "verify"


class Speclat:
    """The speclat modules the workloads call, looked up after a fresh
    import so that set-up can be repeated. `import speclat` loads all of
    them but io, which only the cli workload imports."""

    def __init__(self):
        for name in ("directsum", "isos", "monotone", "recover"):
            setattr(self, name, importlib.import_module(f"speclat.{name}"))


def make_pool(workload, rng) -> list[dict]:
    """`rounds` rounds of the workload's request mix, each in a seeded
    rotation of the bit-reversed cost order, with inputs drawn per request."""
    pool = []
    for _ in range(workload.rounds):
        specs = workload.round_specs()
        pool.extend(workload.make_request(rng, *specs[i]) for i in gen.round_order(len(specs), rng))
    return pool


def make_pair(rng, n: int, cone: str, kind: str) -> dict:
    if kind == "generic":
        return gen.generic_pair(rng, n, cone)
    return gen.tied_pair(rng, n, cone, comparable=(kind == "tied<="))


def build_iso(sl: Speclat, raw: dict):
    mono, isos, ds = sl.monotone.MonotoneBijection, sl.isos, sl.directsum
    blocks = []
    for spec in raw["blocks"]:
        f = spec["f"]
        fb = mono.piecewise_linear(f["knots"], f["values"], left_slope=f["left"], right_slope=f["right"])
        if spec["kind"] == "jordan":
            psi = isos.JordanIso(spec["u"], transpose=spec["transpose"])
            blocks.append(isos.FactorCanonicalIso.from_jordan(psi, fb, raw["cone"]))
        else:
            tau = isos.ProjectionIsomorphism(spec["T"])
            blocks.append(isos.FactorCanonicalIso(fb, tau, raw["cone"]))
    dims, pi = raw["dims"], raw["pi"]
    return isos.DirectSumIso(
        ds.BlockProfile(dims), ds.BlockProfile(tuple(dims[j] for j in pi)), pi, tuple(blocks),
        raw["cone"],
    )


def iso_image(raw: dict, element: list[dict], shift) -> list[np.ndarray]:
    """Reference image, by codomain slot, of the element whose blocks have
    the eigendata in `element`, plus the central shift when given."""
    out = []
    for k, j in enumerate(raw["pi"]):
        image = gen.apply_block_iso(raw["blocks"][j], element[j]["w"], element[j]["v"])
        if shift is not None:
            image = image + shift[k] * np.eye(image.shape[0])
        out.append(image)
    return out


class Lattice:
    """Shared request of `blocks` and `wide`: on one direct-sum pair (x, z),
    join, meet, x <= x v z (true by construction), x <= z, the families of
    x and its positive and negative parts."""

    def round_specs(self) -> list[tuple]:
        raise NotImplementedError

    def make_request(self, rng, dims, cone: str, kind: str) -> dict:
        dims = tuple(int(d) for d in rng.permutation(dims))
        pairs = [make_pair(rng, d, cone, kind) for d in dims]
        return {"dims": dims, "cone": cone, "pairs": pairs, "refs": [Reference(p) for p in pairs]}

    def build(self, sl: Speclat, pool: list[dict]) -> list:
        self.ds = ds = sl.directsum
        prepared = []
        for spec in pool:
            profile = ds.BlockProfile(spec["dims"])
            prepared.append((
                ds.DirectSumElement(profile, [p["x"] for p in spec["pairs"]]),
                ds.DirectSumElement(profile, [p["z"] for p in spec["pairs"]]),
                spec["cone"],
            ))
        return prepared

    def execute(self, prepared):
        ds = self.ds
        x, z, cone = prepared
        join = ds.ds_spec_join([x, z], cone)
        meet = ds.ds_spec_meet([x, z], cone)
        below_join = ds.ds_spec_leq(x, join)
        below_z = ds.ds_spec_leq(x, z)
        families = ds.ds_family(x)
        plus, minus = ds.ds_pos_neg_parts(x)
        return join, meet, below_join, below_z, families, plus, minus

    def record(self, spec: dict, stats: Stats) -> None:
        refs = spec["refs"]
        stats.order_tests += 2
        stats.order_true += 1 + int(all(r.leq_x_z() for r in refs))
        stats.inputs += 1
        stats.tied_inputs += int(any(r.tied_values() for r in refs))
        stats.merged_breakpoints.extend(r.merged_breakpoints() for r in refs)
        stats.block_dims.update(spec["dims"])

    def check(self, spec: dict, out, stats: Stats) -> list[str]:
        join, meet, below_join, below_z, families, plus, minus = out
        refs, bad = spec["refs"], []
        if below_join is not True:
            bad.append("x <= x v z did not hold")
        expected = all(r.leq_x_z() for r in refs)
        if below_z is not expected:
            bad.append(f"x <= z returned {below_z}, expected {expected}")
        for elem in (join, meet, plus, minus):
            if elem.profile.dims != spec["dims"]:
                bad.append(f"profile {elem.profile.dims} != {spec['dims']}")
                return bad
        order = max(
            max(r.join(j), r.meet(m), r.pos_neg(p, q))
            for r, j, m, p, q in zip(refs, join.blocks, meet.blocks, plus.blocks, minus.blocks)
        )
        if not stats.note("order", order):
            bad.append(f"order residual {order:.3e}")
        family = max(r.family(f.breakpoints, f.cumulative) for r, f in zip(refs, families))
        if not stats.note("family", family):
            bad.append(f"family residual {family:.3e}")
        assembled = 0.0
        for which, elem in (("join", join), ("meet", meet)):
            got = np.linalg.eigvalsh(block_diag(elem.blocks))
            want = np.sort(np.concatenate([r.spectrum(which) for r in refs]))
            assembled = max(assembled, max_abs(got - want))
        if not stats.note("directsum", assembled):
            bad.append(f"assembled residual {assembled:.3e}")
        return bad


class Blocks(Lattice):
    """Direct sums of 1-4 small blocks (dimension 2-6), all three cones,
    generic and tied pairs."""

    name = "blocks"
    rounds = 6
    warmup = 30

    # every dimension 2-6 appears equally often at each block count
    PROFILES = tuple(
        tuple(2 + (r + 2 * i) % 5 for i in range(k)) for k in range(1, 5) for r in range(5)
    )

    def round_specs(self):
        specs = [
            (dims, cone, kind)
            for dims in self.PROFILES for cone in CONES for kind in ("generic", "tied", "tied<=")
        ]
        return sorted(specs, key=lambda s: sum(s[0]))


class Wide(Lattice):
    """Single factors with n from 16 to 64, where the order algorithm rather
    than per-call overhead dominates."""

    name = "wide"
    rounds = 3
    warmup = 2
    # (requests, kind, first n, last n) in increasing cost, 37 a round so
    # that three rounds give the 110 requests a run needs. Cost grows about
    # as n^3.5, so the median and p90 are placed on plateaus of equal n
    # (32 and 56), where a request more or less below them barely moves
    # them; n = 64 keeps the top.
    SEGMENTS = (
        (9, "tied", 16, 64),
        (4, "generic", 16, 28),
        (11, "generic", 32, 32),
        (5, "generic", 36, 52),
        (6, "generic", 56, 56),
        (2, "generic", 64, 64),
    )

    def round_specs(self):
        specs = []
        for count, kind, first, last in self.SEGMENTS:
            for j in range(count):
                n = round(first + (last - first) * j / max(1, count - 1))
                kind_j = ("tied<=", "tied")[j % 2] if kind == "tied" else kind
                specs.append(((n,), CONES[len(specs) % 3], kind_j))
        return specs


class Recovery:
    """Construct-then-recover round trips: blockwise decompositions over the
    acceptance profiles, single effect-factor canonical recoveries and
    orthoisomorphism scans."""

    name = "recovery"
    rounds = 2
    warmup = 4
    PROFILES = ((2, 2), (2, 3), (3, 3), (2, 2, 3))
    N_VERIFY = 10        # DirectSumIsoDecomposer verification samples
    N_VERIFY_FACTOR = 20  # FactorCanonicalRecovery verification samples
    FRESH = 4            # fresh reassembly samples per request
    ORTHO_TRIALS = 10

    def round_specs(self) -> list[tuple]:
        # by increasing cost: a shear scan stops at its first witness, while
        # a Jordan scan runs every trial
        specs = [("ortho", (3,), "eff", "shear")] * 2
        specs += [
            ("decompose", dims, cone, kind)
            for dims in self.PROFILES for cone in CONES for kind in ("unitary", "shear", "jordan")
        ]
        specs += [("canonical", (2 + i % 2,), "eff", ("unitary", "shear")[i // 2 % 2]) for i in range(6)]
        return specs + [("ortho", (2, 3), "eff", "jordan")] * 2

    def make_request(self, rng, what: str, dims, cone: str, kind: str) -> dict:
        raw = gen.direct_sum_iso(rng, dims, cone, kind, fix_zero=(cone == "sa"))
        shift = rng.uniform(-2.0, 2.0, len(dims)) if what == "decompose" and cone == "sa" else None
        fresh = [
            [gen.generic_element(rng, d, cone) for d in dims] for _ in range(self.FRESH)
        ] if what != "ortho" else []
        return {
            "what": what, "kind": kind, "raw": raw, "shift": shift, "fresh": fresh,
            "state": int(rng.integers(2**32)),
        }

    def build(self, sl: Speclat, pool: list[dict]) -> list:
        self.sl, self.log = sl, QueryLog()
        ds, prepared = sl.directsum, []
        for spec in pool:
            raw = spec["raw"]
            iso = build_iso(sl, raw)
            inv = iso.inverse()
            shift = None
            if spec["shift"] is not None:
                shift = ds.DirectSumElement(
                    iso.codomain_profile,
                    [s * np.eye(d) for s, d in zip(spec["shift"], iso.codomain_profile.dims)],
                )

            def forward(x, iso=iso, shift=shift):
                y = iso.apply(x)
                return y + shift if shift is not None else y

            def inverse(y, inv=inv, shift=shift):
                return inv.apply(y - shift if shift is not None else y)

            oracle = sl.isos.OrderIsoOracle(
                iso.domain_profile, iso.codomain_profile, raw["cone"],
                self.log.wrap(forward), self.log.wrap(inverse),
            )
            fresh = [
                ds.DirectSumElement(iso.domain_profile, [b["m"] for b in element])
                for element in spec["fresh"]
            ]
            singles = [ds.BlockProfile((d,)) for d in raw["dims"]]
            prepared.append((spec["what"], oracle, fresh, singles, spec["state"]))
        return prepared

    def execute(self, prepared):
        what, oracle, fresh, singles, state = prepared
        rec, ds, log = self.sl.recover, self.sl.directsum, self.log
        if what == "ortho":
            log.stage = "ortho"
            return rec.is_orthoiso(oracle, trials=self.ORTHO_TRIALS, random_state=state)
        log.stage = "fit"
        if what == "canonical":
            fitted = rec.FactorCanonicalRecovery(
                n_verify=self.N_VERIFY_FACTOR, random_state=state
            ).fit(oracle)
            log.stage = "check"
            return fitted, [
                ([fitted.canonical_.apply(x.blocks[0])], oracle.forward(x)) for x in fresh
            ]
        fitted = rec.DirectSumIsoDecomposer(n_verify=self.N_VERIFY, random_state=state).fit(oracle)
        log.stage = "check"
        pairs = []
        for x in fresh:
            expected = oracle.forward(x)
            blocks = [
                fitted.block_oracles_[j].forward(
                    ds.DirectSumElement(singles[j], [x.blocks[j]])
                ).blocks[0]
                for j in fitted.permutation_
            ]
            rebuilt = ds.DirectSumElement(oracle.codomain_profile, blocks)
            if fitted.shift_ is not None:
                rebuilt = rebuilt + fitted.shift_
            pairs.append((rebuilt.blocks, expected))
        return fitted, pairs

    def record(self, spec: dict, stats: Stats) -> None:
        stats.inputs += 1
        stats.block_dims.update(spec["raw"]["dims"])

    def check(self, spec: dict, out, stats: Stats) -> list[str]:
        raw, bad = spec["raw"], []
        if spec["what"] == "ortho":
            expected = spec["kind"] == "jordan"
            if out.ok is not expected:
                bad.append(f"is_orthoiso returned {out.ok}, expected {expected}")
            return bad
        fitted, pairs = out
        recover = 0.0
        if spec["what"] == "canonical":
            f = fitted.scale_function_
            grid = np.linspace(0.0, 1.0, 33)
            recover = max_abs(np.interp(grid, f.knots, f.values) - gen.eval_map(raw["blocks"][0]["f"], grid))
        else:
            if fitted.permutation_ != raw["pi"]:
                bad.append(f"permutation {fitted.permutation_} != {raw['pi']}")
                return bad
            if spec["shift"] is not None:
                got = [float(np.real(np.trace(b))) / b.shape[0] for b in fitted.shift_.blocks]
                recover = max_abs(np.asarray(got) - spec["shift"])
            elif fitted.shift_ is not None:
                bad.append("shift recovered on a cone without one")
        recover = max(recover, fitted.max_residual_)
        isos = 0.0
        for (rebuilt, expected), element in zip(pairs, spec["fresh"]):
            recover = max(recover, max(max_abs(a - b) for a, b in zip(rebuilt, expected.blocks)))
            reference = iso_image(raw, element, spec["shift"])
            isos = max(isos, max(max_abs(a - b) for a, b in zip(expected.blocks, reference)))
        if not stats.note("recover", recover):
            bad.append(f"recovery residual {recover:.3e}")
        if not stats.note("isos", isos):
            bad.append(f"iso residual {isos:.3e}")
        return bad

    def trace_hooks(self) -> dict:
        return {"sampling": self.log.enter_sampling}


# the speclat console script, run as a child process
CONSOLE = "import sys; from speclat.cli import main; sys.exit(main())"


def decode_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


class Cli:
    """The speclat CLI run as child processes on generated documents."""

    name = "cli"
    rounds = 2
    warmup = 1
    PROFILES = ((2, 3), (2, 2, 3), (3, 3), (2, 2))
    DECOMPOSE_ARGS = ("--samples", "10", "--grid", "9")
    VERIFY_TRIALS = "10"

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.child = str(Path(__file__).resolve().with_name("cli_child.py"))
        self.traced = False
        self.mismatches = 0
        self.summaries: list[str] = []

    def round_specs(self) -> list[tuple]:
        # 22 requests a round, so five rounds give the 110 a run needs
        p, c = self.PROFILES, CONES
        specs = [("order", p[i % 4], c[i % 3], kind)
                 for i, kind in enumerate(("tied<=",) * 3 + ("generic",) * 3)]
        specs += [("order-mismatch", (2, 3), "sa", "generic")] * 2
        specs += [("join", p[i % 4], c[i % 3], kind)
                  for i, kind in enumerate(("generic",) * 3 + ("tied",) * 2)]
        specs += [("decompose", p[i], ("sa", "pos", "eff")[i], ("unitary", "shear")[i % 2])
                  for i in range(3)]
        specs += [("verify", (3,), "eff", "shear")] * 2
        # the scan of a Jordan map runs every trial, so these are the
        # costliest requests after selftest; p90 falls among them
        specs += [("verify", (2, 3), "eff", "jordan")] * 3
        specs.append(("selftest", (), "sa", ""))
        return specs

    def make_request(self, rng, what: str, dims, cone: str, kind: str) -> dict:
        spec = {"what": what, "dims": dims, "cone": cone, "kind": kind,
                "seed": int(rng.integers(2**31))}
        if what in ("order", "join"):
            spec["pairs"] = [make_pair(rng, d, cone, kind) for d in dims]
            spec["refs"] = [Reference(p) for p in spec["pairs"]]
        elif what == "order-mismatch":
            spec["x"] = [gen.generic_element(rng, d, cone)["m"] for d in dims]
            spec["y"] = [gen.generic_element(rng, d, cone)["m"] for d in dims[::-1]]
        elif what in ("decompose", "verify"):
            spec["raw"] = gen.direct_sum_iso(rng, dims, cone, kind, fix_zero=False)
        return spec

    def expected_exit(self, spec: dict) -> int:
        if spec["what"] == "order":
            return 0 if all(r.leq_x_z() for r in spec["refs"]) else 1
        if spec["what"] == "order-mismatch":
            return 2
        if spec["what"] == "verify":
            return 0 if spec["kind"] == "jordan" else 1
        return 0

    def build(self, sl: Speclat, pool: list[dict]) -> list:
        ds, io = sl.directsum, importlib.import_module("speclat.io")
        prepared = []
        for i, spec in enumerate(pool):
            def path(tag: str, i: int = i) -> str:
                return str(self.work / f"{i:04d}-{tag}.json")

            what, cone = spec["what"], spec["cone"]
            if what in ("order", "join", "order-mismatch"):
                if what == "order-mismatch":
                    xs, ys = spec["x"], spec["y"]
                else:
                    xs = [p["x"] for p in spec["pairs"]]
                    ys = [p["z"] for p in spec["pairs"]]
                for tag, blocks in (("x", xs), ("y", ys)):
                    profile = ds.BlockProfile(tuple(b.shape[0] for b in blocks))
                    io.emit_element(ds.DirectSumElement(profile, blocks), cone, path(tag))
                command = "order" if what.startswith("order") else "join"
                args = [command, path("x"), path("y")]
            elif what == "decompose":
                io.emit_iso(build_iso(sl, spec["raw"]), path("iso"))
                args = ["decompose", path("iso"), *self.DECOMPOSE_ARGS]
            elif what == "verify":
                io.emit_iso(build_iso(sl, spec["raw"]), path("iso"))
                args = ["verify-iso", path("iso"), "--ortho", "--trials", self.VERIFY_TRIALS]
            else:
                args = ["selftest", "--trials", "1"]
            prepared.append([*args, "--json", "--seed", str(spec["seed"])])
        return prepared

    def execute(self, args):
        summary = None
        if self.traced:
            summary = str(self.work / f"trace-{len(self.summaries)}.json")
            self.summaries.append(summary)
            command = [sys.executable, self.child, summary, *args]
        else:
            command = [sys.executable, "-c", CONSOLE, *args]
        proc = subprocess.run(
            command, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=30
        )
        return proc.returncode, proc.stdout, proc.stderr

    def record(self, spec: dict, stats: Stats) -> None:
        stats.inputs += 1
        stats.block_dims.update(spec["dims"])
        if spec["what"] == "order":
            stats.order_tests += 1
            stats.order_true += int(self.expected_exit(spec) == 0)
        if "refs" in spec:
            stats.tied_inputs += int(any(r.tied_values() for r in spec["refs"]))
            stats.merged_breakpoints.extend(r.merged_breakpoints() for r in spec["refs"])

    def check(self, spec: dict, out, stats: Stats) -> list[str]:
        code, stdout, stderr = out
        expected = self.expected_exit(spec)
        if code != expected:
            self.mismatches += 1
            return [f"{spec['what']} exited {code}, expected {expected}: {stderr.strip()[-200:]}"]
        if code == 2:
            return [] if stderr.startswith("error:") else ["exit 2 without an error message"]
        report = json.loads(stdout)
        passes = [v["pass"] for v in report["verdicts"]]
        if all(passes) is not (code == 0):
            return [f"verdicts {passes} disagree with exit code {code}"]
        what = spec["what"]
        if what == "join":
            blocks = [decode_matrix(b) for b in report["result"]["blocks"]]
            residual = max(r.join(b) for r, b in zip(spec["refs"], blocks))
            if len(blocks) != len(spec["refs"]) or not stats.note("order", residual):
                return [f"join residual {residual:.3e}"]
        elif what == "decompose":
            raw, result = spec["raw"], report["result"]
            if tuple(result["pi"]) != raw["pi"]:
                return [f"permutation {result['pi']} != {raw['pi']}"]
            if spec["cone"] == "sa":
                want = [float(gen.eval_map(raw["blocks"][j]["f"], 0.0)) for j in raw["pi"]]
                residual = max_abs(np.asarray(result["shift"]) - want)
                if not stats.note("recover", residual):
                    return [f"shift residual {residual:.3e}"]
            elif result["shift"] is not None:
                return ["shift reported on a cone without one"]
            if not stats.note("recover", max(result["block_residuals"])):
                return ["block residual above eps_recon"]
        return []

    def take_summaries(self) -> list[dict]:
        """Read and delete the trace summaries the traced children wrote."""
        parts = []
        for path in self.summaries:
            # a child that failed before writing one is already a failed request
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    parts.append(json.load(fh))
                os.remove(path)
        self.summaries.clear()
        return parts
