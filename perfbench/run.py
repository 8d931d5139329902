"""Closed-loop benchmark of speclat.

Usage (from the root of a speclat checkout):

    python3 perfbench/run.py --workload blocks --seed 1 --seconds 15 --trace 0

One client drives the library from this process (the `cli` workload:
through child processes) and sends each request when the previous one has
finished. Inputs come from the seed and are made before anything is timed;
every output is checked against the construction. The last line of stdout
is one JSON object: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer metrics of a run that sends each request twice, traced and
untraced. The lines before it are a readable report, the environment
record and the input properties.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# BLAS runs single-threaded here and in every child process: at n <= 64 a
# second OpenBLAS thread was not faster on a 2-core host, only noisier.
# The variables must be set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("blocks", "wide", "recovery", "cli")
# The host's speed drifts: it switches between two speeds about 1.5 times
# apart every few seconds to minutes. So set-up is timed a few times before
# the timed loop and again every SETUP_EVERY seconds between its requests,
# and the median of all of them reflects the whole run, not its first second.
SETUP_BEFORE = 3
SETUP_EVERY = 0.75
# p90 needs at least ten samples beyond it, so a run goes on past --seconds
# until this many requests have completed, and then to the end of the round
MIN_REQUESTS = 110
# a hard stop that keeps a run well inside 180 s
MAX_LOOP_SECONDS = 100.0

END_TO_END_UNITS = {
    "requests_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}
RESIDUAL_LAYERS = ("family", "order", "directsum", "isos", "recover")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def fresh_speclat() -> workloads.Speclat:
    """Import speclat from scratch, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "speclat" or m.startswith("speclat.")]:
        del sys.modules[name]
    importlib.import_module("speclat")
    return workloads.Speclat()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():  # a plain checkout has no commit
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment(root: Path, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "speclat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def make_workload(name: str, root: Path, work: Path | None):
    if name == "blocks":
        return workloads.Blocks()
    if name == "wide":
        return workloads.Wide()
    if name == "recovery":
        return workloads.Recovery()
    return workloads.Cli(root, work)


def layer_metrics(wl, summary: dict, traced: int, stats, overhead: float) -> dict:
    """Per-layer metrics of the traced requests; counts and times are per
    traced request unless the name says otherwise."""
    counters, durations = summary["counters"], summary["durations"]

    def mean(key: str) -> float:
        value, count = counters.get(key, (0.0, 0))
        return value / count if count else 0.0

    def p50_ms(*names: str) -> float:
        values = sorted(v for n in names for v in durations.get(n, ()))
        return statistics.median(values) * 1e3 if values else 0.0

    out = {}
    for layer in spans.LAYERS:
        calls, busy = summary["layers"].get(layer, (0, 0.0))
        out[f"{layer}.calls"] = (calls / traced, "count/req")
        out[f"{layer}.self_s"] = (busy / traced, "s/req")
    for layer in RESIDUAL_LAYERS:
        out[f"{layer}.residual_max"] = (stats.residual.get(layer, 0.0), "1")
    out["family.breakpoints_mean"] = (mean("family.breakpoints"), "count")
    for op in ("spec_leq", "spec_join", "spec_meet"):
        out[f"order.{op}.p50_ms"] = (p50_ms(f"order.{op}"), "ms")
    out["order.leq_true_share"] = (mean("order.leq_true"), "1")
    out["order.merged_breakpoints_mean"] = (mean("order.merged_breakpoints"), "count")
    out["directsum.blocks_per_call"] = (mean("directsum.blocks"), "count")
    out["isos.apply_calls"] = (counters.get("isos.apply_calls", (0.0, 0))[0] / traced, "count/req")
    out["isos.apply.p50_ms"] = (p50_ms("isos.FactorCanonicalIso.apply"), "ms")
    fit_names = ("recover.DirectSumIsoDecomposer.fit", "recover.FactorCanonicalRecovery.fit")
    fits = sum(len(durations.get(n, ())) for n in fit_names)
    log = getattr(wl, "log", None)
    queries = (log.queries["fit"] + log.queries["verify"]) if log else 0
    wait = (log.wait["fit"] + log.wait["verify"]) if log else 0.0
    out["recover.fits"] = (fits / traced, "count/req")
    out["recover.fit_success_ratio"] = (counters.get("recover.fit_ok", (0, 0))[1] / fits if fits else 0.0, "1")
    out["recover.oracle_queries"] = (queries / fits if fits else 0.0, "count/fit")
    out["recover.oracle_wait_s"] = (wait / fits if fits else 0.0, "s/fit")
    out["recover.verify_query_share"] = ((log.queries["verify"] / queries) if queries else 0.0, "1")
    out["recover.fit.p50_ms"] = (p50_ms(*fit_names), "ms")
    out["io.bytes_read"] = (counters.get("io.bytes_read", (0.0, 0))[0] / traced, "B/req")
    out["io.bytes_written"] = (counters.get("io.bytes_written", (0.0, 0))[0] / traced, "B/req")
    out["cli.import_s"] = (mean("cli.import_s"), "s")
    out["cli.run_command_s"] = (mean("cli.run_command_s"), "s")
    out["cli.exit_code_mismatches"] = (getattr(wl, "mismatches", 0), "count")
    out["trace.overhead_ratio"] = (overhead, "1")
    return out


def time_setups(wl, pool, count: int, times: list[float]):
    """Set up `count` times from a fresh import; the last set-up's requests."""
    prepared = None
    for _ in range(count):
        gc.collect()  # the previous set-up's garbage is not this one's work
        start = time.perf_counter()
        sl = fresh_speclat()
        prepared = wl.build(sl, pool)
        times.append(time.perf_counter() - start)
    return prepared


def run(args, root: Path, work: Path | None) -> dict:
    env = environment(root, args.seed)
    wl = make_workload(args.workload, root, work)
    pool = workloads.make_pool(wl, np.random.default_rng(args.seed))

    rss_before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times: list[float] = []
    # a traced run reports no set-up time, so it sets up once
    prepared = time_setups(wl, pool, 1 if args.trace else SETUP_BEFORE, setup_times)
    loaded = Path(sys.modules["speclat"].__file__).resolve()
    if not loaded.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"speclat was imported from {loaded}, not from this checkout")

    # the timed loop starts again at the first request and stops only at
    # the end of a round, so every run measures the same request mix
    for i in range(wl.warmup):
        wl.execute(prepared[i % len(pool)])
    round_len = len(pool) // wl.rounds

    tracer = None
    if args.trace:
        hooks = wl.trace_hooks() if hasattr(wl, "trace_hooks") else {}
        tracer = spans.Tracer(on_enter=hooks)

    def set_tracing(on: bool) -> None:
        if isinstance(wl, workloads.Cli):
            wl.traced = on
        elif on:
            tracer.install()
        else:
            tracer.uninstall()
        if getattr(wl, "log", None) is not None:
            wl.log.active = on

    stats = workloads.Stats()
    failures = []

    def attempt(i: int, k: int) -> tuple[bool, float]:
        """Run and check request k of the pool; (failed, latency)."""
        t0 = time.perf_counter()
        try:
            out = wl.execute(prepared[k])
            error = None
        except Exception as exc:  # a raising request is a failed request
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if error is None:
            try:
                problems = wl.check(pool[k], out, stats)
            except Exception as exc:  # a malformed output is a failed request
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if problems and len(failures) < 5:
            failures.append(f"request {i}: {'; '.join(problems)}")
        return bool(problems), latency

    # p90 needs MIN_REQUESTS; a traced run reports no percentile of its
    # own and needs only one whole round
    min_requests = round_len if tracer else MIN_REQUESTS
    samples = []  # (failed, latency, traced)
    pairs = []  # (traced latency, untraced latency) of one request
    i = 0
    start = time.perf_counter()
    next_setup = start + SETUP_EVERY
    while True:
        now = time.perf_counter()
        elapsed = now - start
        if elapsed >= MAX_LOOP_SECONDS or (
            i % round_len == 0 and elapsed >= args.seconds and i >= min_requests
        ):
            break
        k = i % len(pool)
        if tracer is None:
            if now >= next_setup:
                # the requests go on with the objects of the new set-up
                prepared = time_setups(wl, pool, 1, setup_times)
                next_setup = time.perf_counter() + SETUP_EVERY
            samples.append((*attempt(i, k), False))
        else:
            # a traced run sends each request twice back to back, traced and
            # untraced in alternating order, so that the ratio of the two
            # latencies is free of the host's drift
            tracer.request_id = i
            pair = {}
            for on in ((True, False) if i % 2 == 0 else (False, True)):
                set_tracing(on)
                bad, latency = attempt(i, k)
                samples.append((bad, latency, on))
                pair[on] = None if bad else latency
            set_tracing(False)
            if None not in pair.values():
                pairs.append((pair[True], pair[False]))
        wl.record(pool[k], stats)
        i += 1

    def end_to_end(rows) -> dict:
        if not rows:  # a traced run cut off by MAX_LOOP_SECONDS in its first round
            return {"requests_per_s": 0.0, "latency_p50_ms": 0.0, "latency_p90_ms": 0.0, "samples": 0}
        # a failed request misses every latency limit: it ranks beyond every
        # successful one and counts with the run's longest latency
        worst = max(lat for _, lat, _ in rows)
        ranked = [worst if bad else lat for bad, lat in sorted((bad, lat) for bad, lat, _ in rows)]
        ok = sum(1 for bad, _, _ in rows if not bad)
        return {
            "requests_per_s": ok / sum(lat for _, lat, _ in rows),
            "latency_p50_ms": percentile(ranked, 0.5) * 1e3,
            "latency_p90_ms": percentile(ranked, 0.9) * 1e3,
            "samples": len(rows),
        }

    failed = sum(1 for bad, _, _ in samples if bad)
    report = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "attempted": len(samples), "failed": failed,
        "failure_ratio": failed / len(samples), "failures": failures,
        "env": env, "inputs": stats.properties(), "residual_max": stats.residual,
    }
    if tracer is None:
        who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.Cli) else resource.RUSAGE_SELF
        e2e = end_to_end(samples)
        e2e["setup_s"] = statistics.median(setup_times)
        e2e["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        report["metrics"] = {k: (e2e[k], u) for k, u in END_TO_END_UNITS.items()}
        report["samples"] = e2e["samples"]
        report["setup_samples"] = len(setup_times)
        report["rss_before_setup_mb"] = rss_before_mb
        return report
    traced = end_to_end([s for s in samples if s[2]])
    plain = end_to_end([s for s in samples if not s[2]])
    overhead = statistics.median(t / u for t, u in pairs) - 1.0 if pairs else 0.0
    if isinstance(wl, workloads.Cli):
        summary = spans.empty_summary()
        for part in wl.take_summaries():
            spans.merge(summary, part)
    else:
        summary = tracer.summary()
    report["traced"], report["untraced"], report["pairs"] = traced, plain, len(pairs)
    report["metrics"] = layer_metrics(wl, summary, traced["samples"], stats, overhead)
    return report


def print_report(report: dict) -> None:
    print(f"speclat benchmark: workload {report['workload']}, {report['seconds']} s, "
          f"trace {report['trace']}, one closed-loop client")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:34s} {value:.6g} {unit}")
    if report["trace"]:
        for side in ("traced", "untraced"):
            e = report[side]
            print(f"  {side}: {e['requests_per_s']:.6g} 1/s, p50 {e['latency_p50_ms']:.6g} ms, "
                  f"p90 {e['latency_p90_ms']:.6g} ms over {e['samples']} requests")
        print(f"  trace.overhead_ratio is the median over {report['pairs']} request pairs")
    else:
        print(f"  latency samples {report['samples']}, set-up samples {report['setup_samples']}, "
              f"this process's peak RSS before set-up {report['rss_before_setup_mb']:.6g} MB")
    print(f"  failure_ratio {report['failure_ratio']:.6g} "
          f"({report['failed']} of {report['attempted']} requests)")
    for line in report["failures"]:
        print(f"  failure: {line}")
    print("env " + json.dumps(report["env"]))
    print("inputs " + json.dumps(report["inputs"]))
    print("residual_max " + json.dumps(report["residual_max"]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "speclat" / "__init__.py").is_file():
        print("error: run from the root of a speclat checkout (src/speclat is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    work = None
    if args.workload == "cli":
        (root / ".perfbench").mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
    try:
        report = run(args, root, work)
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
    print_report(report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
