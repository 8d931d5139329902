"""Repeat the benchmark over seeds and summarise every metric.

Usage (from the root of a speclat checkout):

    python3 perfbench/baseline.py --runs 10 [--trace-runs 2] [--workloads blocks wide]
        [--out perfbench/baseline.json]

Runs perfbench/run.py once per seed, one run at a time, with run_seconds
from BENCHMARK.json. For each workload and metric it reports the median,
the quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median
and the values, and flags an end-to-end spread above a third of the
metric's bound. Traced runs give the per-layer medians and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: the result line, and the report lines before it
    with the run's wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=400, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    extra = {"wall_s": time.perf_counter() - start}
    for line in lines[:-1]:
        for key in ("env", "inputs", "residual_max"):
            if line.startswith(key + " "):
                extra[key] = json.loads(line[len(key) + 1:])
    return json.loads(lines[-1]), extra


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    out = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    steady = True
    for workload in names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results, extras = zip(*(run_once(workload, s, seconds, 0) for s in seeds))
        entry = {
            "seeds": list(seeds),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
            "inputs": [e["inputs"] for e in extras],
            "residual_max": [e["residual_max"] for e in extras],
            "wall_s": [e["wall_s"] for e in extras],
            "env": extras[0]["env"],
        }
        print(f"{workload}: attempted {entry['attempted']}, failed {sum(entry['failed'])}, "
              f"longest run {max(entry['wall_s']):.1f} s")
        for name in bounds:
            stat = summarise([r["metrics"][name]["value"] for r in results])
            stat["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stat
            flag = ""
            if stat["spread"] is not None and stat["spread"] > bounds[name] / 3:
                flag, steady = "  <-- above bound/3", False
            print(f"  {name:16s} median {stat['median']:.5g} {stat['unit']}  "
                  f"q1 {stat['q1']:.5g}  q3 {stat['q3']:.5g}  spread {stat['spread']:.3f} "
                  f"(bound {bounds[name]}){flag}")
        if args.trace_runs:
            seeds = range(args.first_seed, args.first_seed + args.trace_runs)
            traced = [run_once(workload, s, seconds, 1)[0] for s in seeds]
            entry["per_layer"] = {
                name: dict(summarise([t["metrics"][name]["value"] for t in traced]),
                           unit=traced[0]["metrics"][name]["unit"])
                for name in traced[0]["metrics"]
            }
            entry["per_layer_seeds"] = list(seeds)
            overhead = entry["per_layer"]["trace.overhead_ratio"]["median"]
            print(f"  traced runs {len(traced)}, median tracing overhead on p50 latency {overhead:.3f}")
        out["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady: some spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
