"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads kms-check beta-float --seeds 1-10

Runs `run.py` once per (workload, seed), one process after another, and
prints for each end-to-end metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile distance as
a share of the median.  With `--traced` it also makes one traced run per
workload on the first seed and reports the tracing overhead: the fall in
jobs_per_s from the untraced median.  The summary is written to
perfbench/out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = HERE / "out" / f"result-{workload}-{seed}-trace{trace}.json"
    saved = json.loads(saved.read_text())
    result["jobs_per_s"] = saved["end_to_end"]["jobs_per_s"]["value"]
    result["wall"] = saved["wall"]
    return result


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    out = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        entry = {"seconds": seconds,
                 "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
                 "metrics": {name: summary([r["metrics"][name]["value"] for r in runs])
                             for name in runs[0]["metrics"]},
                 "wall": {name: summary([r["wall"][name] for r in runs])
                          for name in ("setup_s", "jobs_per_s", "job_p50_ms")}}
        if args.traced:
            traced = run_once(workload, seeds_of(args.seeds)[0], seconds, 1)
            untraced = entry["metrics"]["jobs_per_s"]["median"]
            entry["traced_jobs_per_s"] = traced["jobs_per_s"]
            entry["tracing_overhead"] = 1 - traced["jobs_per_s"] / untraced
        out[workload] = entry
        for name, s in list(entry["metrics"].items()) + [
                ("wall " + k, v) for k, v in entry["wall"].items()]:
            print(f"{workload:14s} {name:12s} median {s['median']:.5g}  "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.2%}")
        if args.traced:
            print(f"{workload:14s} tracing overhead {entry['tracing_overhead']:.1%} "
                  f"(traced jobs_per_s {entry['traced_jobs_per_s']:.4g})")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
