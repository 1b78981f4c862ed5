"""Benchmark command: one seeded workload in this single-threaded process.

    python3 perfbench/run.py --workload kms-check --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones (setup_s, jobs_per_s, job_p50_ms, peak_rss_mb); with
`--trace 1` they are the per-layer calls, self times, repeat shares and
power-iteration counts of the traced functions, and the spans are written
to perfbench/out/.  Lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness
from workloads import WORKLOADS

OUT = Path(__file__).resolve().parent / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    end_to_end, wall = result["metrics"], result["wall"]

    def fmt(value):
        return "n/a (under 40 jobs)" if value is None else f"{value:.4g}"

    print(f"{args.workload} seed={args.seed}: {result['jobs']} jobs in "
          f"{result['rounds']} rounds")
    print("  at the reference speed: " + ", ".join(
        f"{name}={fmt(end_to_end[name]['value'])}" for name in end_to_end)
          + f", job_tail_ms={fmt(result['job_tail_ms'])}")
    print("  wall clock:             " + ", ".join(
        f"{name}={fmt(value)}" for name, value in wall.items()))
    metrics = end_to_end
    if args.trace:
        tracer = result["tracer"]
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"trace-{args.workload}-{args.seed}.bin"
        tracer.write(spans)
        print(f"  {len(tracer.start)} spans written to {spans}")
        metrics = tracer.metrics()
    doc = {"correct": result["failed"] == 0, "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    saved = dict(doc, jobs=result["jobs"], rounds=result["rounds"],
                 end_to_end=end_to_end, job_tail_ms=result["job_tail_ms"],
                 wall=wall)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=1) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
