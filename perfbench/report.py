"""Print every benchmark metric, by name and unit, for each workload.

    python3 perfbench/report.py [--seed N] [WORKLOAD ...]

For each workload (default: all) it makes one untraced run and two traced
runs of ``run.py`` with the same seed, each ``run_seconds`` long.  It prints
the end-to-end metrics with their sample counts, the failed-invocation ratio,
the tracing overhead (traced pass time minus untraced pass time), whether
every per-layer count repeated exactly across the two traced runs, and each
per-layer metric with the end-to-end metric it should move on that workload,
or "flat" where it should not move (from ``layers.json``).
Exits 1 if any run is not correct or a count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        detail, result = run(workload, args.seed, spec["run_seconds"], 0)
        traced = [run(workload, args.seed, spec["run_seconds"], 1) for _ in range(2)]
        env = detail["environment"]
        print(f"== {workload}  seed {args.seed}, {detail['passes']} pass(es), python {env['python']}, "
              f"nproc {env['nproc']}, {env['cpu']}, commit {env['commit']}")
        samples = {"wall_s": detail["passes"], "query_p50_s": detail["query_samples"],
                   "setup_s": detail["setup_samples"], "peak_rss_mb": detail["query_samples"]}
        for name, metric in result["metrics"].items():
            print(f"  {name:<16} {metric['value']:>12.4f} {metric['unit']:<5} n={samples[name]}")
        p90 = detail["query_p90_s"]
        print(f"  {'query_p90_s':<16} " + (f"{p90:>12.4f} s     n={detail['query_samples']}" if p90 is not None
              else f"{'n/a':>12}       n={detail['query_samples']} < 100"))
        print(f"  {'failed_ratio':<16} {result['failed']}/{result['attempted']} untraced, "
              + ", ".join(f"{r['failed']}/{r['attempted']}" for _, r in traced) + " traced")
        overhead = traced[0][1]["metrics"]["trace.wall_s"]["value"] - result["metrics"]["wall_s"]["value"]
        counts = [{n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"} for _, r in traced]
        repeat = counts[0] == counts[1]
        print(f"  tracing overhead {overhead:+.3f} s; counts repeat across two traced runs: {repeat}")
        for name, metric in traced[0][1]["metrics"].items():
            where = layers[name]
            role = (f"moves {where['moves']}" if workload in where["on"]
                    else "flat" if workload in where["flat_on"] else "")
            print(f"    {name:<48} {metric['value']:>14.6g} {metric['unit']:<5} {role}")
        ok = ok and repeat and result["correct"] and all(r["correct"] for _, r in traced)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
