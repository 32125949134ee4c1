#!/usr/bin/env python3
"""Ungated ablation table: the end-to-end delta of each optimisation layer.

Usage (from the repository root):

    python3 e2ebench/ablate.py --workload tweet_ingest --seeds 1,2,3
    python3 e2ebench/ablate.py --workload citation_query --variants scalar

For every variant it runs the base program and the variant alternately on
each seed (base first on odd pairs, variant first on even ones) and prints
the median of every end-to-end metric, and of the wall-clock figures from
the run's "# wall:" line, and the variant's change against the base. The
gated metrics are CPU time, so a variant that spreads work over threads
(threads_4) shows its gain only in the wall figures. Variants: no_handles (EngineConfig::carry_handles = false),
batch_min_0 (reposition_batch_min = 0), threads_4 (maintenance_threads =
4), recompute (ScoreMaintenance::kRecompute), scalar (kernels pinned to the
scalar arm via SetForceScalar). These are diagnostics, not gates.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VARIANTS = ["no_handles", "batch_min_0", "threads_4", "recompute", "scalar"]


def measure(workload, seed, seconds, variant):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--variant", variant],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (%s, seed %s):\n%s"
                 % (variant, seed, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:
        if line.startswith("# wall:"):
            for field in line.split()[2:]:
                name, value = field.split("=")
                metrics["wall " + name] = float(value)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--variants", default=",".join(VARIANTS))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["end_to_end"]

    for variant in args.variants.split(","):
        base_runs, variant_runs = [], []
        for i, seed in enumerate(seeds):
            order = [("base", base_runs), (variant, variant_runs)]
            if i % 2 == 1:
                order.reverse()
            for name, runs in order:
                runs.append(measure(args.workload, seed, args.seconds, name))
        print("\n%s on %s (%d seeds, %g s each; median, change vs base)"
              % (variant, args.workload, len(seeds), args.seconds))
        rows = [(m["name"], m["better"]) for m in declared]
        rows += [(name, "higher" if "per_s" in name else "lower")
                 for name in sorted(base_runs[0]) if name.startswith("wall ")]
        for name, better in rows:
            base = statistics.median(r[name] for r in base_runs)
            var = statistics.median(r[name] for r in variant_runs)
            change = 100.0 * (var / base - 1.0) if base else float("nan")
            print("  %-26s base %12.5g  %-11s %12.5g  %+7.1f%%  (%s is better)"
                  % (name, base, variant, var, change, better))


if __name__ == "__main__":
    main()
