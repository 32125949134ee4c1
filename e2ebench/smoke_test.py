#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark (a few seconds per workload).

Usage (from the repository root):

    python3 e2ebench/smoke_test.py

Runs every workload named in BENCHMARK.json at smoke size, untraced and
traced, and checks the result line against the declared metrics: exact key
set, names, units, finite values, non-zero end-to-end values, correct=true
and no failed operation. Also checks that the traced run writes a parseable
Chrome trace, that an unknown workload fails, and that a copy holding only
BENCHMARK.json and the benchmark directory fails without printing a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_result(result, declared, workload, trace):
    where = "%s trace=%s" % (workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int), where
    assert result["attempted"] >= 1, where
    assert result["failed"] == 0, where
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, (
        where, sorted(set(got) ^ {m["name"] for m in declared}))
    for m in declared:
        value = got[m["name"]]
        assert set(value) == {"value", "unit"}, (where, m["name"])
        assert value["unit"] == m["unit"], (where, m["name"], value["unit"])
        assert isinstance(value["value"], (int, float)), (where, m["name"])
        assert math.isfinite(value["value"]), (where, m["name"])
        if trace == "0":
            assert value["value"] > 0, (where, m["name"], "is 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, declared in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
            proc = run(["--workload", workload, "--seed", "3",
                        "--seconds", "1", "--trace", trace, "--smoke"])
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            check_result(last_json(proc.stdout), declared, workload, trace)
            if trace == "1":
                trace_line = [l for l in proc.stdout.splitlines()
                              if l.startswith("# chrome trace: ")]
                assert trace_line, workload
                path = trace_line[0].split(": ", 1)[1].split(" (")[0]
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                assert events and all(e["ph"] == "X" for e in events), workload
            print("ok  %-16s trace=%s" % (workload, trace), flush=True)

    proc = run(["--workload", "no_such_workload", "--seed", "1",
                "--seconds", "1", "--trace", "0"])
    assert proc.returncode != 0 and not proc.stdout.strip(), "unknown workload"
    print("ok  unknown workload fails")

    # A copy with only the benchmark's own files must fail fast.
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(ROOT, build, "bare_checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)))
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
         "--workload", bench["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), "bare checkout"
    print("ok  bare checkout fails without a result")
    print("smoke test passed")


if __name__ == "__main__":
    main()
