#!/usr/bin/env python3
"""Bench-regression gate for the hot-path benchmark.

Compares the freshly produced BENCH_hotpath.json against the committed
baseline and fails (exit 1) when a production engine's p50 bucket-update
latency regressed by more than the threshold. Two paths are gated:

  * the production engine ("handle": the staged apply with one
    participant, labelled "serial" in the output), always, and
  * the 4-participant engine ("parallel"), when both documents carry it
    AND report the same available_cores — it is bitwise-identical to the
    one-participant engine by contract, so its wall-clock is a function
    of the core count and cross-hardware comparisons would gate on the
    machine, not the code. At mismatched core counts the gate falls back
    to an IN-RUN overhead bound instead of going dark: the fresh run's
    parallel p50 may not exceed the fresh run's one-participant p50 by
    more than the threshold (a lock slipped into the topic stage or an
    accidentally serialized stage trips this on any hardware).

Additionally, when the fresh document carries a "telemetry" section, its
IN-RUN counters-on overhead is gated: the fresh run measures the same
one-participant engine with telemetry off and at kCounters back to back, and the
overhead may not exceed TELEMETRY_OVERHEAD_LIMIT (2%) on BOTH the p50
and the total-time estimator — a real per-bucket cost shifts median and
mean together, while a single estimator above the bound is run-to-run
drift. On a single available core the bound is not resolvable at all
(background tasks serialize with the measured feed; observed +-8%
scatter between runs with bit-identical work counters), so such runs
report the ratios without gating. This is the telemetry layer's core
cost contract, checked on the run's own hardware so it never depends on
a baseline.

When the fresh document carries a "subscriptions" section, the standing-
query sweep is gated in-run as well: every paper-scale sweep row with
>= 10k registered subscriptions must show the indexed path evaluating at
least SUBSCRIPTION_MIN_REDUCTION (10x) fewer queries than the naive
registered-times-rounds count, and the measured naive reference must
equal that analytic count exactly (it is exact by construction; a
mismatch means the naive baseline silently stopped being naive).

When the fresh document carries a "thread_sweep" section, the parallel-
maintenance SCALING floor is evaluated: 4-thread p50 must be at least
PARALLEL_MIN_SCALING (1.25x) faster than the same run's 1-thread p50.
The floor only FAILS the gate when --require-scaling is passed (the
multi-core CI job) AND the run saw >= PARALLEL_SCALING_MIN_CORES (4)
available cores — a single-core runner cannot exercise the parallel
stages at all, so it reports the ratio and skips cleanly.

Comparisons only make sense at matching scale; a scale mismatch is
reported and skipped (exit 0) so the gate never silently compares apples
to oranges.

Usage: check_bench_regression.py BASELINE.json FRESH.json [THRESHOLD]
           [--require-scaling]
  THRESHOLD is the allowed relative regression, default 0.15 (= +15%).
  --require-scaling turns the thread-sweep scaling floor into a hard
  failure (given enough cores) instead of a report.
"""

import json
import sys

# Allowed counters-on p50 overhead vs. telemetry off, measured in-run.
TELEMETRY_OVERHEAD_LIMIT = 0.02

# Minimum indexed-vs-naive evaluation reduction for standing-query sweep
# rows with at least SUBSCRIPTION_GATE_MIN_REGISTERED subscriptions. Only
# enforced at paper scale: smaller scales shrink the stream, not the topic
# space, so their rows are smoke coverage, not the claimed regime.
SUBSCRIPTION_MIN_REDUCTION = 10.0
SUBSCRIPTION_GATE_MIN_REGISTERED = 10000

# Parallel-maintenance scaling floor: 4-thread p50 vs. the same run's
# 1-thread p50, enforced only under --require-scaling on runners with at
# least PARALLEL_SCALING_MIN_CORES available cores.
PARALLEL_MIN_SCALING = 1.25
PARALLEL_SCALING_MIN_CORES = 4

SERIAL_ENGINE_KEY = "handle"
PARALLEL_ENGINE_KEY = "parallel"


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def serial_p50_of(doc, path):
    engines = doc.get("engines", {})
    if SERIAL_ENGINE_KEY not in engines:
        raise KeyError(f"{path}: no '{SERIAL_ENGINE_KEY}' engine in "
                       f"{sorted(engines)}")
    return engines[SERIAL_ENGINE_KEY]["bucket_update"]["p50_ms"]


def check_pair(label, base_p50, fresh_p50, threshold):
    """Returns False when this engine's p50 regressed past the threshold."""
    if base_p50 <= 0.0:
        print(f"SKIP [{label}]: baseline p50 is {base_p50}")
        return True
    ratio = fresh_p50 / base_p50
    print(f"[{label}] baseline p50 = {base_p50:.6f} ms, "
          f"fresh p50 = {fresh_p50:.6f} ms, "
          f"ratio = {ratio:.3f} (limit {1.0 + threshold:.2f})")
    if ratio > 1.0 + threshold:
        print(f"FAIL [{label}]: p50 bucket-update regressed by "
              f"{(ratio - 1.0) * 100.0:.1f}% (> {threshold * 100.0:.0f}%)")
        return False
    return True


def main(argv):
    require_scaling = "--require-scaling" in argv[1:]
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, fresh_path = args[0], args[1]
    threshold = float(args[2]) if len(args) > 2 else 0.15

    baseline = load(baseline_path)
    fresh = load(fresh_path)

    base_scale = baseline.get("scale")
    fresh_scale = fresh.get("scale")
    if base_scale != fresh_scale:
        print(f"SKIP: scale mismatch (baseline={base_scale}, "
              f"fresh={fresh_scale}); nothing comparable")
        return 0

    base_p50 = serial_p50_of(baseline, baseline_path)
    fresh_p50 = serial_p50_of(fresh, fresh_path)
    ok = check_pair(f"serial {SERIAL_ENGINE_KEY}", base_p50, fresh_p50,
                    threshold)

    base_parallel = baseline.get("engines", {}).get(PARALLEL_ENGINE_KEY)
    fresh_parallel = fresh.get("engines", {}).get(PARALLEL_ENGINE_KEY)
    if base_parallel is None or fresh_parallel is None:
        print("NOTE: parallel engine absent from one document; "
              "serial gate only")
    else:
        base_cores = baseline.get("available_cores")
        fresh_cores = fresh.get("available_cores")
        if base_cores != fresh_cores:
            print(f"NOTE: core-count mismatch (baseline={base_cores}, "
                  f"fresh={fresh_cores}); gating in-run parallel overhead "
                  f"instead of cross-run p50")
            ok = check_pair(
                "parallel-vs-serial in-run overhead", fresh_p50,
                fresh_parallel["bucket_update"]["p50_ms"], threshold) and ok
        else:
            ok = check_pair(
                "parallel", base_parallel["bucket_update"]["p50_ms"],
                fresh_parallel["bucket_update"]["p50_ms"], threshold) and ok

    sweep = {row.get("maintenance_threads"): row.get("p50_ms", 0.0)
             for row in fresh.get("thread_sweep", [])}
    if 1 in sweep and 4 in sweep and sweep[4] > 0.0:
        scaling = sweep[1] / sweep[4]
        cores = fresh.get("available_cores")
        print(f"[thread sweep] 1-thread p50 = {sweep[1]:.6f} ms, "
              f"4-thread p50 = {sweep[4]:.6f} ms: {scaling:.2f}x scaling "
              f"(floor {PARALLEL_MIN_SCALING:.2f}x on >= "
              f"{PARALLEL_SCALING_MIN_CORES} cores)")
        if not require_scaling:
            print("NOTE [thread sweep]: scaling floor reported only "
                  "(pass --require-scaling to enforce)")
        elif cores is None or cores < PARALLEL_SCALING_MIN_CORES:
            print(f"SKIP [thread sweep]: {cores} available core(s) cannot "
                  f"exercise 4-way parallel maintenance; floor not gated")
        elif scaling < PARALLEL_MIN_SCALING:
            print(f"FAIL [thread sweep]: 4-thread p50 only {scaling:.2f}x "
                  f"over 1-thread (< {PARALLEL_MIN_SCALING:.2f}x) on "
                  f"{cores} cores")
            ok = False
    elif require_scaling:
        print("FAIL [thread sweep]: --require-scaling passed but the "
              "fresh document lacks usable 1- and 4-thread sweep rows")
        ok = False
    else:
        print("NOTE: no usable thread_sweep in the fresh document; "
              "scaling not reported")

    telemetry = fresh.get("telemetry")
    if telemetry is None:
        print("NOTE: no telemetry section in the fresh document; "
              "overhead gate skipped")
    else:
        ratio = telemetry.get("overhead_p50_ratio", 0.0)
        total_ratio = telemetry.get("overhead_total_ratio", 0.0)
        off_p50 = telemetry.get("off", {}).get("p50_ms", 0.0)
        print(f"[telemetry overhead] counters-on/off p50 ratio = "
              f"{ratio:.4f}, total ratio = {total_ratio:.4f} "
              f"(limit {1.0 + TELEMETRY_OVERHEAD_LIMIT:.2f}, "
              f"off p50 = {off_p50:.6f} ms)")
        if off_p50 < 0.005:
            # Below ~5us the per-bucket timer resolution dominates the
            # ratio; a smoke-scale run cannot resolve a 2% bound.
            print("SKIP [telemetry overhead]: off p50 too small to "
                  "resolve the bound")
        elif fresh.get("available_cores") == 1:
            # On a single hardware thread every background task (kernel
            # housekeeping included) serializes with the measured feed:
            # observed best-of p50 ratios scatter +-8% between runs whose
            # work counters are bit-identical, so a 2% bound is not
            # resolvable. Reported, not gated (same hardware-awareness as
            # the parallel gate's core-count check above).
            print("SKIP [telemetry overhead]: 1 available core cannot "
                  "resolve a 2% bound (single-run drift >> limit)")
        elif (ratio > 1.0 + TELEMETRY_OVERHEAD_LIMIT and
              total_ratio > 1.0 + TELEMETRY_OVERHEAD_LIMIT):
            # A real per-bucket telemetry cost shifts the median AND the
            # mean together; when only one estimator exceeds the bound the
            # excursion is drift (on a shared single-core box the best-of
            # p50 ratio scatters +-8% between runs whose work counters are
            # bit-identical), so both must agree to fail.
            print(f"FAIL [telemetry overhead]: counters-on overhead "
                  f"p50 {(ratio - 1.0) * 100.0:.2f}% / total "
                  f"{(total_ratio - 1.0) * 100.0:.2f}% both exceed "
                  f"{TELEMETRY_OVERHEAD_LIMIT * 100.0:.0f}%")
            ok = False
        elif ratio > 1.0 + TELEMETRY_OVERHEAD_LIMIT or \
                total_ratio > 1.0 + TELEMETRY_OVERHEAD_LIMIT:
            print("NOTE [telemetry overhead]: one estimator above the "
                  "bound, the other within it — measurement drift, not "
                  "gated")

    subscriptions = fresh.get("subscriptions")
    if subscriptions is None:
        print("NOTE: no subscriptions section in the fresh document; "
              "standing-query gate skipped")
    else:
        naive = subscriptions.get("naive_reference", {})
        measured = naive.get("evaluations")
        expected = naive.get("expected_evaluations")
        if measured != expected:
            print(f"FAIL [subscriptions]: naive reference measured "
                  f"{measured} evaluations, expected registered x rounds "
                  f"= {expected}")
            ok = False
        gated_rows = 0
        for row in subscriptions.get("sweep", []):
            registered = row.get("registered", 0)
            reduction = row.get("eval_reduction", 0.0)
            gate = (fresh_scale == "paper" and
                    registered >= SUBSCRIPTION_GATE_MIN_REGISTERED)
            print(f"[subscriptions] {registered} registered: "
                  f"{row.get('evaluations')} evaluations vs "
                  f"{row.get('naive_evaluations')} naive "
                  f"({reduction:.1f}x fewer"
                  f"{', gated' if gate else ''})")
            if not gate:
                continue
            gated_rows += 1
            if reduction < SUBSCRIPTION_MIN_REDUCTION:
                print(f"FAIL [subscriptions]: {registered} registered "
                      f"reduced evaluations only {reduction:.1f}x "
                      f"(< {SUBSCRIPTION_MIN_REDUCTION:.0f}x)")
                ok = False
        if fresh_scale == "paper" and gated_rows == 0:
            print(f"FAIL [subscriptions]: paper-scale document has no "
                  f"sweep row with >= {SUBSCRIPTION_GATE_MIN_REGISTERED} "
                  f"registered subscriptions")
            ok = False

    if not ok:
        return 1
    print("OK: within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
