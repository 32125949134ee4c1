// Ingestion/query hot-path benchmark: the staged maintenance apply with 4
// participants vs. the same apply with one participant (the production
// default) vs. the same pipeline fed by the from-scratch score source, on
// a reposition-heavy stream — plus a maintenance-thread sweep (1/2/4/8
// participants) and sharded-ingestion scenarios with the balance-aware
// routing cap off and on. The JSON records available_cores: the apply is
// bitwise-identical at every participant count by contract, so on a
// single-core container the 4-participant engine can only show its
// overhead — wall-clock speedup needs cores.
//
// The workload is deliberately hub-heavy (high mean out-references, strong
// preferential attachment, flat recency decay) so that most of Algorithm 1's
// work is repositioning already-indexed elements whose referrer sets
// changed — exactly the case the score decomposition and the carried
// position handles accelerate. All engines ingest the identical generated
// stream bucket by bucket; per-bucket wall times and end-of-stream
// MTTS/MTTD/CELF query latencies are measured, and every engine's query
// results are required to match (same ids, scores within 1e-9).
//
// Emits machine-readable JSON (default ./BENCH_hotpath.json, override with
// argv[1]) so CI can archive the trajectory and gate on regressions.
// KSIR_BENCH_SCALE = smoke | small | paper scales the stream.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/engine.h"
#include "subscribe/subscription_manager.h"
#include "service/shard_router.h"
#include "service/sharded_ingestor.h"
#include "runtime/worker_pool.h"
#include "stream/generator.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace ksir::bench {
namespace {

struct BucketStats {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double max_ms = 0.0;
  double total_ms = 0.0;
  double elements_per_sec = 0.0;
  std::size_t num_buckets = 0;
};

double Percentile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

BucketStats Summarize(std::vector<double> bucket_ms, std::size_t n) {
  BucketStats stats;
  stats.num_buckets = bucket_ms.size();
  for (const double ms : bucket_ms) {
    stats.total_ms += ms;
    stats.max_ms = std::max(stats.max_ms, ms);
  }
  std::sort(bucket_ms.begin(), bucket_ms.end());
  stats.p50_ms = Percentile(bucket_ms, 0.50);
  stats.p95_ms = Percentile(bucket_ms, 0.95);
  stats.elements_per_sec =
      stats.total_ms > 0.0
          ? static_cast<double>(n) / (stats.total_ms / 1000.0)
          : 0.0;
  return stats;
}

/// Feeds `elements` in engine-config buckets, timing every AdvanceTo.
BucketStats Feed(KsirEngine* engine, std::vector<SocialElement> elements) {
  std::vector<double> bucket_ms;
  const std::size_t n = elements.size();
  const Status status = AppendInBuckets(
      std::move(elements), engine->config().bucket_length,
      [engine]() { return engine->now(); },
      [engine, &bucket_ms](Timestamp bucket_end,
                           std::vector<SocialElement> bucket) {
        WallTimer timer;
        const Status s = engine->AdvanceTo(bucket_end, std::move(bucket));
        bucket_ms.push_back(timer.ElapsedMillis());
        return s;
      });
  KSIR_CHECK(status.ok());
  return Summarize(std::move(bucket_ms), n);
}

struct QueryLatencies {
  double mtts_mean_ms = 0.0;
  double mttd_mean_ms = 0.0;
  double celf_mean_ms = 0.0;
};

/// One sharded-ingestion run: N shard engines fed through the router/pool.
struct ShardedRun {
  BucketStats feed;
  std::int64_t cross_shard_refs = 0;
  std::int64_t rebalanced = 0;
  std::size_t active_total = 0;
  /// |A_t| per shard at end of stream: exposes routing imbalance (the
  /// chain-following router keeps reference cascades on one shard, so a
  /// single-component stream degenerates to one loaded shard unless the
  /// balance cap is on).
  std::vector<std::size_t> active_per_shard;
};

ShardedRun FeedSharded(const EngineConfig& config, const TopicModel* model,
                       std::size_t num_shards,
                       std::vector<SocialElement> elements) {
  std::vector<std::unique_ptr<KsirEngine>> shards;
  std::vector<KsirEngine*> shard_ptrs;
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards.push_back(std::make_unique<KsirEngine>(config, model));
    shard_ptrs.push_back(shards.back().get());
  }
  ShardRouter router(num_shards, config.max_shard_imbalance,
                     config.window_length);
  const auto pool = MakeWorkerPool(num_shards);
  ShardedIngestor ingestor(shard_ptrs, &router, pool.get());

  std::vector<double> bucket_ms;
  const std::size_t n = elements.size();
  const Status status = AppendInBuckets(
      std::move(elements), config.bucket_length,
      [&ingestor]() { return ingestor.now(); },
      [&ingestor, &bucket_ms](Timestamp bucket_end,
                              std::vector<SocialElement> bucket) {
        WallTimer timer;
        const Status s = ingestor.AdvanceTo(bucket_end, std::move(bucket));
        bucket_ms.push_back(timer.ElapsedMillis());
        return s;
      });
  KSIR_CHECK(status.ok());
  ShardedRun run;
  run.feed = Summarize(std::move(bucket_ms), n);
  run.cross_shard_refs = ingestor.stats().cross_shard_refs;
  run.rebalanced = router.rebalanced();
  for (const auto& shard : shards) {
    run.active_per_shard.push_back(shard->window().num_active());
    run.active_total += shard->window().num_active();
  }
  return run;
}

void EmitShardedJson(std::FILE* out, const char* key, const ShardedRun& run,
                     double max_shard_imbalance, double single_total_ms,
                     bool comma) {
  std::size_t max_active = 0;
  std::size_t min_active = run.active_per_shard.empty()
                               ? 0
                               : run.active_per_shard.front();
  for (const std::size_t active : run.active_per_shard) {
    max_active = std::max(max_active, active);
    min_active = std::min(min_active, active);
  }
  std::fprintf(out,
               "  \"%s\": {\"num_shards\": %zu, \"max_shard_imbalance\": "
               "%.2f, \"total_ms\": %.3f, \"p50_ms\": %.6f, "
               "\"elements_per_sec\": %.1f, \"speedup_vs_single\": %.3f, "
               "\"cross_shard_refs\": %lld, \"rebalanced\": %lld, "
               "\"active_total\": %zu, \"active_spread_max_over_min\": %.3f, "
               "\"active_per_shard\": [",
               key, run.active_per_shard.size(), max_shard_imbalance,
               run.feed.total_ms, run.feed.p50_ms,
               run.feed.elements_per_sec,
               run.feed.total_ms > 0.0 ? single_total_ms / run.feed.total_ms
                                       : 0.0,
               static_cast<long long>(run.cross_shard_refs),
               static_cast<long long>(run.rebalanced), run.active_total,
               min_active > 0 ? static_cast<double>(max_active) /
                                    static_cast<double>(min_active)
                              : 0.0);
  for (std::size_t i = 0; i < run.active_per_shard.size(); ++i) {
    std::fprintf(out, "%s%zu", i == 0 ? "" : ", ",
                 run.active_per_shard[i]);
  }
  std::fprintf(out, "]}%s\n", comma ? "," : "");
}

int Run(const char* out_path) {
  const Scale scale = GetScale();
  const double factor = ElementFactor(scale);

  // Reposition-heavy profile: every arrival references ~6 earlier elements
  // picked mostly by popularity, so hubs accumulate large in-degrees and
  // are repositioned over and over.
  StreamProfile profile;
  profile.name = "reposition-heavy";
  profile.num_elements =
      std::max<std::size_t>(2000, static_cast<std::size_t>(12000 * factor));
  profile.vocab_size = 8000;
  profile.num_topics = 50;
  profile.avg_length = 16.0;
  profile.avg_references = 20.0;
  profile.max_references = 128;
  profile.duration = 4 * 24 * 3600;
  profile.ref_horizon = 48 * 3600;
  profile.ref_recency_tau = 48 * 3600;
  profile.ref_popularity_weight = 0.9;
  profile.ref_candidate_pool = 2048;
  profile.seed = 42;

  PrintBanner(
      "Hot-path bench: parallel vs handle vs recompute maintenance",
      "Algorithm 1 + Algorithms 2-3 hot paths");

  auto generated = GenerateStream(profile);
  KSIR_CHECK(generated.ok());
  Dataset dataset{profile.name, std::move(generated).value(), 1.0};
  dataset.eta = CalibrateEta(dataset.stream);

  EngineConfig base = MakeConfig(dataset, /*window_length=*/48 * 3600);
  // The production default, one participant: positions carried as handles
  // through window -> cache -> lists, every reposition one UpdateHandle.
  EngineConfig handle_config = base;
  handle_config.score_maintenance = ScoreMaintenance::kIncremental;
  handle_config.carry_handles = true;
  // The same staged apply fanned out over 4 participants
  // (bitwise-identical results by contract).
  constexpr std::size_t kParallelWorkers = 4;
  EngineConfig parallel_config = handle_config;
  parallel_config.maintenance_threads = kParallelWorkers;
  EngineConfig recompute_config = base;
  recompute_config.score_maintenance = ScoreMaintenance::kRecompute;

  {
    // Untimed warmup feed: faults in the allocator arenas and page tables
    // so the first measured engine is not penalized by a cold heap (the
    // engines run back to back in one process; without this, measurement
    // order systematically flatters later engines).
    KsirEngine warmup(handle_config, &dataset.stream.model);
    Feed(&warmup, std::vector<SocialElement>(dataset.stream.elements));
  }

  // Identical element copies for every engine, TWO interleaved passes with
  // fresh engines per pass, keeping each engine's better pass: the shared
  // bench machine drifts by tens of percent within one process, far above
  // the effects measured here, and best-of-2 over interleaved passes
  // cancels most of it. Within a pass the parallel engine is measured
  // BEFORE the one-participant handle engine: residual drift favors later
  // feeds, so the ordering can only understate the parallel speedup. The
  // last pass's engines are kept for the query workload and the
  // equivalence checks.
  BucketStats recompute_feed;
  BucketStats parallel_feed;
  BucketStats handle_feed;
  std::unique_ptr<KsirEngine> parallel;
  std::unique_ptr<KsirEngine> handle;
  std::unique_ptr<KsirEngine> recompute;
  const auto better = [](const BucketStats& a, const BucketStats& b) {
    return a.num_buckets == 0 || b.total_ms < a.total_ms ? b : a;
  };
  for (int pass = 0; pass < 2; ++pass) {
    recompute =
        std::make_unique<KsirEngine>(recompute_config, &dataset.stream.model);
    parallel =
        std::make_unique<KsirEngine>(parallel_config, &dataset.stream.model);
    handle =
        std::make_unique<KsirEngine>(handle_config, &dataset.stream.model);
    recompute_feed = better(
        recompute_feed,
        Feed(recompute.get(),
             std::vector<SocialElement>(dataset.stream.elements)));
    parallel_feed = better(
        parallel_feed,
        Feed(parallel.get(),
             std::vector<SocialElement>(dataset.stream.elements)));
    handle_feed = better(
        handle_feed,
        Feed(handle.get(),
             std::vector<SocialElement>(dataset.stream.elements)));
  }

  // Maintenance-thread sweep: fresh engines, same stream, varying the
  // staged apply's participant count (1 = the production default).
  // Scaling needs cores — see available_cores in the JSON; the 1-vs-4 row
  // pair feeds check_bench_regression's --require-scaling floor, and the
  // 8-thread row shows where the per-bucket work runs out of shards.
  const std::size_t kThreadSweep[] = {1, 2, 4, 8};
  struct ThreadSweepPoint {
    std::size_t threads;
    double total_ms;
    double p50_ms;
  };
  std::vector<ThreadSweepPoint> thread_sweep;
  for (const std::size_t threads : kThreadSweep) {
    EngineConfig config = handle_config;
    config.maintenance_threads = threads;
    KsirEngine engine(config, &dataset.stream.model);
    const BucketStats feed =
        Feed(&engine, std::vector<SocialElement>(dataset.stream.elements));
    thread_sweep.push_back({threads, feed.total_ms, feed.p50_ms});
  }

  // Telemetry-overhead measurement: the one-participant handle engine with
  // telemetry off (the default) vs. kCounters (stage timers + histograms
  // live), FOUR interleaved best-of passes — the claimed bound is <= 2%
  // p50 overhead, well under single-pass drift on a shared machine
  // (single-pass ratios swing 0.88-1.8x on a noisy single-core box), so
  // this pair gets two more passes than the engine comparison above. The
  // last counters engine is kept for the per-stage breakdown below.
  BucketStats telemetry_off_feed;
  BucketStats telemetry_on_feed;
  EngineConfig telemetry_on_config = handle_config;
  telemetry_on_config.telemetry.level = TelemetryLevel::kCounters;
  std::unique_ptr<KsirEngine> telemetry_on_engine;
  for (int pass = 0; pass < 4; ++pass) {
    KsirEngine off_engine(handle_config, &dataset.stream.model);
    telemetry_off_feed = better(
        telemetry_off_feed,
        Feed(&off_engine,
             std::vector<SocialElement>(dataset.stream.elements)));
    telemetry_on_engine = std::make_unique<KsirEngine>(
        telemetry_on_config, &dataset.stream.model);
    telemetry_on_feed = better(
        telemetry_on_feed,
        Feed(telemetry_on_engine.get(),
             std::vector<SocialElement>(dataset.stream.elements)));
  }
  const double overhead_p50_ratio =
      telemetry_off_feed.p50_ms > 0.0
          ? telemetry_on_feed.p50_ms / telemetry_off_feed.p50_ms
          : 0.0;
  const double overhead_total_ratio =
      telemetry_off_feed.total_ms > 0.0
          ? telemetry_on_feed.total_ms / telemetry_off_feed.total_ms
          : 0.0;

  // Per-stage maintenance breakdown from the counters engine's registry:
  // where the bucket-apply wall time actually goes.
  const RegistrySnapshot telemetry_snapshot =
      telemetry_on_engine->telemetry().registry().Snapshot();
  const auto hist_sum_ms = [&telemetry_snapshot](const char* name) {
    const MetricSnapshot* m = telemetry_snapshot.Find(name);
    return m != nullptr ? m->histogram.sum * 1e3 : 0.0;
  };
  const auto counter_value = [&telemetry_snapshot](const char* name) {
    const MetricSnapshot* m = telemetry_snapshot.Find(name);
    return m != nullptr ? m->value : 0;
  };
  const double stage_expiry_ms = hist_sum_ms("ksir_maintainer_stage_expiry_seconds");
  const double stage_insert_ms = hist_sum_ms("ksir_maintainer_stage_insert_seconds");
  const double stage_score_ms = hist_sum_ms("ksir_maintainer_stage_score_seconds");
  const double stage_gather_ms = hist_sum_ms("ksir_maintainer_stage_gather_seconds");
  const double stage_list_apply_ms =
      hist_sum_ms("ksir_maintainer_stage_list_apply_seconds");
  const double bucket_apply_ms =
      hist_sum_ms("ksir_maintainer_bucket_apply_seconds");
  const double stage_sum_ms = stage_expiry_ms + stage_insert_ms +
                              stage_score_ms + stage_gather_ms +
                              stage_list_apply_ms;

  // Sharded-ingestion scenarios: the same stream partitioned over 4 shard
  // engines (each running the handle maintainer with its own per-bucket
  // buffers) advanced in parallel — once with pure chain-affinity
  // routing (the cascade stream collapses onto one shard) and once with
  // the balance cap on (bounded active_per_shard spread).
  constexpr std::size_t kNumShards = 4;
  constexpr double kBalanceCap = 2.0;
  const ShardedRun sharded =
      FeedSharded(handle_config, &dataset.stream.model, kNumShards,
                  std::vector<SocialElement>(dataset.stream.elements));
  EngineConfig balanced_config = handle_config;
  balanced_config.max_shard_imbalance = kBalanceCap;
  const ShardedRun sharded_balanced =
      FeedSharded(balanced_config, &dataset.stream.model, kNumShards,
                  std::vector<SocialElement>(dataset.stream.elements));

  // ---- Subscription-engine sweep: standing queries, 1k -> 100k ---------
  // A much sparser topic space than the reposition-heavy stream: with 512
  // topics each bucket touches only a fraction of the space, which is the
  // regime the inverted subscription index exploits. Subscriptions are
  // single- and two-topic interests with 8 users per distinct interest
  // (identical queries share one evaluation per group per round), so the
  // measured reduction decomposes into topic skipping x group sharing.
  // The naive evaluation count needs no measurement — by construction it
  // is registered x rounds — but the smallest point is also RUN naively
  // to validate that identity and record its wall time.
  StreamProfile sub_profile = profile;
  sub_profile.name = "sparse-topic";
  sub_profile.num_topics = 512;
  sub_profile.seed = 43;
  auto sub_generated = GenerateStream(sub_profile);
  KSIR_CHECK(sub_generated.ok());
  Dataset sub_dataset{sub_profile.name, std::move(sub_generated).value(),
                      1.0};
  sub_dataset.eta = CalibrateEta(sub_dataset.stream);
  EngineConfig sub_config =
      MakeConfig(sub_dataset, /*window_length=*/48 * 3600);
  sub_config.score_maintenance = ScoreMaintenance::kIncremental;
  sub_config.carry_handles = true;

  struct SubPoint {
    std::size_t registered = 0;
    std::size_t distinct = 0;
    std::uint64_t rounds = 0;
    SubscriptionManager::Counters totals;
    std::int64_t naive_evaluations = 0;
    double total_ms = 0.0;
    double reduction = 0.0;
  };
  const auto run_subscriptions = [&](std::size_t registered,
                                     SubscriptionMode mode) {
    KsirEngine engine(sub_config, &sub_dataset.stream.model);
    SubscriptionManager manager(
        [&engine](const KsirQuery& query) { return engine.Query(query); },
        mode);
    Rng sub_rng(1234);
    const auto num_topics =
        static_cast<std::uint64_t>(sub_profile.num_topics);
    const std::size_t distinct = std::max<std::size_t>(1, registered / 8);
    std::vector<KsirQuery> pool;
    pool.reserve(distinct);
    for (std::size_t d = 0; d < distinct; ++d) {
      KsirQuery query;
      query.k = 5;
      query.algorithm = Algorithm::kTopkRepresentative;
      const auto t1 = static_cast<TopicId>(sub_rng.NextUint64(num_topics));
      if (d % 4 == 3) {
        auto t2 = static_cast<TopicId>(sub_rng.NextUint64(num_topics));
        if (t2 == t1) t2 = static_cast<TopicId>((t1 + 1) % num_topics);
        query.x = SparseVector::FromEntries(
            {{std::min(t1, t2), 0.5}, {std::max(t1, t2), 0.5}});
      } else {
        query.x = SparseVector::FromEntries({{t1, 1.0}});
      }
      pool.push_back(std::move(query));
    }
    for (std::size_t i = 0; i < registered; ++i) {
      manager.Subscribe(pool[i % distinct],
                        [](const SubscriptionUpdate&) {});
    }
    SubPoint point;
    WallTimer timer;
    const Status status = AppendInBuckets(
        std::vector<SocialElement>(sub_dataset.stream.elements),
        sub_config.bucket_length, [&engine]() { return engine.now(); },
        [&](Timestamp bucket_end, std::vector<SocialElement> bucket) {
          KSIR_RETURN_NOT_OK(engine.AdvanceTo(bucket_end,
                                              std::move(bucket)));
          KSIR_RETURN_NOT_OK(
              manager.EvaluateAffected(engine.last_advance_summary()));
          ++point.rounds;
          return Status::OK();
        });
    KSIR_CHECK(status.ok());
    point.total_ms = timer.ElapsedMillis();
    point.registered = registered;
    point.distinct = distinct;
    point.totals = manager.totals();
    point.naive_evaluations = static_cast<std::int64_t>(registered) *
                              static_cast<std::int64_t>(point.rounds);
    point.reduction =
        point.totals.evaluations > 0
            ? static_cast<double>(point.naive_evaluations) /
                  static_cast<double>(point.totals.evaluations)
            : 0.0;
    return point;
  };

  std::vector<std::size_t> sub_counts;
  switch (scale) {
    case Scale::kPaper:
      sub_counts = {1000, 10000, 100000};
      break;
    case Scale::kSmall:
      sub_counts = {1000, 10000};
      break;
    case Scale::kSmoke:
      sub_counts = {200, 1000};
      break;
  }
  std::vector<SubPoint> sub_sweep;
  for (const std::size_t count : sub_counts) {
    sub_sweep.push_back(
        run_subscriptions(count, SubscriptionMode::kIndexed));
  }
  const SubPoint sub_naive =
      run_subscriptions(sub_counts.front(), SubscriptionMode::kNaive);
  KSIR_CHECK(sub_naive.totals.evaluations == sub_naive.naive_evaluations);

  // Query workload at end-of-stream state.
  const std::vector<QuerySpec> workload =
      MakeWorkload(dataset, NumQueries(scale));
  QueryLatencies handle_lat;
  QueryLatencies recompute_lat;
  bool results_identical = true;
  double max_abs_score_diff = 0.0;
  const struct {
    Algorithm algorithm;
    double QueryLatencies::*slot;
  } kAlgos[] = {
      {Algorithm::kMtts, &QueryLatencies::mtts_mean_ms},
      {Algorithm::kMttd, &QueryLatencies::mttd_mean_ms},
      {Algorithm::kCelf, &QueryLatencies::celf_mean_ms},
  };
  for (const auto& algo : kAlgos) {
    double han_total = 0.0;
    double rec_total = 0.0;
    for (const QuerySpec& spec : workload) {
      KsirQuery query;
      query.k = 10;
      query.epsilon = 0.1;
      query.x = spec.x;
      query.algorithm = algo.algorithm;
      const auto han = handle->Query(query);
      const auto par = parallel->Query(query);
      const auto rec = recompute->Query(query);
      KSIR_CHECK(han.ok());
      KSIR_CHECK(par.ok());
      KSIR_CHECK(rec.ok());
      han_total += han->stats.elapsed_ms;
      rec_total += rec->stats.elapsed_ms;
      // Handle vs parallel must agree EXACTLY (bit-identical list states;
      // the parallel apply's determinism contract); recompute within the
      // floating-point tolerance.
      if (han->element_ids != par->element_ids || han->score != par->score) {
        results_identical = false;
      }
      if (han->element_ids != rec->element_ids) results_identical = false;
      max_abs_score_diff =
          std::max(max_abs_score_diff, std::fabs(han->score - rec->score));
      if (max_abs_score_diff > 1e-9) results_identical = false;
    }
    handle_lat.*algo.slot = han_total / workload.size();
    recompute_lat.*algo.slot = rec_total / workload.size();
  }

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double speedup_total = ratio(recompute_feed.total_ms,
                                     handle_feed.total_ms);
  const double speedup_p50 = ratio(recompute_feed.p50_ms,
                                   handle_feed.p50_ms);
  const double parallel_speedup_total = ratio(handle_feed.total_ms,
                                              parallel_feed.total_ms);
  const double parallel_speedup_p50 = ratio(handle_feed.p50_ms,
                                            parallel_feed.p50_ms);
  const unsigned available_cores = std::thread::hardware_concurrency();

  std::printf("  stream: %zu elements, %zu buckets, eta=%.4f (%u cores)\n",
              dataset.stream.elements.size(), handle_feed.num_buckets,
              dataset.eta, available_cores);
  std::printf("  bucket update total: recompute %.1f ms | handle %.1f ms | "
              "parallel x%zu %.1f ms\n",
              recompute_feed.total_ms, handle_feed.total_ms, kParallelWorkers,
              parallel_feed.total_ms);
  std::printf("  speedups: handle vs recompute %.2fx | parallel vs handle "
              "%.2fx total, %.2fx p50\n",
              speedup_total, parallel_speedup_total, parallel_speedup_p50);
  std::printf("  bucket update p50/p95: handle %.3f/%.3f ms | parallel "
              "%.3f/%.3f ms\n",
              handle_feed.p50_ms, handle_feed.p95_ms,
              parallel_feed.p50_ms, parallel_feed.p95_ms);
  std::printf("  throughput: recompute %.0f el/s | handle %.0f el/s | "
              "parallel %.0f el/s\n",
              recompute_feed.elements_per_sec, handle_feed.elements_per_sec,
              parallel_feed.elements_per_sec);
  std::printf("  thread sweep (total ms):");
  for (const ThreadSweepPoint& point : thread_sweep) {
    std::printf(" w=%zu: %.1f", point.threads, point.total_ms);
  }
  std::printf("\n");
  const auto print_sharded = [&](const char* name, const ShardedRun& run) {
    std::printf("  %s x%zu: total %.1f ms (%.0f el/s, %.2fx vs single "
                "handle), %lld cross-shard refs, %lld rebalanced, active [",
                name, kNumShards, run.feed.total_ms,
                run.feed.elements_per_sec,
                ratio(handle_feed.total_ms, run.feed.total_ms),
                static_cast<long long>(run.cross_shard_refs),
                static_cast<long long>(run.rebalanced));
    for (std::size_t i = 0; i < run.active_per_shard.size(); ++i) {
      std::printf("%s%zu", i == 0 ? "" : ", ", run.active_per_shard[i]);
    }
    std::printf("]\n");
  };
  print_sharded("sharded", sharded);
  print_sharded("sharded+cap", sharded_balanced);
  std::printf("  telemetry overhead (counters on vs off): p50 %.3f vs "
              "%.3f ms (ratio %.4f), total %.1f vs %.1f ms (ratio %.4f)\n",
              telemetry_on_feed.p50_ms, telemetry_off_feed.p50_ms,
              overhead_p50_ratio, telemetry_on_feed.total_ms,
              telemetry_off_feed.total_ms, overhead_total_ratio);
  std::printf("  stage breakdown: expiry %.1f ms | insert %.1f ms | score "
              "%.1f ms | gather %.1f ms | list-apply %.1f ms (sum %.1f of "
              "%.1f ms bucket-apply = %.0f%%)\n",
              stage_expiry_ms, stage_insert_ms, stage_score_ms,
              stage_gather_ms, stage_list_apply_ms, stage_sum_ms,
              bucket_apply_ms,
              bucket_apply_ms > 0.0 ? 100.0 * stage_sum_ms / bucket_apply_ms
                                    : 0.0);
  std::printf("  MTTS %.3f ms | MTTD %.3f ms | CELF %.3f ms (handle "
              "engine means)\n",
              handle_lat.mtts_mean_ms, handle_lat.mttd_mean_ms,
              handle_lat.celf_mean_ms);
  std::printf("  results identical: %s (max |score diff| = %.3g)\n",
              results_identical ? "yes" : "NO",
              max_abs_score_diff);

  std::printf("  subscriptions (sparse-topic stream, %d topics, %llu "
              "rounds):\n",
              sub_profile.num_topics,
              static_cast<unsigned long long>(
                  sub_sweep.front().rounds));
  for (const SubPoint& point : sub_sweep) {
    std::printf("    %6zu subs (%zu distinct): %lld evals vs %lld naive "
                "(%.1fx fewer), activated %lld / skipped %lld, %lld "
                "shared, %lld deltas, %.1f ms\n",
                point.registered, point.distinct,
                static_cast<long long>(point.totals.evaluations),
                static_cast<long long>(point.naive_evaluations),
                point.reduction,
                static_cast<long long>(point.totals.activated),
                static_cast<long long>(point.totals.skipped),
                static_cast<long long>(point.totals.shared_hits),
                static_cast<long long>(point.totals.deltas),
                point.total_ms);
  }
  std::printf("    naive reference at %zu subs: %lld evaluations "
              "(= registered x rounds), %.1f ms\n",
              sub_naive.registered,
              static_cast<long long>(sub_naive.totals.evaluations),
              sub_naive.total_ms);

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  const char* scale_name = scale == Scale::kSmoke   ? "smoke"
                           : scale == Scale::kSmall ? "small"
                                                    : "paper";
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"hotpath\",\n");
  std::fprintf(out, "  \"scale\": \"%s\",\n", scale_name);
  // The apply is bitwise-identical at every participant count; wall-clock
  // scaling needs cores, so record what this run actually had.
  std::fprintf(out, "  \"available_cores\": %u,\n", available_cores);
  std::fprintf(out,
               "  \"workload\": {\"profile\": \"%s\", \"num_elements\": %zu, "
               "\"avg_references\": %.1f, \"ref_popularity_weight\": %.2f, "
               "\"num_topics\": %d, \"num_buckets\": %zu, "
               "\"window_length\": %lld, \"bucket_length\": %lld, "
               "\"eta\": %.6f},\n",
               profile.name.c_str(), dataset.stream.elements.size(),
               profile.avg_references, profile.ref_popularity_weight,
               profile.num_topics, handle_feed.num_buckets,
               static_cast<long long>(base.window_length),
               static_cast<long long>(base.bucket_length), dataset.eta);
  const auto emit_engine = [out](const char* name, const BucketStats& feed,
                                 const QueryLatencies* lat, bool comma) {
    std::fprintf(
        out,
        "    \"%s\": {\"bucket_update\": {\"p50_ms\": %.6f, \"p95_ms\": "
        "%.6f, \"max_ms\": %.6f, \"total_ms\": %.3f, \"elements_per_sec\": "
        "%.1f}",
        name, feed.p50_ms, feed.p95_ms, feed.max_ms, feed.total_ms,
        feed.elements_per_sec);
    if (lat != nullptr) {
      std::fprintf(out,
                   ", \"queries\": {\"mtts_mean_ms\": %.6f, "
                   "\"mttd_mean_ms\": %.6f, \"celf_mean_ms\": %.6f}",
                   lat->mtts_mean_ms, lat->mttd_mean_ms, lat->celf_mean_ms);
    }
    std::fprintf(out, "}%s\n", comma ? "," : "");
  };
  std::fprintf(out, "  \"engines\": {\n");
  emit_engine("handle", handle_feed, &handle_lat, true);
  emit_engine("parallel", parallel_feed, nullptr, true);
  emit_engine("recompute", recompute_feed, &recompute_lat, false);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"maintenance_threads\": %zu,\n", kParallelWorkers);
  std::fprintf(out,
               "  \"speedup\": {\"bucket_update_total\": %.3f, "
               "\"bucket_update_p50\": %.3f, "
               "\"parallel_vs_handle_total\": %.3f, "
               "\"parallel_vs_handle_p50\": %.3f},\n",
               speedup_total, speedup_p50, parallel_speedup_total,
               parallel_speedup_p50);
  std::fprintf(out, "  \"thread_sweep\": [");
  for (std::size_t i = 0; i < thread_sweep.size(); ++i) {
    std::fprintf(out,
                 "%s{\"maintenance_threads\": %zu, \"total_ms\": %.3f, "
                 "\"p50_ms\": %.6f}",
                 i == 0 ? "" : ", ", thread_sweep[i].threads,
                 thread_sweep[i].total_ms, thread_sweep[i].p50_ms);
  }
  std::fprintf(out, "],\n");
  std::fprintf(
      out,
      "  \"telemetry\": {\"off\": {\"p50_ms\": %.6f, \"total_ms\": %.3f}, "
      "\"counters_on\": {\"p50_ms\": %.6f, \"total_ms\": %.3f}, "
      "\"overhead_p50_ratio\": %.4f, \"overhead_total_ratio\": %.4f, "
      "\"stage_breakdown_ms\": {\"expiry\": %.3f, \"insert\": %.3f, "
      "\"score\": %.3f, "
      "\"gather\": %.3f, \"list_apply\": %.3f, \"bucket_apply\": %.3f, "
      "\"stage_sum_fraction\": %.4f}, "
      "\"counts\": {\"expired\": %lld, \"fresh\": %lld, \"touched\": %lld, "
      "\"repositions\": %lld, \"elisions\": %lld}},\n",
      telemetry_off_feed.p50_ms, telemetry_off_feed.total_ms,
      telemetry_on_feed.p50_ms, telemetry_on_feed.total_ms,
      overhead_p50_ratio, overhead_total_ratio, stage_expiry_ms,
      stage_insert_ms, stage_score_ms, stage_gather_ms, stage_list_apply_ms,
      bucket_apply_ms,
      bucket_apply_ms > 0.0 ? stage_sum_ms / bucket_apply_ms : 0.0,
      static_cast<long long>(counter_value("ksir_maintainer_expired_total")),
      static_cast<long long>(counter_value("ksir_maintainer_fresh_total")),
      static_cast<long long>(
          counter_value("ksir_maintainer_elements_touched_total")),
      static_cast<long long>(
          counter_value("ksir_maintainer_repositions_total")),
      static_cast<long long>(
          counter_value("ksir_maintainer_elisions_total")));
  EmitShardedJson(out, "sharded", sharded, 0.0, handle_feed.total_ms, true);
  EmitShardedJson(out, "sharded_balanced", sharded_balanced, kBalanceCap,
                  handle_feed.total_ms, true);
  // Optional external reference: total feed time of the PRE-PR-2 engine
  // (std::set ranked lists, full-recompute maintenance, node-based hash
  // maps) on this same generated workload, measured at the seed commit via
  // a git worktree (see README "Performance"). The in-tree recompute
  // baseline above already shares the faster containers, so it understates
  // the real speedup; this field records the honest one.
  if (const char* prepr = std::getenv("KSIR_PREPR_TOTAL_MS")) {
    const double prepr_ms = std::atof(prepr);
    if (prepr_ms > 0.0 && handle_feed.total_ms > 0.0) {
      std::fprintf(out,
                   "  \"pre_pr_reference\": {\"total_ms\": %.1f, "
                   "\"speedup_vs_handle\": %.3f, \"methodology\": "
                   "\"seed-commit engine, identical generator workload, "
                   "measured via git worktree\"},\n",
                   prepr_ms, prepr_ms / handle_feed.total_ms);
    }
  }
  std::fprintf(out,
               "  \"subscriptions\": {\n"
               "    \"workload\": {\"profile\": \"%s\", \"num_topics\": "
               "%d, \"num_elements\": %zu, \"rounds\": %llu, "
               "\"users_per_interest\": 8},\n",
               sub_profile.name.c_str(), sub_profile.num_topics,
               sub_dataset.stream.elements.size(),
               static_cast<unsigned long long>(sub_sweep.front().rounds));
  std::fprintf(out,
               "    \"naive_reference\": {\"registered\": %zu, "
               "\"evaluations\": %lld, \"expected_evaluations\": %lld, "
               "\"total_ms\": %.3f},\n",
               sub_naive.registered,
               static_cast<long long>(sub_naive.totals.evaluations),
               static_cast<long long>(sub_naive.naive_evaluations),
               sub_naive.total_ms);
  std::fprintf(out, "    \"sweep\": [");
  for (std::size_t i = 0; i < sub_sweep.size(); ++i) {
    const SubPoint& point = sub_sweep[i];
    std::fprintf(
        out,
        "%s{\"registered\": %zu, \"distinct_queries\": %zu, "
        "\"evaluations\": %lld, \"naive_evaluations\": %lld, "
        "\"eval_reduction\": %.3f, \"activated\": %lld, "
        "\"skipped\": %lld, \"shared_hits\": %lld, "
        "\"delta_events\": %lld, \"activated_per_registered\": %.4f, "
        "\"total_ms\": %.3f}",
        i == 0 ? "" : ", ", point.registered, point.distinct,
        static_cast<long long>(point.totals.evaluations),
        static_cast<long long>(point.naive_evaluations),
        point.reduction, static_cast<long long>(point.totals.activated),
        static_cast<long long>(point.totals.skipped),
        static_cast<long long>(point.totals.shared_hits),
        static_cast<long long>(point.totals.deltas),
        point.naive_evaluations > 0
            ? static_cast<double>(point.totals.activated) /
                  static_cast<double>(point.naive_evaluations)
            : 0.0,
        point.total_ms);
  }
  std::fprintf(out, "]\n  },\n");
  std::fprintf(out, "  \"num_queries\": %zu,\n", workload.size());
  std::fprintf(out, "  \"results_identical\": %s,\n",
               results_identical ? "true" : "false");
  std::fprintf(out, "  \"max_abs_score_diff\": %.3g\n", max_abs_score_diff);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("  wrote %s\n", out_path);

  // Smoke-check contract for CI: results must match across the paths.
  return results_identical ? 0 : 1;
}

}  // namespace
}  // namespace ksir::bench

int main(int argc, char** argv) {
  return ksir::bench::Run(argc > 1 ? argv[1] : "BENCH_hotpath.json");
}
