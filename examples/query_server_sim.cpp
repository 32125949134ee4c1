// Query-server simulation: the paper's deployment claim is that thousands
// of users can submit ad-hoc k-SIR queries that must each be answered in
// real time while the stream keeps flowing.
//
// This example runs the claim through the sharded service (src/service/):
// one writer thread ingests a RedditSim stream bucket by bucket through the
// ShardedIngestor (partitioned across 4 shard engines); several reader
// threads fire random keyword queries that the QueryPlanner fans out and
// merges, with repeated queries between bucket boundaries served from the
// epoch-keyed ResultCache. Reports query throughput, latency percentiles
// per algorithm, the service counters, and — telemetry runs at kCounters —
// the per-stage maintenance breakdown from the metrics registry.
//
//   $ ./query_server_sim [METRICS.prom] [NUM_ELEMENTS]
//
// With METRICS.prom the full Prometheus text exposition is written there
// at exit (CI validates it with tools/check_metrics_exposition.py);
// NUM_ELEMENTS overrides the generated stream size (default 8000).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "service/service.h"
#include "stream/generator.h"
#include "topic/inference.h"

namespace {

using namespace ksir;  // NOLINT(build/namespaces) - example brevity

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1));
  return values[idx];
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Query-server simulation: sharded service, concurrent k-SIR "
              "queries\n");
  std::printf("=========================================================\n");

  const char* metrics_path = argc > 1 ? argv[1] : nullptr;
  StreamProfile profile = RedditSimProfile();
  profile.num_elements = 8000;
  if (argc > 2) {
    const long n = std::atol(argv[2]);
    KSIR_CHECK(n > 0);
    profile.num_elements = static_cast<std::size_t>(n);
  }
  auto generated = GenerateStream(profile);
  KSIR_CHECK(generated.ok());
  const GeneratedStream& stream = *generated;

  ServiceConfig config;
  config.engine.scoring.eta = 20.0;
  config.engine.window_length = 24 * 3600;
  config.engine.bucket_length = 15 * 60;
  config.num_shards = 4;
  // Stage timers + histograms on: this sim doubles as the live-exposition
  // fixture CI validates, and its report includes the stage breakdown.
  config.telemetry.level = TelemetryLevel::kCounters;
  auto created = KsirService::Create(config, &stream.model);
  KSIR_CHECK(created.ok());
  KsirService& service = **created;

  // Pre-infer a pool of random keyword query vectors (frequency-weighted
  // keyword draws, 1-5 keywords each, as in Section 5.1). A pool of 64
  // against thousands of queries is exactly the trending-query pattern the
  // result cache exists for.
  TopicInferencer inferencer(&stream.model);
  std::vector<double> word_weights(stream.vocab.size());
  for (std::size_t w = 0; w < stream.vocab.size(); ++w) {
    word_weights[w] = static_cast<double>(
        stream.vocab.OccurrenceCount(static_cast<WordId>(w)) + 1);
  }
  AliasTable word_sampler(word_weights);
  Rng rng(2024);
  std::vector<SparseVector> query_pool;
  for (int i = 0; i < 64; ++i) {
    const auto num_keywords = 1 + rng.NextUint64(5);
    std::vector<WordId> keywords;
    for (std::size_t j = 0; j < num_keywords; ++j) {
      keywords.push_back(static_cast<WordId>(word_sampler.Sample(&rng)));
    }
    query_pool.push_back(
        inferencer.InferSparse(Document::FromWordIds(keywords), i));
  }

  // Standing subscriptions: 48 users across 16 distinct interests drawn
  // from the same pool. The subscription engine groups identical queries
  // (one shared evaluation per group per round) and the inverted topic
  // index wakes only the groups each bucket actually touched.
  std::atomic<std::int64_t> standing_updates{0};
  std::atomic<std::int64_t> standing_delta_events{0};
  for (int s = 0; s < 48; ++s) {
    KsirQuery standing;
    standing.k = 10;
    standing.epsilon = 0.1;
    standing.algorithm = Algorithm::kMttd;
    standing.x = query_pool[static_cast<std::size_t>(s % 16)];
    service.standing_queries().Subscribe(
        standing, [&](const SubscriptionUpdate& update) {
          standing_updates.fetch_add(1, std::memory_order_relaxed);
          standing_delta_events.fetch_add(
              static_cast<std::int64_t>(update.num_deltas),
              std::memory_order_relaxed);
        });
  }

  struct AlgoStats {
    Algorithm algorithm;
    std::vector<double> latencies_ms;
    std::mutex mutex;
  };
  AlgoStats mtts{Algorithm::kMtts, {}, {}};
  AlgoStats mttd{Algorithm::kMttd, {}, {}};
  std::vector<AlgoStats*> algos = {&mtts, &mttd};

  std::atomic<bool> done{false};
  std::atomic<std::int64_t> total_queries{0};

  // Leave a core for the writer; a short think-time between queries keeps
  // the ingestion thread from starving on small machines.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned num_readers = std::clamp(hw - 1, 1u, 4u);
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < num_readers; ++t) {
    readers.emplace_back([&, t]() {
      Rng thread_rng(9000 + t);
      while (!done.load(std::memory_order_relaxed)) {
        AlgoStats* algo = algos[thread_rng.NextUint64(algos.size())];
        KsirQuery query;
        query.k = 10;
        query.epsilon = 0.1;
        query.algorithm = algo->algorithm;
        query.x = query_pool[thread_rng.NextUint64(query_pool.size())];
        WallTimer latency;
        const auto result = service.Query(query);
        if (result.ok()) {
          const double elapsed_ms = latency.ElapsedMillis();
          total_queries.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard lock(algo->mutex);
          algo->latencies_ms.push_back(elapsed_ms);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  // Writer: feed the whole stream through the sharded ingestor.
  WallTimer wall;
  std::size_t begin = 0;
  Timestamp bucket_end = 0;
  while (begin < stream.elements.size()) {
    bucket_end += config.engine.bucket_length;
    std::vector<SocialElement> bucket;
    while (begin < stream.elements.size() &&
           stream.elements[begin].ts <= bucket_end) {
      bucket.push_back(stream.elements[begin]);
      ++begin;
    }
    KSIR_CHECK(service.AdvanceTo(bucket_end, std::move(bucket)).ok());
  }
  done.store(true);
  for (auto& reader : readers) reader.join();
  const double elapsed_s = wall.ElapsedMillis() / 1000.0;

  std::printf("\n%u reader threads, 1 writer, %zu shards; %lld queries "
              "answered while ingesting %zu elements in %.1f s "
              "(%.0f queries/s).\n",
              num_readers, service.num_shards(),
              static_cast<long long>(total_queries.load()),
              stream.elements.size(), elapsed_s,
              static_cast<double>(total_queries.load()) / elapsed_s);

  std::printf("\n%-8s %10s %10s %10s %10s\n", "algo", "count", "p50 (ms)",
              "p95 (ms)", "p99 (ms)");
  for (AlgoStats* algo : algos) {
    std::printf("%-8s %10zu %10.3f %10.3f %10.3f\n",
                std::string(AlgorithmName(algo->algorithm)).c_str(),
                algo->latencies_ms.size(),
                Percentile(algo->latencies_ms, 0.50),
                Percentile(algo->latencies_ms, 0.95),
                Percentile(algo->latencies_ms, 0.99));
  }

  const ServiceStats stats = service.stats();
  std::printf("\nService: epoch=%llu, %.3f ms/element ingestion with "
              "concurrent readers.\n",
              static_cast<unsigned long long>(stats.epoch),
              stats.ingestion.total_update_ms /
                  static_cast<double>(stats.ingestion.elements_ingested));
  std::printf("Cache: %lld hits / %lld misses (%.0f%% hit rate), "
              "%lld invalidated across epochs.\n",
              static_cast<long long>(stats.cache.hits),
              static_cast<long long>(stats.cache.misses),
              100.0 * static_cast<double>(stats.cache.hits) /
                  static_cast<double>(
                      std::max<std::int64_t>(1, stats.cache.hits +
                                                    stats.cache.misses)),
              static_cast<long long>(stats.cache.invalidated));
  std::printf("Planner: %lld plans, %lld merge wins, %lld epoch retries; "
              "%lld cross-shard refs dropped at ingest.\n",
              static_cast<long long>(stats.planner.plans),
              static_cast<long long>(stats.planner.merge_wins),
              static_cast<long long>(stats.planner.epoch_retries),
              static_cast<long long>(stats.ingestion.cross_shard_refs));

  const auto& sub_totals = service.standing_queries().totals();
  std::printf("Standing subscriptions: %lld registered in %zu groups; "
              "%lld activated / %lld skipped across rounds, %lld "
              "evaluations (%lld served by group sharing), %lld delta "
              "events in %lld callbacks.\n",
              static_cast<long long>(sub_totals.registered),
              service.standing_queries().num_groups(),
              static_cast<long long>(sub_totals.activated),
              static_cast<long long>(sub_totals.skipped),
              static_cast<long long>(sub_totals.evaluations),
              static_cast<long long>(sub_totals.shared_hits),
              static_cast<long long>(
                  standing_delta_events.load(std::memory_order_relaxed)),
              static_cast<long long>(
                  standing_updates.load(std::memory_order_relaxed)));

  // Per-stage maintenance breakdown straight off the metrics registry:
  // where the ingestion wall time above actually went.
  const RegistrySnapshot snapshot =
      service.telemetry().registry().Snapshot();
  const auto hist_sum_ms = [&snapshot](const char* name) {
    const MetricSnapshot* m = snapshot.Find(name);
    return m != nullptr ? m->histogram.sum * 1e3 : 0.0;
  };
  std::printf("Maintenance stages: expiry %.1f ms, insert %.1f ms, score "
              "%.1f ms, gather %.1f ms, list-apply %.1f ms (bucket-apply "
              "total %.1f ms across shards).\n",
              hist_sum_ms("ksir_maintainer_stage_expiry_seconds"),
              hist_sum_ms("ksir_maintainer_stage_insert_seconds"),
              hist_sum_ms("ksir_maintainer_stage_score_seconds"),
              hist_sum_ms("ksir_maintainer_stage_gather_seconds"),
              hist_sum_ms("ksir_maintainer_stage_list_apply_seconds"),
              hist_sum_ms("ksir_maintainer_bucket_apply_seconds"));

  if (metrics_path != nullptr) {
    const std::string text = service.MetricsText();
    std::FILE* out = std::fopen(metrics_path, "w");
    KSIR_CHECK(out != nullptr);
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
    std::printf("Wrote Prometheus exposition (%zu bytes) to %s.\n",
                text.size(), metrics_path);
  }
  return 0;
}
