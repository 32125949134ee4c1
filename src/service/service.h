// KsirService: the sharded k-SIR query service.
//
//                      +-----------------------------+
//      stream buckets  |       ShardedIngestor       |
//     ---------------> |  ShardRouter -> WorkerPool  |
//                      +--+--------+--------+--------+
//                         |        |        |
//                      +--v--+  +--v--+  +--v--+
//                      |shard|  |shard|  |shard|   KsirEngine x N
//                      +--+--+  +--+--+  +--+--+
//                         |        |        |
//                      +--v--------v--------v--------+
//      ad-hoc queries  |        QueryPlanner         |
//     ---------------> |   fan-out / CELF merge      |
//          ^           +--------------+--------------+
//          |                          |
//   +------+-------+        +--------v---------+
//   | ResultCache  | <----- | standing queries |
//   | (epoch keyed)|        | (re-primed per   |
//   +--------------+        |  bucket)         |
//                           +------------------+
//
// Standing queries are a SubscriptionManager whose evaluator is Query:
// they run through the planner and re-prime the result cache for the
// ad-hoc queries that follow. After each bucket the service merges the
// shards' advance summaries (topic union, max movement) and runs one
// EvaluateAffected round over the merged summary.
//
// The service owns one WorkerPool (one FIFO queue). The ingestor's shard
// advances, the planner's shard queries and, with
// engine.maintenance_threads >= 2, every shard's staged bucket apply all
// fan out on it through ParallelRun; the calling thread runs part of each
// fan-out itself, so the nested shard -> maintenance fan-out completes even
// on a one-thread pool.
//
// One writer thread ingests buckets; any number of reader threads query.
// This façade is the seam every scaling direction plugs into: more shards,
// asynchronous ingestion, replicated shards, or remote shard backends all
// stay behind AdvanceTo/Query.
#ifndef KSIR_SERVICE_SERVICE_H_
#define KSIR_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "telemetry/telemetry.h"
#include "service/query_planner.h"
#include "service/result_cache.h"
#include "service/shard_router.h"
#include "service/sharded_ingestor.h"
#include "runtime/worker_pool.h"
#include "subscribe/subscription_manager.h"
#include "topic/topic_model.h"

namespace ksir {

/// Service configuration on top of the per-shard engine config.
struct ServiceConfig {
  /// Per-shard engine configuration (window/bucket lengths, scoring).
  EngineConfig engine;
  /// Number of shard engines (1..256).
  std::size_t num_shards = 4;
  /// Worker threads (<= 256) of the service's one pool, shared by
  /// ingestion, query fan-out AND the shards' parallel maintenance stages
  /// (when engine.maintenance_threads >= 2 the shard engines fan their
  /// staged bucket apply out on this same pool; caller participation keeps
  /// the nested fan-out deadlock-free). 0 = num_shards, raised to
  /// engine.maintenance_threads when that is larger; size it near
  /// num_shards * maintenance_threads to run both levels fully parallel.
  std::size_t num_workers = 0;
  /// Result-cache entries kept across one epoch (>= 1).
  std::size_t cache_capacity = 4096;
  /// Query-vector quantization step of the cache key.
  double cache_quantum = 1e-4;
  /// How the post-bucket standing-query round is driven: kIndexed wakes
  /// only subscriptions whose query support intersects the topics touched
  /// by the bucket (union over shards), kNaive re-evaluates everything —
  /// the reference baseline, kept for equivalence testing.
  SubscriptionMode subscription_mode = SubscriptionMode::kIndexed;
  /// Telemetry level and tracing knobs of the service-wide Telemetry (one
  /// registry + tracer shared by every shard engine, the pool, the
  /// ingestor, the planner and the cache — N shards aggregate into one
  /// series set). Overrides engine.telemetry, which is ignored here.
  TelemetryConfig telemetry;
};

/// Validates a ServiceConfig (including the nested engine config).
Status ValidateServiceConfig(const ServiceConfig& config);

/// Point-in-time service counters.
struct ServiceStats {
  std::uint64_t epoch = 0;
  IngestionStats ingestion;
  ResultCacheStats cache;
  PlannerStats planner;
  /// Standing-query evaluation rounds that surfaced an error.
  std::int64_t standing_errors = 0;
  /// Sum of |A_t| over all shards.
  std::size_t num_active_total = 0;
};

/// Sharded k-SIR query service. Thread model: one ingestion thread calls
/// AdvanceTo/Append; any number of threads call Query concurrently.
class KsirService {
 public:
  /// `model` must outlive the service.
  static StatusOr<std::unique_ptr<KsirService>> Create(
      ServiceConfig config, const TopicModel* model);

  /// Ingests one bucket: partitions it across the shards, advances them in
  /// parallel, bumps the service epoch (invalidating cached results) and
  /// re-evaluates the standing queries it touched. A bucket with a
  /// malformed element (see ValidateBucket) is rejected before routing
  /// with InvalidArgument and changes nothing.
  Status AdvanceTo(Timestamp bucket_end, std::vector<SocialElement> bucket);

  /// Splits `elements` (sorted by ts) into buckets and ingests them all.
  Status Append(std::vector<SocialElement> elements);

  /// Answers an ad-hoc k-SIR query: epoch-keyed cache first, then the
  /// fan-out/merge planner. Malformed queries (see ValidateQuery) fail
  /// with InvalidArgument before the cache is consulted. Thread-safe.
  StatusOr<QueryResult> Query(const KsirQuery& query) const;

  /// Standing subscriptions (evaluated through the cached planner path).
  /// Register and unregister from the ingestion thread.
  SubscriptionManager& standing_queries() { return standing_; }

  /// Current stream clock (shared by all shards).
  Timestamp now() const { return ingestor_->now(); }

  /// Monotone count of ingested buckets (the cache key epoch).
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  std::size_t num_shards() const { return shards_.size(); }

  /// Shard access for tests/benches (not thread-safe against AdvanceTo).
  const KsirEngine& shard(std::size_t i) const { return *shards_[i]; }

  /// Router access for tests/benches (balance-cap observability; not
  /// thread-safe against AdvanceTo).
  const ShardRouter& router() const { return *router_; }

  /// Point-in-time counters, safe to call from any thread concurrently
  /// with ingestion and queries: every field is assembled from atomic
  /// storage (registry counters; active-set sizes under each shard's query
  /// lock). The snapshot is per-field consistent, not cross-field.
  ServiceStats stats() const;

  /// The service-wide telemetry (registry + tracer).
  Telemetry& telemetry() const { return *telemetry_; }

  /// Prometheus text exposition of every service metric (see
  /// telemetry/exposition.h). Safe any time.
  std::string MetricsText() const;

  /// JSON snapshot of every service metric.
  std::string MetricsJsonDump() const;

  /// chrome://tracing JSON of the sampled spans (empty event list unless
  /// config.telemetry.level == kTracing).
  std::string TraceJson() const;

 private:
  KsirService(ServiceConfig config, const TopicModel* model);

  ServiceConfig config_;
  /// Service-wide telemetry; declared before every component that records
  /// into it (pool, shards, ingestor, planner, cache).
  std::unique_ptr<Telemetry> telemetry_;
  /// The service's pool; declared before the shards, which hold the raw
  /// pointer through their maintainers.
  std::unique_ptr<WorkerPool> pool_;
  std::vector<std::unique_ptr<KsirEngine>> shards_;
  std::unique_ptr<ShardRouter> router_;
  std::unique_ptr<ShardedIngestor> ingestor_;
  std::unique_ptr<QueryPlanner> planner_;
  mutable ResultCache cache_;
  /// Query-path metrics (the cache-lookup span runs before the planner's).
  Counter* queries_counter_ = nullptr;
  Histogram* query_hist_ = nullptr;
  Histogram* cache_lookup_hist_ = nullptr;
  SubscriptionManager standing_;
  /// Per-shard advance summaries collected after each bucket (reused).
  std::vector<AdvanceSummary> summaries_scratch_;
  std::atomic<std::uint64_t> epoch_{0};
  /// Seqlock-style ingestion generation: odd while a bucket is being
  /// applied to the shards, even when quiescent. A query whose fan-out
  /// overlaps an odd or changed generation may have mixed pre-/post-bucket
  /// shard states and must not be cached.
  std::atomic<std::uint64_t> write_generation_{0};
  std::atomic<std::int64_t> standing_errors_{0};
};

}  // namespace ksir

#endif  // KSIR_SERVICE_SERVICE_H_
