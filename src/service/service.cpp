#include "service/service.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "telemetry/exposition.h"

namespace ksir {

Status ValidateServiceConfig(const ServiceConfig& config) {
  KSIR_RETURN_NOT_OK(ValidateEngineConfig(config.engine));
  KSIR_RETURN_NOT_OK(ValidateTelemetryConfig(config.telemetry));
  if (config.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  // The pool spawns num_workers threads (or max(num_shards,
  // maintenance_threads) when num_workers is 0): an absurd value must fail
  // here, not exhaust the process inside Create, under the same cap as
  // ValidateEngineConfig's maintenance_threads.
  if (config.num_shards > 256) {
    return Status::InvalidArgument("num_shards must be <= 256");
  }
  if (config.num_workers > 256) {
    return Status::InvalidArgument("num_workers must be <= 256");
  }
  if (config.cache_capacity < 1) {
    return Status::InvalidArgument("cache_capacity must be >= 1");
  }
  // Written so NaN fails it instead of dying on ResultCache's CHECK.
  if (!(config.cache_quantum > 0.0)) {
    return Status::InvalidArgument("cache_quantum must be positive");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<KsirService>> KsirService::Create(
    ServiceConfig config, const TopicModel* model) {
  KSIR_RETURN_NOT_OK(ValidateServiceConfig(config));
  if (model == nullptr) {
    return Status::InvalidArgument("topic model must not be null");
  }
  return std::unique_ptr<KsirService>(new KsirService(config, model));
}

KsirService::KsirService(ServiceConfig config, const TopicModel* model)
    : config_(config),
      telemetry_(std::make_unique<Telemetry>(config.telemetry)),
      cache_(config.cache_capacity, config.cache_quantum, telemetry_.get()),
      standing_([this](const KsirQuery& query) { return Query(query); },
                config.subscription_mode, telemetry_.get()) {
  // One pool for everything: shard advances, query fan-out, and — when
  // parallel maintenance is configured — every shard engine's staged
  // bucket apply (passed into the engines below instead of letting each
  // spawn its own).
  const std::size_t default_workers = std::max(
      config_.num_shards, UsesParallelMaintenance(config_.engine)
                              ? config_.engine.maintenance_threads
                              : std::size_t{1});
  pool_ =
      MakeWorkerPool(config_.num_workers, default_workers, telemetry_.get());
  WorkerPool* maintenance_pool =
      UsesParallelMaintenance(config_.engine) ? pool_.get() : nullptr;
  shards_.reserve(config_.num_shards);
  std::vector<KsirEngine*> shard_ptrs;
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<KsirEngine>(
        config_.engine, model, maintenance_pool, telemetry_.get()));
    shard_ptrs.push_back(shards_.back().get());
  }
  router_ = std::make_unique<ShardRouter>(
      config_.num_shards, config_.engine.max_shard_imbalance,
      config_.engine.window_length);
  ingestor_ = std::make_unique<ShardedIngestor>(shard_ptrs, router_.get(),
                                                pool_.get(), telemetry_.get());
  planner_ = std::make_unique<QueryPlanner>(shard_ptrs, model, pool_.get(),
                                            telemetry_.get());
  summaries_scratch_.resize(config_.num_shards);
  MetricRegistry& reg = telemetry_->registry();
  queries_counter_ = reg.GetCounter("ksir_service_queries_total",
                                    "Ad-hoc queries answered (any path)");
  query_hist_ = reg.GetHistogram(
      "ksir_service_query_seconds",
      "Whole Query(): cache lookup, plan (on miss), cache insert");
  cache_lookup_hist_ = reg.GetHistogram(
      "ksir_service_cache_lookup_seconds",
      "Cache key build + lookup at the head of Query()");
}

Status KsirService::AdvanceTo(Timestamp bucket_end,
                              std::vector<SocialElement> bucket) {
  // Reject malformed elements before routing: a shard refusing its slice
  // after its siblings advanced would leave the shards at mixed times.
  KSIR_RETURN_NOT_OK(ValidateBucket(bucket, shards_[0]->index().num_topics()));
  // Seqlock write side: generation is odd while shard states are mixed.
  write_generation_.fetch_add(1, std::memory_order_acq_rel);
  const Status ingested = ingestor_->AdvanceTo(bucket_end, std::move(bucket));
  if (ingested.ok()) {
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  write_generation_.fetch_add(1, std::memory_order_acq_rel);
  if (!ingested.ok()) {
    // A partial failure may have advanced some shards without bumping the
    // epoch; drop everything rather than serve results of the old state.
    cache_.Clear();
    return ingested;
  }
  cache_.InvalidateBefore(epoch_.load(std::memory_order_acquire));
  if (standing_.size() > 0) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      summaries_scratch_[i] = shards_[i]->last_advance_summary();
    }
    const AdvanceSummary merged = MergeAdvanceSummaries(
        summaries_scratch_, epoch_.load(std::memory_order_acquire));
    if (!standing_.EvaluateAffected(merged).ok()) {
      standing_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

Status KsirService::Append(std::vector<SocialElement> elements) {
  // Bucket-step through our own AdvanceTo so every bucket invalidates the
  // cache and refreshes the standing queries exactly once.
  return AppendInBuckets(
      std::move(elements), config_.engine.bucket_length,
      [this]() { return now(); },
      [this](Timestamp bucket_end, std::vector<SocialElement> bucket) {
        return AdvanceTo(bucket_end, std::move(bucket));
      });
}

StatusOr<QueryResult> KsirService::Query(const KsirQuery& query) const {
  // No SampleUnit here: the planner's Plan is the trace unit of the query
  // path, so these spans ride along whenever the tracer is already armed
  // (the cache-lookup span of a sampled plan's query, approximately).
  queries_counter_->Add(1);
  KSIR_RETURN_NOT_OK(ValidateQuery(query));
  StageScope query_scope(telemetry_.get(), query_hist_, "service.query");
  const std::uint64_t generation =
      write_generation_.load(std::memory_order_acquire);
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  ResultCacheKey key;
  {
    StageScope lookup_scope(telemetry_.get(), cache_lookup_hist_,
                            "service.cache_lookup");
    key = cache_.MakeKey(query, epoch);
    if (auto cached = cache_.Lookup(key); cached.has_value()) {
      return *std::move(cached);
    }
  }
  KSIR_ASSIGN_OR_RETURN(QueryResult result, planner_->Plan(query));
  // Seqlock read side: only cache when the whole fan-out ran inside one
  // even (quiescent) generation — otherwise the result may mix pre- and
  // post-bucket shard states and must not be served to later readers.
  if (generation % 2 == 0 &&
      write_generation_.load(std::memory_order_acquire) == generation) {
    cache_.Insert(key, result);
  }
  return result;
}

ServiceStats KsirService::stats() const {
  ServiceStats stats;
  stats.epoch = epoch();
  stats.ingestion = ingestor_->stats();
  stats.cache = cache_.stats();
  stats.planner = planner_->stats();
  stats.standing_errors = standing_errors_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    stats.num_active_total += shard->num_active();
  }
  return stats;
}

std::string KsirService::MetricsText() const {
  return PrometheusText(telemetry_->registry());
}

std::string KsirService::MetricsJsonDump() const {
  return MetricsJson(telemetry_->registry());
}

std::string KsirService::TraceJson() const {
  return ChromeTraceJson(telemetry_->tracer());
}

}  // namespace ksir
