#include "service/sharded_ingestor.h"

#include <cmath>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/timer.h"

namespace ksir {

ShardedIngestor::ShardedIngestor(std::vector<KsirEngine*> shards,
                                 ShardRouter* router, WorkerPool* pool,
                                 Telemetry* telemetry)
    : shards_(std::move(shards)),
      router_(router),
      pool_(pool),
      owned_telemetry_(telemetry == nullptr ? std::make_unique<Telemetry>()
                                            : nullptr),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()) {
  KSIR_CHECK(!shards_.empty());
  KSIR_CHECK(router_ != nullptr && pool_ != nullptr);
  MetricRegistry& reg = telemetry_->registry();
  elements_counter_ = reg.GetCounter("ksir_ingest_elements_total",
                                     "Elements ingested across all shards");
  buckets_counter_ =
      reg.GetCounter("ksir_ingest_buckets_total", "Buckets ingested");
  cross_refs_counter_ =
      reg.GetCounter("ksir_ingest_cross_shard_refs_total",
                     "Reference edges lost to shard partitioning");
  update_nanos_counter_ = reg.GetCounter(
      "ksir_ingest_update_nanos_total",
      "Wall nanoseconds spent in parallel shard advances");
  bucket_hist_ = reg.GetHistogram(
      "ksir_ingest_bucket_seconds",
      "Parallel shard advance of one bucket (max over shards)");
  KSIR_CHECK(router_->num_shards() == shards_.size());
  const EngineConfig& config = shards_.front()->config();
  bucket_length_ = config.bucket_length;
  const Timestamp retention = config.archive_retention > 0
                                  ? config.archive_retention
                                  : config.window_length;
  prune_horizon_ = config.window_length + retention;
  for (const KsirEngine* shard : shards_) {
    KSIR_CHECK(shard->config().bucket_length == bucket_length_);
    KSIR_CHECK(shard->config().window_length == config.window_length);
  }
}

Status ShardedIngestor::AdvanceTo(Timestamp bucket_end,
                                  std::vector<SocialElement> bucket) {
  const Timestamp previous = now();
  if (bucket_end < previous) {
    return Status::InvalidArgument(
        "out-of-order bucket: bucket_end " + std::to_string(bucket_end) +
        " precedes service time " + std::to_string(previous));
  }
  if (bucket_end == previous && bucket.empty()) {
    return Status::FailedPrecondition(
        "no-op bucket: empty bucket at the current service time " +
        std::to_string(bucket_end));
  }

  // Validate the whole bucket before routing anything, so a rejected call
  // leaves the router untouched. The router tracks every id inside the
  // resurrectability horizon, which also catches cross-bucket duplicates.
  Timestamp prev_ts = previous;
  std::unordered_set<ElementId> bucket_ids;
  bucket_ids.reserve(bucket.size());
  for (const SocialElement& e : bucket) {
    if (e.ts <= previous || e.ts > bucket_end) {
      return Status::InvalidArgument(
          "element ts " + std::to_string(e.ts) + " outside bucket (" +
          std::to_string(previous) + ", " + std::to_string(bucket_end) + "]");
    }
    if (e.ts < prev_ts) {
      return Status::InvalidArgument("bucket must be sorted by ts");
    }
    prev_ts = e.ts;
    if (!bucket_ids.insert(e.id).second || router_->Knows(e.id)) {
      return Status::AlreadyExists("duplicate element id " +
                                   std::to_string(e.id));
    }
  }

  // Route (in ts order, so reference targets are routed before referrers)
  // and partition. Per-shard sub-buckets stay ts-sorted. The routed ids are
  // tracked per shard so a partial failure can roll back exactly the shards
  // that rejected their sub-bucket.
  const std::int64_t cross_before = router_->cross_shard_refs();
  const std::size_t ingested = bucket.size();
  std::vector<std::vector<ElementId>> shard_ids(shards_.size());
  std::vector<std::vector<SocialElement>> parts(shards_.size());
  for (SocialElement& e : bucket) {
    const std::size_t shard = router_->Route(e);
    shard_ids[shard].push_back(e.id);
    parts[shard].push_back(std::move(e));
  }

  // Advance all shards in parallel (the calling thread advances one of
  // them itself); empty sub-buckets still advance the shard clock (expiry
  // must happen everywhere).
  WallTimer timer;
  std::vector<Status> statuses(shards_.size());
  try {
    ParallelRun(pool_, shards_.size(), [&](std::size_t i) {
      statuses[i] = shards_[i]->AdvanceTo(bucket_end, std::move(parts[i]));
    });
  } catch (...) {
    // A shard advance threw (ParallelRun rethrows it once every shard has
    // finished): its status slot still reads OK, so no per-shard status can be
    // trusted. Roll the whole bucket out of the routing table before
    // rethrowing — shards may retain elements (the clocks/contents can
    // diverge, as with any partial failure), but the router must never
    // claim ids whose placement is unknown.
    for (const std::vector<ElementId>& ids : shard_ids) {
      router_->Forget(ids);
    }
    throw;
  }
  Status first_error = Status::OK();
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok()) continue;
    // Roll back only the shards that rejected their sub-bucket: their
    // elements were never ingested anywhere, so their routing entries must
    // go. Shards that accepted keep their elements, and the router must
    // keep reporting Knows() for those ids — otherwise a retried bucket
    // would pass validation and re-ingest duplicates (see header contract).
    router_->Forget(shard_ids[i]);
    if (first_error.ok()) first_error = statuses[i];
  }
  if (!first_error.ok()) return first_error;

  // The per-bucket WallTimer pre-dates telemetry (it feeds the stats
  // view's total_update_ms), so the nanos counter is always exact; only
  // the histogram record is gated on the telemetry level.
  const double elapsed_us = timer.ElapsedMicros();
  update_nanos_counter_->Add(std::llround(elapsed_us * 1e3));
  if (telemetry_->timing_enabled()) bucket_hist_->Record(elapsed_us / 1e6);
  buckets_counter_->Add(1);
  elements_counter_->Add(static_cast<std::int64_t>(ingested));
  const std::int64_t cross = router_->cross_shard_refs() - cross_before;
  if (cross > 0) cross_refs_counter_->Add(cross);
  router_->PruneOlderThan(bucket_end - prune_horizon_);
  return Status::OK();
}

IngestionStats ShardedIngestor::stats() const {
  IngestionStats stats;
  stats.elements_ingested = elements_counter_->Value();
  stats.buckets_processed = buckets_counter_->Value();
  stats.cross_shard_refs = cross_refs_counter_->Value();
  stats.total_update_ms =
      static_cast<double>(update_nanos_counter_->Value()) / 1e6;
  return stats;
}

Timestamp ShardedIngestor::now() const { return shards_.front()->now(); }

}  // namespace ksir
