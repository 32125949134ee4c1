#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>

#include "common/timer.h"
#include "runtime/worker_pool.h"
#include "core/brute_force.h"
#include "core/celf.h"
#include "core/mttd.h"
#include "core/mtts.h"
#include "core/sieve_streaming.h"
#include "core/topk_representative.h"

namespace ksir {

std::string_view AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kMtts:
      return "MTTS";
    case Algorithm::kMttd:
      return "MTTD";
    case Algorithm::kCelf:
      return "CELF";
    case Algorithm::kGreedy:
      return "Greedy";
    case Algorithm::kSieveStreaming:
      return "SieveStreaming";
    case Algorithm::kTopkRepresentative:
      return "Top-k Representative";
    case Algorithm::kBruteForce:
      return "BruteForce";
  }
  return "Unknown";
}

Status ValidateEngineConfig(const EngineConfig& config) {
  if (config.bucket_length <= 0) {
    return Status::InvalidArgument("bucket_length must be positive");
  }
  if (config.window_length < config.bucket_length) {
    return Status::InvalidArgument(
        "window_length must cover at least one bucket");
  }
  // Each check is written so NaN fails it: a NaN eta or lambda would
  // otherwise pass here and die on ScoringContext's CHECK.
  if (!(config.scoring.eta > 0.0 && std::isfinite(config.scoring.eta))) {
    return Status::InvalidArgument("scoring.eta must be positive and finite");
  }
  if (!(config.scoring.lambda >= 0.0 && config.scoring.lambda <= 1.0)) {
    return Status::InvalidArgument("scoring.lambda must be in [0, 1]");
  }
  // Written so NaN fails both arms and is rejected here instead of dying
  // on the router's CHECK.
  if (!(config.max_shard_imbalance == 0.0 ||
        config.max_shard_imbalance >= 1.0)) {
    return Status::InvalidArgument(
        "max_shard_imbalance must be 0 (off) or >= 1");
  }
  // The engine spawns maintenance_threads - 1 OS threads when it owns the
  // pool; an absurd value from an untrusted config must fail validation
  // here, not exhaust the process inside the constructor. 256 is far past
  // any useful participant count (the stages shard by element and topic,
  // both bounded per bucket).
  if (config.maintenance_threads > 256) {
    return Status::InvalidArgument(
        "maintenance_threads must be <= 256");
  }
  KSIR_RETURN_NOT_OK(ValidateTelemetryConfig(config.telemetry));
  return Status::OK();
}

Status ValidateBucket(const std::vector<SocialElement>& bucket,
                      std::size_t num_topics) {
  for (const SocialElement& e : bucket) {
    for (const auto& [topic, prob] : e.topics.entries()) {
      if (topic < 0 || static_cast<std::size_t>(topic) >= num_topics) {
        return Status::InvalidArgument(
            "element " + std::to_string(e.id) + ": topic " +
            std::to_string(topic) + " outside the model's " +
            std::to_string(num_topics) + " topics");
      }
      if (!std::isfinite(prob) || prob < 0.0) {
        return Status::InvalidArgument(
            "element " + std::to_string(e.id) + ": topic " +
            std::to_string(topic) + " has a non-finite or negative weight");
      }
    }
  }
  return Status::OK();
}

Status ValidateQuery(const KsirQuery& query) {
  if (query.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (query.x.empty()) {
    return Status::InvalidArgument("query vector is empty");
  }
  for (const auto& [topic, weight] : query.x.entries()) {
    if (!std::isfinite(weight) || weight < 0.0) {
      return Status::InvalidArgument(
          "query weight of topic " + std::to_string(topic) +
          " is non-finite or negative");
    }
  }
  const bool needs_epsilon = query.algorithm == Algorithm::kMtts ||
                             query.algorithm == Algorithm::kMttd ||
                             query.algorithm == Algorithm::kSieveStreaming;
  if (needs_epsilon && (query.epsilon <= 0.0 || query.epsilon >= 1.0)) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  return Status::OK();
}

bool UsesParallelMaintenance(const EngineConfig& config) {
  return config.maintenance_threads >= 2;
}

KsirEngine::KsirEngine(EngineConfig config, const TopicModel* model,
                       WorkerPool* maintenance_pool, Telemetry* telemetry)
    : config_(config),
      window_(config.window_length, config.archive_retention),
      index_(model != nullptr ? model->num_topics() : 1),
      scoring_(model, &window_, config.scoring),
      owned_telemetry_(telemetry == nullptr
                           ? std::make_unique<Telemetry>(config.telemetry)
                           : nullptr),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()),
      advance_hist_(telemetry_->registry().GetHistogram(
          "ksir_engine_advance_seconds",
          "One KsirEngine::AdvanceTo (window advance + bucket apply)")),
      // The advancing thread is one participant, so an engine-owned pool
      // only needs the helpers. A shared pool is used as passed — the
      // sharded service hands every shard the same process-wide pool.
      owned_pool_(maintenance_pool == nullptr && UsesParallelMaintenance(config)
                      ? MakeWorkerPool(config.maintenance_threads - 1,
                                       /*fallback=*/1, telemetry_)
                      : nullptr),
      maintainer_(&scoring_, &index_, config.refresh_mode,
                  config.score_maintenance, config.carry_handles,
                  maintenance_pool != nullptr ? maintenance_pool
                                              : owned_pool_.get(),
                  config.maintenance_threads, telemetry_) {
  KSIR_CHECK(config.bucket_length > 0);
  KSIR_CHECK(config.window_length >= config.bucket_length);
}

KsirEngine::~KsirEngine() = default;

StatusOr<std::unique_ptr<KsirEngine>> KsirEngine::Create(
    EngineConfig config, const TopicModel* model,
    WorkerPool* maintenance_pool, Telemetry* telemetry) {
  KSIR_RETURN_NOT_OK(ValidateEngineConfig(config));
  if (model == nullptr) {
    return Status::InvalidArgument("topic model must not be null");
  }
  return std::make_unique<KsirEngine>(config, model, maintenance_pool,
                                      telemetry);
}

Status KsirEngine::AdvanceTo(Timestamp bucket_end,
                             std::vector<SocialElement> bucket) {
  std::unique_lock lock(mutex_);
  if (bucket_end < window_.now()) {
    return Status::InvalidArgument(
        "out-of-order bucket: bucket_end " + std::to_string(bucket_end) +
        " precedes engine time " + std::to_string(window_.now()));
  }
  if (bucket_end == window_.now() && bucket.empty()) {
    return Status::FailedPrecondition(
        "no-op bucket: empty bucket at the current engine time " +
        std::to_string(bucket_end));
  }
  KSIR_RETURN_NOT_OK(ValidateBucket(bucket, index_.num_topics()));
  WallTimer timer;
  const std::size_t n = bucket.size();
  KSIR_ASSIGN_OR_RETURN(ActiveWindow::UpdateResult update,
                        window_.Advance(bucket_end, std::move(bucket)));
  maintainer_.Apply(update);
  stats_.elements_ingested += static_cast<std::int64_t>(n);
  ++stats_.buckets_processed;
  stats_.elements_expired +=
      static_cast<std::int64_t>(update.expired.size());
  stats_.dangling_refs += update.dangling_refs;
  const double elapsed_ms = timer.ElapsedMillis();
  stats_.total_update_ms += elapsed_ms;
  // The clock reads above pre-date telemetry (they feed MaintenanceStats),
  // so only the histogram record itself is gated on the level.
  if (telemetry_->timing_enabled()) {
    advance_hist_->Record(elapsed_ms / 1e3);
  }
  ++bucket_epoch_;
  last_summary_ = maintainer_.last_summary();
  last_summary_.epoch = bucket_epoch_;
  return Status::OK();
}

Status AppendInBuckets(
    std::vector<SocialElement> elements, Timestamp bucket_length,
    const std::function<Timestamp()>& now,
    const std::function<Status(Timestamp, std::vector<SocialElement>)>&
        advance) {
  if (elements.empty()) return Status::OK();
  const Timestamp l = bucket_length;
  std::size_t begin = 0;
  while (begin < elements.size()) {
    // Bucket end: the smallest multiple of L at/after the first element
    // (strictly after the current clock).
    const Timestamp first_ts = elements[begin].ts;
    if (first_ts <= now()) {
      return Status::InvalidArgument(
          "element ts " + std::to_string(first_ts) +
          " not newer than stream time " + std::to_string(now()));
    }
    Timestamp bucket_end = ((first_ts + l - 1) / l) * l;
    if (bucket_end <= now()) bucket_end += l;
    std::size_t end = begin;
    while (end < elements.size() && elements[end].ts <= bucket_end) ++end;
    // Final chunk: advance only to the last element's timestamp so that a
    // subsequent Append may deliver elements of the same (open) bucket.
    if (end == elements.size()) bucket_end = elements[end - 1].ts;
    std::vector<SocialElement> bucket(
        std::make_move_iterator(elements.begin() +
                                static_cast<std::ptrdiff_t>(begin)),
        std::make_move_iterator(elements.begin() +
                                static_cast<std::ptrdiff_t>(end)));
    KSIR_RETURN_NOT_OK(advance(bucket_end, std::move(bucket)));
    begin = end;
  }
  return Status::OK();
}

Status KsirEngine::Append(std::vector<SocialElement> elements) {
  return AppendInBuckets(
      std::move(elements), config_.bucket_length, [this]() { return now(); },
      [this](Timestamp bucket_end, std::vector<SocialElement> bucket) {
        return AdvanceTo(bucket_end, std::move(bucket));
      });
}

StatusOr<QueryResult> KsirEngine::Query(const KsirQuery& query) const {
  KSIR_RETURN_NOT_OK(ValidateQuery(query));
  std::shared_lock lock(mutex_);
  return RunLocked(query);
}

StatusOr<QueryResult> KsirEngine::QueryWithTerms(
    const KsirQuery& query, std::vector<GainTerms>* member_terms) const {
  KSIR_RETURN_NOT_OK(ValidateQuery(query));
  std::shared_lock lock(mutex_);
  StatusOr<QueryResult> result = RunLocked(query);
  if (result.ok()) {
    // Resolved after the run, so every algorithm is served alike and the
    // algorithms' own loops stay as they are.
    ExportTermsLocked(query.x, result->element_ids, member_terms);
  }
  return result;
}

std::vector<GainTerms> KsirEngine::ExportTerms(
    const SparseVector& x, const std::vector<ElementId>& ids) const {
  std::shared_lock lock(mutex_);
  std::vector<GainTerms> terms;
  ExportTermsLocked(x, ids, &terms);
  return terms;
}

void KsirEngine::ExportTermsLocked(const SparseVector& x,
                                   const std::vector<ElementId>& ids,
                                   std::vector<GainTerms>* out) const {
  // One prefetched batch resolves every element and its referrer list;
  // each element's terms are resolved into one reused buffer and copied
  // out at their exact size.
  std::vector<ActiveWindow::ActiveView> views(ids.size());
  window_.FindActiveBatch(ids.data(), ids.size(), views.data());
  out->clear();
  out->reserve(ids.size());
  GainTerms scratch;
  for (const ActiveWindow::ActiveView& view : views) {
    if (view.element == nullptr) continue;
    scratch.Resolve(scoring_, x, *view.element, *view.referrers);
    out->push_back(scratch);
  }
}

StatusOr<QueryResult> KsirEngine::RunLocked(const KsirQuery& query) const {
  switch (query.algorithm) {
    case Algorithm::kMtts:
      return RunMtts(scoring_, index_, query);
    case Algorithm::kMttd:
      return RunMttd(scoring_, index_, query);
    case Algorithm::kCelf:
      return RunCelf(scoring_, window_, query);
    case Algorithm::kGreedy:
      return RunGreedy(scoring_, window_, query);
    case Algorithm::kSieveStreaming:
      return RunSieveStreaming(scoring_, window_, query);
    case Algorithm::kTopkRepresentative:
      return RunTopkRepresentative(scoring_, index_, query);
    case Algorithm::kBruteForce:
      return RunBruteForce(scoring_, window_, query);
  }
  return Status::InvalidArgument("unknown algorithm");
}

Timestamp KsirEngine::now() const {
  std::shared_lock lock(mutex_);
  return window_.now();
}

std::uint64_t KsirEngine::bucket_epoch() const {
  std::shared_lock lock(mutex_);
  return bucket_epoch_;
}

AdvanceSummary KsirEngine::last_advance_summary() const {
  std::shared_lock lock(mutex_);
  return last_summary_;
}

std::size_t KsirEngine::num_active() const {
  std::shared_lock lock(mutex_);
  return window_.num_active();
}

MaintenanceStats KsirEngine::maintenance_stats() const {
  std::shared_lock lock(mutex_);
  return stats_;
}

}  // namespace ksir
