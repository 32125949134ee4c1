// Fan-out/merge query planning over N shard engines.
//
// An ad-hoc k-SIR query is answered in three steps (the two-round scheme of
// distributed submodular maximization, à la GreeDi):
//   1. Fan-out: the query runs on every shard in parallel (each shard sees
//      only its partition, so per-shard work is ~1/N of a single engine's);
//      each shard returns its k-element result plus the gain terms of those
//      elements (sigma_i(w, e) and p_i(e -> r), the S-independent inputs of
//      every marginal gain; see GainTerms), resolved under the same shared
//      lock as the query.
//   2. Merge: a lazy greedy (CELF) runs over the <= N*k candidates' terms.
//      No element is copied and no window is rebuilt: the terms alone give
//      every gain, with influence coverage keyed by global referrer id.
//   3. Guard: the merged set is only returned when it beats the best
//      single-shard result; otherwise that shard's result is returned
//      verbatim. This keeps the classic guarantee: the answer is never
//      worse than the best partition's (1 - 1/e)-approximate answer, and
//      with one shard it is exactly the single-engine answer.
//
// Shards keep ingesting while queries run. Each shard's query and term
// export take one shared lock, so a bucket cannot land between them and
// there is nothing to validate or retry.
#ifndef KSIR_SERVICE_QUERY_PLANNER_H_
#define KSIR_SERVICE_QUERY_PLANNER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/query.h"
#include "core/scoring.h"
#include "runtime/worker_pool.h"
#include "telemetry/telemetry.h"
#include "topic/topic_model.h"
#include "window/active_window.h"

namespace ksir {

/// Counters of the planning layer — a point-in-time view over the registry
/// counters (`ksir_planner_*_total`).
struct PlannerStats {
  std::int64_t plans = 0;
  /// Always 0: each shard's query and term export share one lock, so no
  /// pair is ever re-run. Kept for exposition compatibility.
  std::int64_t epoch_retries = 0;
  /// Plans where the merged set beat every single-shard result.
  std::int64_t merge_wins = 0;
  /// Plans resolved by the best-shard guard (merge did not beat it).
  std::int64_t best_shard_wins = 0;
};

/// Stateless-per-query planner. Thread-safe: any number of threads may call
/// Plan concurrently with each other and with shard ingestion.
class QueryPlanner {
 public:
  /// `shards`, `model` and `pool` must outlive the planner; `shards` must
  /// be non-empty and share the model and scoring parameters. `telemetry`
  /// (optional, must outlive the planner) receives the plan counters, the
  /// whole-plan / merge histograms and one fan-out latency histogram per
  /// shard; null gives the planner a private kOff Telemetry.
  QueryPlanner(std::vector<KsirEngine*> shards, const TopicModel* model,
               WorkerPool* pool, Telemetry* telemetry = nullptr);

  /// Answers `query` at the shards' current time.
  StatusOr<QueryResult> Plan(const KsirQuery& query) const;

  PlannerStats stats() const;

  std::size_t num_shards() const { return shards_.size(); }

 private:
  std::vector<KsirEngine*> shards_;
  WorkerPool* pool_;
  /// The merge's scoring context: the shards' lambda and eta over a window
  /// that stays empty, since the merge reads gains from terms only.
  ActiveWindow empty_window_{1};
  ScoringContext merge_ctx_;
  /// Fallback Telemetry (kOff) owned when none was passed.
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_;
  Counter* plans_counter_;
  Counter* epoch_retries_counter_;
  Counter* merge_wins_counter_;
  Counter* best_shard_wins_counter_;
  Histogram* plan_hist_;
  Histogram* merge_hist_;
  /// Per-shard fan-out latency (`ksir_planner_shard_fanout_seconds_<i>`):
  /// the one family where per-shard series matter — a straggler shard is
  /// exactly what the fan-out hides in aggregate.
  std::vector<Histogram*> shard_fanout_hists_;
};

}  // namespace ksir

#endif  // KSIR_SERVICE_QUERY_PLANNER_H_
