#include "service/query_planner.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "core/celf.h"

namespace ksir {

namespace {

/// One shard's contribution to a plan: its answer and its members' terms.
struct ShardAnswer {
  Status status;
  QueryResult result;
  std::vector<GainTerms> terms;
};

/// The scoring parameters every shard shares.
const ScoringParams& SharedScoring(const std::vector<KsirEngine*>& shards) {
  KSIR_CHECK(!shards.empty());
  return shards.front()->config().scoring;
}

}  // namespace

QueryPlanner::QueryPlanner(std::vector<KsirEngine*> shards,
                           const TopicModel* model, WorkerPool* pool,
                           Telemetry* telemetry)
    : shards_(std::move(shards)),
      pool_(pool),
      merge_ctx_(model, &empty_window_, SharedScoring(shards_)),
      owned_telemetry_(telemetry == nullptr ? std::make_unique<Telemetry>()
                                            : nullptr),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()) {
  KSIR_CHECK(pool_ != nullptr);
  MetricRegistry& reg = telemetry_->registry();
  plans_counter_ = reg.GetCounter("ksir_planner_plans_total",
                                  "Fan-out/merge plans executed");
  epoch_retries_counter_ = reg.GetCounter(
      "ksir_planner_epoch_retries_total",
      "Always 0: each shard answers under one lock, so nothing is re-run");
  merge_wins_counter_ = reg.GetCounter(
      "ksir_planner_merge_wins_total",
      "Plans where the merged set beat every single-shard result");
  best_shard_wins_counter_ = reg.GetCounter(
      "ksir_planner_best_shard_wins_total",
      "Plans resolved by the best-shard guard");
  plan_hist_ = reg.GetHistogram("ksir_planner_plan_seconds",
                                "One whole QueryPlanner::Plan");
  merge_hist_ = reg.GetHistogram(
      "ksir_planner_merge_seconds",
      "Merge step: CELF over the shards' resolved gain terms");
  shard_fanout_hists_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard_fanout_hists_.push_back(reg.GetHistogram(
        "ksir_planner_shard_fanout_seconds_" + std::to_string(i),
        "Query + gain-term export latency of shard " + std::to_string(i)));
  }
}

StatusOr<QueryResult> QueryPlanner::Plan(const KsirQuery& query) const {
  // One plan is one trace unit (matching the maintainer's bucket applies):
  // every sample_period-th plan gets its fan-out/merge spans recorded.
  telemetry_->tracer().SampleUnit();
  StageScope plan_scope(telemetry_, plan_hist_, "planner.plan");
  WallTimer timer;
  plans_counter_->Add(1);

  // --- Step 1: fan the query out to every shard in parallel. ---
  std::vector<ShardAnswer> answers(shards_.size());
  ParallelRun(pool_, shards_.size(), [&](std::size_t i) {
    StageScope scope(telemetry_, shard_fanout_hists_[i], "planner.fanout");
    ShardAnswer& answer = answers[i];
    auto result = shards_[i]->QueryWithTerms(query, &answer.terms);
    if (result.ok()) {
      answer.result = *std::move(result);
    } else {
      answer.status = result.status();
    }
  });
  for (const ShardAnswer& answer : answers) {
    KSIR_RETURN_NOT_OK(answer.status);
  }

  // Best single-shard answer: the guard result the merge has to beat.
  std::size_t best_shard = 0;
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    if (answers[i].result.score > answers[best_shard].result.score) {
      best_shard = i;
    }
  }

  // --- Step 2: CELF over the <= N*k candidates' gain terms. ---
  // Shards partition the stream, so candidate ids are distinct, and the
  // influence coverage across shards stays keyed by global referrer id.
  std::vector<GainTerms> candidates;
  for (ShardAnswer& answer : answers) {
    std::move(answer.terms.begin(), answer.terms.end(),
              std::back_inserter(candidates));
  }
  QueryResult merged;
  if (!candidates.empty()) {
    StageScope merge_scope(telemetry_, merge_hist_, "planner.merge");
    std::sort(candidates.begin(), candidates.end(),
              [](const GainTerms& a, const GainTerms& b) {
                return a.id() < b.id();
              });
    merged = RunCelfOverTerms(merge_ctx_, query, candidates);
  }

  // --- Step 3: never return less than the best single shard. ---
  QueryResult final_result;
  if (merged.score > answers[best_shard].result.score + 1e-12) {
    merge_wins_counter_->Add(1);
    final_result = std::move(merged);
  } else {
    best_shard_wins_counter_->Add(1);
    final_result = std::move(answers[best_shard].result);
    final_result.stats.num_evaluated += merged.stats.num_evaluated;
    final_result.stats.num_gain_evaluations +=
        merged.stats.num_gain_evaluations;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i == best_shard && merged.score <= answers[best_shard].result.score +
                                              1e-12) {
      continue;  // already counted via final_result
    }
    final_result.stats.num_evaluated += answers[i].result.stats.num_evaluated;
    final_result.stats.num_retrieved +=
        answers[i].result.stats.num_retrieved;
    final_result.stats.num_gain_evaluations +=
        answers[i].result.stats.num_gain_evaluations;
    final_result.stats.num_candidates_or_rounds +=
        answers[i].result.stats.num_candidates_or_rounds;
  }
  final_result.stats.elapsed_ms = timer.ElapsedMillis();
  return final_result;
}

PlannerStats QueryPlanner::stats() const {
  PlannerStats stats;
  stats.plans = plans_counter_->Value();
  stats.epoch_retries = epoch_retries_counter_->Value();
  stats.merge_wins = merge_wins_counter_->Value();
  stats.best_shard_wins = best_shard_wins_counter_->Value();
  return stats;
}

}  // namespace ksir
