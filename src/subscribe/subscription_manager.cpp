#include "subscribe/subscription_manager.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace ksir {

namespace {

/// Rank of `id` in `result` (selection order), or -1. Linear: |result| <= k
/// and k is small.
std::int32_t RankOf(const std::vector<ElementId>& result, ElementId id) {
  for (std::size_t i = 0; i < result.size(); ++i) {
    if (result[i] == id) return static_cast<std::int32_t>(i);
  }
  return -1;
}

std::uint64_t MixBits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return FlatHash::Mix(bits);
}

}  // namespace

SubscriptionManager::SubscriptionManager(Evaluator evaluator,
                                         SubscriptionMode mode,
                                         Telemetry* telemetry)
    : evaluator_(std::move(evaluator)),
      mode_(mode),
      owned_telemetry_(telemetry == nullptr ? std::make_unique<Telemetry>()
                                            : nullptr),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()) {
  KSIR_CHECK(evaluator_ != nullptr);
  MetricRegistry& reg = telemetry_->registry();
  registered_counter_ = reg.GetCounter("ksir_sub_registered_total",
                                       "Standing subscriptions registered");
  activated_counter_ = reg.GetCounter(
      "ksir_sub_activated_total",
      "Subscription evaluations delivered (woken by touched topics, fresh "
      "registration, or the naive baseline)");
  skipped_counter_ = reg.GetCounter(
      "ksir_sub_skipped_total",
      "Subscriptions skipped by the inverted topic index (no touched topic "
      "in the query support)");
  evaluations_counter_ = reg.GetCounter(
      "ksir_sub_evaluations_total",
      "Standing-query evaluator invocations (a shared group counts once)");
  shared_counter_ = reg.GetCounter(
      "ksir_sub_shared_hits_total",
      "Subscription results served from another identical subscription's "
      "evaluation in the same group");
  deltas_counter_ = reg.GetCounter(
      "ksir_sub_deltas_total",
      "Delta events (enter/leave/reorder) emitted to subscription callbacks");
  evaluate_hist_ = reg.GetHistogram(
      "ksir_sub_evaluate_seconds",
      "One standing-query evaluation round (all activated groups)");
}

SubscriptionManager::~SubscriptionManager() {
  KSIR_CHECK(!evaluating_);
  for (Subscription* sub : order_) sub_pool_.Destroy(sub);
  for (Group* group : groups_) group_pool_.Destroy(group);
}

bool SubscriptionManager::AlwaysActive(const KsirQuery& query) {
  // SieveStreaming admits zero-gain elements once a candidate set passes
  // phi/2 (needed <= 0), and BruteForce breaks score ties by enumeration
  // order — for both, a result can change without any supported topic
  // moving, so topic-indexed skipping would diverge from the naive
  // baseline. Empty supports post nowhere and must still surface their
  // validation error every round.
  return query.x.empty() || query.algorithm == Algorithm::kSieveStreaming ||
         query.algorithm == Algorithm::kBruteForce;
}

bool SubscriptionManager::SameQuery(const KsirQuery& a, const KsirQuery& b) {
  return a.k == b.k && a.algorithm == b.algorithm && a.epsilon == b.epsilon &&
         a.x == b.x;
}

std::uint64_t SubscriptionManager::HashQuery(const KsirQuery& query) {
  std::uint64_t h = FlatHash::Mix(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(query.k)) << 8) ^
      static_cast<std::uint64_t>(query.algorithm));
  h ^= MixBits(query.epsilon);
  for (const auto& [index, value] : query.x.entries()) {
    h = FlatHash::Mix(
        h ^ FlatHash::Mix(static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(index)) ^
                          MixBits(value)));
  }
  return h;
}

std::int64_t SubscriptionManager::Subscribe(KsirQuery query,
                                            SubscriptionCallback callback) {
  KSIR_CHECK(callback != nullptr);
  Subscription* sub = sub_pool_.Create();
  sub->id = next_id_++;
  sub->callback = std::move(callback);
  subs_.emplace(sub->id, sub);
  registered_counter_->Add(1);
  ++totals_.registered;
  if (evaluating_) {
    // Deferred attach: the new subscription is first evaluated next round
    // (attaching now could wake it mid-round, before its group's turn).
    pending_adds_.push_back(PendingAdd{sub, std::move(query)});
  } else {
    Attach(sub, std::move(query));
  }
  return sub->id;
}

bool SubscriptionManager::Unsubscribe(std::int64_t id) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) return false;
  Subscription* sub = it->second;
  subs_.erase(id);
  sub->alive = false;  // stops callbacks immediately, even mid-round
  if (evaluating_) {
    pending_removes_.push_back(sub);
  } else {
    Detach(sub);
  }
  return true;
}

void SubscriptionManager::Attach(Subscription* sub, KsirQuery query) {
  sub->order_slot = static_cast<std::uint32_t>(order_.size());
  order_.push_back(sub);
  Group* group = FindOrCreateGroup(std::move(query));
  sub->member_slot = static_cast<std::uint32_t>(group->members.size());
  group->members.push_back(sub);
  sub->group = group;
  if (!group->has_fresh) {
    group->has_fresh = true;
    fresh_groups_.push_back(group);
  }
}

SubscriptionManager::Group* SubscriptionManager::FindOrCreateGroup(
    KsirQuery query) {
  const std::uint64_t hash = HashQuery(query);
  std::vector<Group*>& bucket = groups_by_hash_[hash];
  for (Group* group : bucket) {
    if (SameQuery(group->query, query)) return group;
  }
  Group* group = group_pool_.Create();
  group->query = std::move(query);
  group->always_active = AlwaysActive(group->query);
  group->group_slot = static_cast<std::uint32_t>(groups_.size());
  groups_.push_back(group);
  bucket.push_back(group);
  if (group->always_active) {
    group->always_slot = static_cast<std::int32_t>(always_active_groups_.size());
    always_active_groups_.push_back(group);
  } else {
    index_.Add(group);
  }
  return group;
}

void SubscriptionManager::Detach(Subscription* sub) {
  KSIR_CHECK(!evaluating_);
  if (sub->group == nullptr) {
    // A deferred add that was unsubscribed before it ever attached.
    sub_pool_.Destroy(sub);
    return;
  }
  Subscription* moved_order = order_.back();
  order_[sub->order_slot] = moved_order;
  moved_order->order_slot = sub->order_slot;
  order_.pop_back();
  Group* group = sub->group;
  Subscription* moved_member = group->members.back();
  group->members[sub->member_slot] = moved_member;
  moved_member->member_slot = sub->member_slot;
  group->members.pop_back();
  if (group->members.empty()) DestroyGroup(group);
  sub_pool_.Destroy(sub);
}

void SubscriptionManager::DestroyGroup(Group* group) {
  const std::uint64_t hash = HashQuery(group->query);
  const auto it = groups_by_hash_.find(hash);
  KSIR_CHECK(it != groups_by_hash_.end());
  std::vector<Group*>& bucket = it->second;
  const auto pos = std::find(bucket.begin(), bucket.end(), group);
  KSIR_CHECK(pos != bucket.end());
  *pos = bucket.back();
  bucket.pop_back();
  if (bucket.empty()) groups_by_hash_.erase(hash);
  if (group->always_active) {
    Group* moved = always_active_groups_.back();
    always_active_groups_[static_cast<std::size_t>(group->always_slot)] =
        moved;
    moved->always_slot = group->always_slot;
    always_active_groups_.pop_back();
  } else {
    index_.Remove(group);
  }
  Group* moved_group = groups_.back();
  groups_[group->group_slot] = moved_group;
  moved_group->group_slot = group->group_slot;
  groups_.pop_back();
  if (group->has_fresh) {
    const auto fresh = std::find(fresh_groups_.begin(), fresh_groups_.end(),
                                 group);
    KSIR_CHECK(fresh != fresh_groups_.end());
    *fresh = fresh_groups_.back();
    fresh_groups_.pop_back();
  }
  group_pool_.Destroy(group);
}

void SubscriptionManager::ApplyDeferred() {
  // Adds first (a dead pending add is destroyed by its queued remove; the
  // remove list is processed after, so the order of a subscribe +
  // unsubscribe pair within one round never resurrects the entry).
  for (PendingAdd& add : pending_adds_) {
    if (!add.sub->alive) continue;
    Attach(add.sub, std::move(add.query));
  }
  pending_adds_.clear();
  for (Subscription* sub : pending_removes_) Detach(sub);
  pending_removes_.clear();
}

Status SubscriptionManager::EvaluateAll(std::uint64_t epoch) {
  return RunRound(nullptr, epoch);
}

Status SubscriptionManager::EvaluateAffected(const AdvanceSummary& summary) {
  if (mode_ == SubscriptionMode::kNaive) return EvaluateAll(summary.epoch);
  if (summary.epoch <= last_epoch_) {
    const AdvanceSummary quiet;
    return RunRound(&quiet, summary.epoch);
  }
  return RunRound(&summary, summary.epoch);
}

std::size_t SubscriptionManager::EmitUpdate(Subscription* sub,
                                            const QueryResult& result,
                                            std::uint64_t epoch) {
  const std::vector<ElementId>& next = result.element_ids;
  const std::vector<ElementId>& prev = sub->last_result;
  const bool first = !sub->evaluated_once;
  delta_scratch_.clear();
  reorder_scratch_.clear();
  bool set_changed = false;
  if (first) {
    set_changed = !next.empty();
    for (std::size_t j = 0; j < next.size(); ++j) {
      delta_scratch_.push_back(
          SubscriptionDelta{SubscriptionDelta::Kind::kEnter, next[j], -1,
                            static_cast<std::int32_t>(j)});
    }
  } else {
    for (std::size_t i = 0; i < prev.size(); ++i) {
      if (RankOf(next, prev[i]) < 0) {
        delta_scratch_.push_back(
            SubscriptionDelta{SubscriptionDelta::Kind::kLeave, prev[i],
                              static_cast<std::int32_t>(i), -1});
        set_changed = true;
      }
    }
    for (std::size_t j = 0; j < next.size(); ++j) {
      const std::int32_t old_rank = RankOf(prev, next[j]);
      const auto new_rank = static_cast<std::int32_t>(j);
      if (old_rank < 0) {
        delta_scratch_.push_back(SubscriptionDelta{
            SubscriptionDelta::Kind::kEnter, next[j], -1, new_rank});
        set_changed = true;
      } else if (old_rank != new_rank) {
        reorder_scratch_.push_back(SubscriptionDelta{
            SubscriptionDelta::Kind::kReorder, next[j], old_rank, new_rank});
      }
    }
    delta_scratch_.insert(delta_scratch_.end(), reorder_scratch_.begin(),
                          reorder_scratch_.end());
  }
  sub->last_result.assign(next.begin(), next.end());
  sub->evaluated_once = true;
  const std::size_t num_deltas = delta_scratch_.size();
  SubscriptionUpdate update;
  update.subscription_id = sub->id;
  update.epoch = epoch;
  update.first = first;
  update.set_changed = set_changed;
  update.result = &result;
  update.deltas = delta_scratch_.data();
  update.num_deltas = num_deltas;
  sub->callback(update);
  return num_deltas;
}

Status SubscriptionManager::RunRound(const AdvanceSummary* summary,
                                     std::uint64_t epoch) {
  // No nested rounds: a callback may mutate the registry, not evaluate.
  KSIR_CHECK(!evaluating_);
  evaluating_ = true;
  last_epoch_ = epoch;
  StageScope scope(telemetry_, evaluate_hist_, "sub.evaluate");
  Status first_error = Status::OK();
  const auto eligible = static_cast<std::int64_t>(order_.size());
  std::int64_t activated = 0;
  std::int64_t evaluations = 0;
  std::int64_t shared = 0;
  std::int64_t deltas = 0;

  // One evaluator call serves every (eligible) member of the group — the
  // shared ranked-list pass. `fresh_only` restricts the fan-out to
  // never-evaluated members (a group woken only because of a fresh
  // registration must not re-notify its settled members).
  const auto evaluate_group = [&](Group* group, bool fresh_only) {
    std::int64_t fanned = 0;
    for (Subscription* sub : group->members) {
      if (sub->alive && (!fresh_only || !sub->evaluated_once)) ++fanned;
    }
    if (fanned == 0) return;
    activated += fanned;
    StatusOr<QueryResult> result = evaluator_(group->query);
    ++evaluations;
    if (!result.ok()) {
      if (first_error.ok()) first_error = result.status();
      return;
    }
    if (fanned > 1) shared += fanned - 1;
    // Index-based fan-out: a callback's Subscribe may grow the pending
    // list but never group->members mid-round.
    for (std::size_t m = 0; m < group->members.size(); ++m) {
      Subscription* sub = group->members[m];
      if (!sub->alive || (fresh_only && sub->evaluated_once)) continue;
      deltas += static_cast<std::int64_t>(
          EmitUpdate(sub, result.value(), epoch));
    }
  };

  fresh_scratch_.clear();
  fresh_scratch_.swap(fresh_groups_);

  if (summary == nullptr) {
    // Naive reference round: one evaluation per subscription, no sharing,
    // no skipping (the baseline the differential tests compare the indexed
    // path against).
    for (std::size_t i = 0; i < static_cast<std::size_t>(eligible); ++i) {
      Subscription* sub = order_[i];
      if (!sub->alive) continue;
      ++activated;
      StatusOr<QueryResult> result = evaluator_(sub->group->query);
      ++evaluations;
      if (!result.ok()) {
        if (first_error.ok()) first_error = result.status();
        continue;
      }
      deltas +=
          static_cast<std::int64_t>(EmitUpdate(sub, result.value(), epoch));
    }
  } else {
    ++round_;
    activated_scratch_.clear();
    for (const AdvanceSummary::TopicTouch& touch : summary->topics) {
      index_.ForEachPosted(touch.topic, [&](Group* group) {
        if (group->round_stamp == round_) return;
        group->round_stamp = round_;
        activated_scratch_.push_back(group);
      });
    }
    for (Group* group : always_active_groups_) {
      if (group->round_stamp == round_) continue;
      group->round_stamp = round_;
      activated_scratch_.push_back(group);
    }
    for (Group* group : activated_scratch_) {
      evaluate_group(group, /*fresh_only=*/false);
    }
    // Fresh registrations fire their first event this round even when
    // their topics were untouched.
    for (Group* group : fresh_scratch_) {
      if (group->round_stamp == round_) continue;  // already ran above
      evaluate_group(group, /*fresh_only=*/true);
    }
  }

  // Rebuild the fresh list: only groups whose first evaluation failed (or
  // never ran) keep their members pending.
  for (Group* group : fresh_scratch_) {
    group->has_fresh = false;
    for (Subscription* sub : group->members) {
      if (sub->alive && !sub->evaluated_once) {
        group->has_fresh = true;
        break;
      }
    }
    if (group->has_fresh) fresh_groups_.push_back(group);
  }
  fresh_scratch_.clear();

  evaluating_ = false;
  ApplyDeferred();

  const std::int64_t skipped =
      summary == nullptr ? 0 : std::max<std::int64_t>(0, eligible - activated);
  if (activated > 0) activated_counter_->Add(activated);
  if (skipped > 0) skipped_counter_->Add(skipped);
  if (evaluations > 0) evaluations_counter_->Add(evaluations);
  if (shared > 0) shared_counter_->Add(shared);
  if (deltas > 0) deltas_counter_->Add(deltas);
  totals_.activated += activated;
  totals_.skipped += skipped;
  totals_.evaluations += evaluations;
  totals_.shared_hits += shared;
  totals_.deltas += deltas;
  return first_error;
}

}  // namespace ksir
