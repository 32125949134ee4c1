// Subscription engine tests: delta semantics, re-entrant registry
// mutation, shared group evaluation, inverted-index activation/skipping,
// the epoch guard and the advance-summary merge, and the differential
// guarantee — the indexed path's delivered views are identical to the
// naive full re-evaluation, over random streams, on both a single engine
// (score sources, parallel apply and the pipeline's switchable layers x
// refresh mode, with rounds after every bucket and every third bucket) and
// the sharded service.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "service/service.h"
#include "stream_gen.h"
#include "subscribe/subscription_index.h"
#include "subscribe/subscription_manager.h"
#include "topic/topic_model.h"

namespace ksir {
namespace {

SparseVector UnitVector(TopicId topic) {
  return SparseVector::FromEntries({{topic, 1.0}});
}

KsirQuery MakeQuery(SparseVector x, int k = 3,
                    Algorithm algorithm = Algorithm::kTopkRepresentative) {
  KsirQuery query;
  query.k = k;
  query.x = std::move(x);
  query.algorithm = algorithm;
  query.epsilon = 0.2;
  return query;
}

/// Evaluator returning a scripted result (shared mutable state so tests
/// can change the "current answer" between rounds) and counting calls.
struct ScriptedEvaluator {
  std::vector<ElementId> current;
  int calls = 0;

  SubscriptionManager::Evaluator fn() {
    return [this](const KsirQuery&) -> StatusOr<QueryResult> {
      ++calls;
      QueryResult result;
      result.element_ids = current;
      return result;
    };
  }
};

/// One recorded delivery, flattened for easy comparison.
struct Delivery {
  std::uint64_t epoch;
  bool first;
  bool set_changed;
  std::vector<ElementId> result;
  std::vector<SubscriptionDelta> deltas;
};

SubscriptionCallback Recorder(std::vector<Delivery>* log) {
  return [log](const SubscriptionUpdate& update) {
    Delivery d;
    d.epoch = update.epoch;
    d.first = update.first;
    d.set_changed = update.set_changed;
    d.result = update.result->element_ids;
    d.deltas.assign(update.deltas, update.deltas + update.num_deltas);
    log->push_back(std::move(d));
  };
}

/// Applies one update's deltas to the previously delivered list; the
/// reconstruction must equal the delivered result (the delta stream alone
/// carries the full new view).
std::vector<ElementId> ReplayDeltas(const std::vector<ElementId>& prev,
                                    const Delivery& d) {
  std::set<ElementId> leaving;
  std::map<ElementId, std::int32_t> moved;
  std::size_t num_enters = 0;
  for (const SubscriptionDelta& delta : d.deltas) {
    if (delta.kind == SubscriptionDelta::Kind::kLeave) {
      leaving.insert(delta.id);
    } else if (delta.kind == SubscriptionDelta::Kind::kReorder) {
      moved.emplace(delta.id, delta.new_rank);
    } else {
      ++num_enters;
    }
  }
  std::vector<ElementId> next(prev.size() - leaving.size() + num_enters, -1);
  for (std::size_t i = 0; i < prev.size(); ++i) {
    if (leaving.count(prev[i]) > 0) continue;
    const auto it = moved.find(prev[i]);
    // A surviving element without a reorder delta kept its rank.
    const std::size_t rank =
        it == moved.end() ? i : static_cast<std::size_t>(it->second);
    next[rank] = prev[i];
  }
  for (const SubscriptionDelta& delta : d.deltas) {
    if (delta.kind == SubscriptionDelta::Kind::kEnter) {
      next[static_cast<std::size_t>(delta.new_rank)] = delta.id;
    }
  }
  return next;
}

// ---------------------------------------------------------- delta diff ----

TEST(SubscriptionDeltaTest, FirstEvaluationIsAllEnters) {
  ScriptedEvaluator eval;
  eval.current = {7, 3, 9};
  SubscriptionManager manager(eval.fn());
  std::vector<Delivery> log;
  manager.Subscribe(MakeQuery(UnitVector(0)), Recorder(&log));
  ASSERT_TRUE(manager.EvaluateAll(1).ok());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log[0].first);
  EXPECT_TRUE(log[0].set_changed);
  EXPECT_EQ(log[0].epoch, 1u);
  ASSERT_EQ(log[0].deltas.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(log[0].deltas[i].kind, SubscriptionDelta::Kind::kEnter);
    EXPECT_EQ(log[0].deltas[i].id, log[0].result[i]);
    EXPECT_EQ(log[0].deltas[i].old_rank, -1);
    EXPECT_EQ(log[0].deltas[i].new_rank, static_cast<std::int32_t>(i));
  }
}

TEST(SubscriptionDeltaTest, LeavesEntersReordersInOrder) {
  ScriptedEvaluator eval;
  eval.current = {1, 2, 3};
  SubscriptionManager manager(eval.fn());
  std::vector<Delivery> log;
  manager.Subscribe(MakeQuery(UnitVector(0)), Recorder(&log));
  ASSERT_TRUE(manager.EvaluateAll(1).ok());
  // 1 leaves, 4 enters at rank 0, 2 and 3 shift down.
  eval.current = {4, 3, 2};
  ASSERT_TRUE(manager.EvaluateAll(2).ok());
  ASSERT_EQ(log.size(), 2u);
  const Delivery& d = log[1];
  EXPECT_FALSE(d.first);
  EXPECT_TRUE(d.set_changed);
  ASSERT_EQ(d.deltas.size(), 4u);
  EXPECT_EQ(d.deltas[0].kind, SubscriptionDelta::Kind::kLeave);
  EXPECT_EQ(d.deltas[0].id, 1);
  EXPECT_EQ(d.deltas[0].old_rank, 0);
  EXPECT_EQ(d.deltas[1].kind, SubscriptionDelta::Kind::kEnter);
  EXPECT_EQ(d.deltas[1].id, 4);
  EXPECT_EQ(d.deltas[1].new_rank, 0);
  EXPECT_EQ(d.deltas[2].kind, SubscriptionDelta::Kind::kReorder);
  EXPECT_EQ(d.deltas[2].id, 3);
  EXPECT_EQ(d.deltas[2].old_rank, 2);
  EXPECT_EQ(d.deltas[2].new_rank, 1);
  EXPECT_EQ(d.deltas[3].kind, SubscriptionDelta::Kind::kReorder);
  EXPECT_EQ(d.deltas[3].id, 2);
  EXPECT_EQ(d.deltas[3].old_rank, 1);
  EXPECT_EQ(d.deltas[3].new_rank, 2);
  EXPECT_EQ(ReplayDeltas(log[0].result, d), d.result);
}

TEST(SubscriptionDeltaTest, PureReorderLeavesSetUnchanged) {
  ScriptedEvaluator eval;
  eval.current = {1, 2};
  SubscriptionManager manager(eval.fn());
  std::vector<Delivery> log;
  manager.Subscribe(MakeQuery(UnitVector(0)), Recorder(&log));
  ASSERT_TRUE(manager.EvaluateAll(1).ok());
  eval.current = {2, 1};
  ASSERT_TRUE(manager.EvaluateAll(2).ok());
  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(log[1].set_changed);
  ASSERT_EQ(log[1].deltas.size(), 2u);
  EXPECT_EQ(log[1].deltas[0].kind, SubscriptionDelta::Kind::kReorder);
  EXPECT_EQ(log[1].deltas[1].kind, SubscriptionDelta::Kind::kReorder);
  // Identical result: a delivery still happens (naive round) but carries
  // no deltas.
  ASSERT_TRUE(manager.EvaluateAll(3).ok());
  ASSERT_EQ(log.size(), 3u);
  EXPECT_FALSE(log[2].set_changed);
  EXPECT_EQ(log[2].deltas.size(), 0u);
}

// -------------------------------------------------------- re-entrancy -----

// Regression: with the std::map-based legacy manager, a callback calling
// Unregister invalidated the EvaluateAll iterator (UB / crash). The
// subscription engine defers registry mutation to the end of the round.
TEST(SubscriptionReentrancyTest, CallbackMayMutateRegistryMidRound) {
  ScriptedEvaluator eval;
  eval.current = {1};
  SubscriptionManager manager(eval.fn(), SubscriptionMode::kNaive);
  std::vector<Delivery> first_log, victim_log, late_log;
  std::int64_t victim_id = 0;
  std::int64_t self_id = 0;
  std::int64_t late_id = 0;
  // Distinct queries -> distinct groups, so the mutation happens while the
  // round is still iterating other groups.
  self_id = manager.Subscribe(
      MakeQuery(UnitVector(0)), [&](const SubscriptionUpdate& update) {
        first_log.push_back({update.epoch, update.first, update.set_changed,
                             update.result->element_ids, {}});
        // Mutate everything mid-round: drop a peer, drop ourselves,
        // register a newcomer.
        EXPECT_TRUE(manager.Unsubscribe(victim_id));
        EXPECT_TRUE(manager.Unsubscribe(self_id));
        late_id = manager.Subscribe(MakeQuery(UnitVector(2)),
                                    Recorder(&late_log));
      });
  victim_id = manager.Subscribe(MakeQuery(UnitVector(1)),
                                Recorder(&victim_log));
  ASSERT_TRUE(manager.EvaluateAll(1).ok());
  // The victim was unsubscribed by an earlier callback in the same round:
  // no delivery. The newcomer joins the NEXT round.
  EXPECT_EQ(first_log.size(), 1u);
  EXPECT_EQ(victim_log.size(), 0u);
  EXPECT_EQ(late_log.size(), 0u);
  EXPECT_EQ(manager.size(), 1u);
  ASSERT_TRUE(manager.EvaluateAll(2).ok());
  EXPECT_EQ(first_log.size(), 1u);  // unsubscribed self
  ASSERT_EQ(late_log.size(), 1u);
  EXPECT_EQ(late_log[0].epoch, 2u);
  EXPECT_NE(late_id, 0);
}

TEST(SubscriptionReentrancyTest, SubscribeThenUnsubscribeSameRound) {
  ScriptedEvaluator eval;
  eval.current = {1};
  SubscriptionManager manager(eval.fn());
  std::vector<Delivery> log, ephemeral_log;
  manager.Subscribe(
      MakeQuery(UnitVector(0)), [&](const SubscriptionUpdate& update) {
        log.push_back({update.epoch, update.first, update.set_changed,
                       update.result->element_ids, {}});
        const std::int64_t id = manager.Subscribe(MakeQuery(UnitVector(1)),
                                                  Recorder(&ephemeral_log));
        EXPECT_TRUE(manager.Unsubscribe(id));
      });
  ASSERT_TRUE(manager.EvaluateAll(1).ok());
  ASSERT_TRUE(manager.EvaluateAll(2).ok());
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(ephemeral_log.size(), 0u);
  EXPECT_EQ(manager.size(), 1u);
}

// ------------------------------------------------------ shared groups -----

AdvanceSummary TouchOnly(std::vector<TopicId> topics, std::uint64_t epoch) {
  AdvanceSummary summary;
  summary.epoch = epoch;
  for (const TopicId topic : topics) {
    summary.topics.push_back({topic, 1.0});
  }
  return summary;
}

TEST(SubscriptionGroupTest, IdenticalQueriesShareOneEvaluation) {
  ScriptedEvaluator eval;
  eval.current = {5, 6};
  SubscriptionManager manager(eval.fn(), SubscriptionMode::kIndexed);
  std::vector<Delivery> logs[4];
  const KsirQuery query = MakeQuery(UnitVector(1), /*k=*/2);
  for (auto& log : logs) manager.Subscribe(query, Recorder(&log));
  EXPECT_EQ(manager.num_groups(), 1u);
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({1}, 1)).ok());
  EXPECT_EQ(eval.calls, 1);
  for (const auto& log : logs) {
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].result, (std::vector<ElementId>{5, 6}));
  }
  const auto& totals = manager.totals();
  EXPECT_EQ(totals.evaluations, 1);
  EXPECT_EQ(totals.shared_hits, 3);
  EXPECT_EQ(totals.activated, 4);
  // A different epsilon is a different query: new group, second call.
  KsirQuery other = query;
  other.epsilon = 0.3;
  std::vector<Delivery> other_log;
  manager.Subscribe(other, Recorder(&other_log));
  EXPECT_EQ(manager.num_groups(), 2u);
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({1}, 2)).ok());
  EXPECT_EQ(eval.calls, 3);
  // The naive reference round shares nothing: one call per subscription.
  ASSERT_TRUE(manager.EvaluateAll(3).ok());
  EXPECT_EQ(eval.calls, 8);
}

// ----------------------------------------------- activation / skipping ----

TEST(SubscriptionIndexTest, OnlyTouchedTopicsActivate) {
  ScriptedEvaluator eval;
  eval.current = {1};
  SubscriptionManager manager(eval.fn(), SubscriptionMode::kIndexed);
  std::vector<Delivery> logs[3];
  manager.Subscribe(MakeQuery(UnitVector(0)), Recorder(&logs[0]));
  manager.Subscribe(MakeQuery(UnitVector(1)), Recorder(&logs[1]));
  manager.Subscribe(MakeQuery(UnitVector(2)), Recorder(&logs[2]));
  // Round 1: nothing touched, but all three are fresh -> first delivery.
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({}, 1)).ok());
  EXPECT_EQ(logs[0].size(), 1u);
  EXPECT_EQ(logs[1].size(), 1u);
  EXPECT_EQ(logs[2].size(), 1u);
  // Round 2: only topic 1 touched.
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({1}, 2)).ok());
  EXPECT_EQ(logs[0].size(), 1u);
  EXPECT_EQ(logs[1].size(), 2u);
  EXPECT_EQ(logs[2].size(), 1u);
  const auto& totals = manager.totals();
  EXPECT_EQ(totals.activated, 4);
  EXPECT_EQ(totals.skipped, 2);  // round 2 skipped topics 0 and 2
  // Round 3: untouched round wakes nobody.
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({}, 3)).ok());
  EXPECT_EQ(manager.totals().skipped, 5);
  EXPECT_EQ(manager.totals().activated, 4);
}

TEST(SubscriptionIndexTest, SieveStreamingIsAlwaysActivated) {
  ScriptedEvaluator eval;
  eval.current = {1};
  SubscriptionManager manager(eval.fn(), SubscriptionMode::kIndexed);
  std::vector<Delivery> log;
  manager.Subscribe(
      MakeQuery(UnitVector(0), /*k=*/2, Algorithm::kSieveStreaming),
      Recorder(&log));
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({}, 1)).ok());
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({5}, 2)).ok());
  // Never skipped, its topic being untouched notwithstanding.
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(manager.totals().skipped, 0);
}

TEST(SubscriptionIndexTest, UnsubscribeRemovesPostings) {
  ScriptedEvaluator eval;
  eval.current = {1};
  SubscriptionManager manager(eval.fn(), SubscriptionMode::kIndexed);
  std::vector<Delivery> log;
  const std::int64_t id =
      manager.Subscribe(MakeQuery(UnitVector(0)), Recorder(&log));
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({0}, 1)).ok());
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(manager.Unsubscribe(id));
  EXPECT_FALSE(manager.Unsubscribe(id));
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({0}, 2)).ok());
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_EQ(manager.num_groups(), 0u);
}

// A summary no newer than the previous round touches nothing; the
// argument-free EvaluateAll runs at the previous round's epoch.
TEST(SubscriptionIndexTest, StaleSummaryTouchesNoTopic) {
  ScriptedEvaluator eval;
  eval.current = {1};
  SubscriptionManager manager(eval.fn(), SubscriptionMode::kIndexed);
  std::vector<Delivery> log;
  manager.Subscribe(MakeQuery(UnitVector(0)), Recorder(&log));
  ASSERT_TRUE(manager.EvaluateAll().ok());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].epoch, 0u);  // no round before: epoch 0
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({0}, 2)).ok());
  EXPECT_EQ(log.size(), 2u);
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({0}, 2)).ok());
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({0}, 1)).ok());
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(eval.calls, 2);
  ASSERT_TRUE(manager.EvaluateAffected(TouchOnly({0}, 3)).ok());
  EXPECT_EQ(log.size(), 3u);
  ASSERT_TRUE(manager.EvaluateAll().ok());
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[3].epoch, 3u);
}

// ----------------------------------------------------- summary merge ----

AdvanceSummary Touches(
    std::vector<AdvanceSummary::TopicTouch> topics, std::uint64_t epoch) {
  AdvanceSummary summary;
  summary.topics = std::move(topics);
  summary.epoch = epoch;
  return summary;
}

std::vector<std::pair<TopicId, double>> Flatten(
    const AdvanceSummary& summary) {
  std::vector<std::pair<TopicId, double>> out;
  for (const auto& touch : summary.topics) {
    out.emplace_back(touch.topic, touch.max_movement);
  }
  return out;
}

TEST(AdvanceSummaryMergeTest, UnionsAndSortsTopics) {
  const AdvanceSummary merged = MergeAdvanceSummaries(
      {Touches({{1, 0.1}, {5, 0.5}}, 4), Touches({{0, 0.2}, {3, 0.3}}, 4)},
      4);
  EXPECT_EQ(Flatten(merged), (std::vector<std::pair<TopicId, double>>{
                                 {0, 0.2}, {1, 0.1}, {3, 0.3}, {5, 0.5}}));
}

TEST(AdvanceSummaryMergeTest, DuplicateTopicKeepsMaxMovement) {
  const AdvanceSummary merged = MergeAdvanceSummaries(
      {Touches({{2, 0.1}, {7, 0.9}}, 1), Touches({{2, 0.4}}, 1),
       Touches({{2, 0.3}, {7, 0.2}}, 1)},
      1);
  EXPECT_EQ(Flatten(merged), (std::vector<std::pair<TopicId, double>>{
                                 {2, 0.4}, {7, 0.9}}));
}

TEST(AdvanceSummaryMergeTest, StampsTheGivenEpoch) {
  // The inputs' own epochs are ignored: the service stamps its epoch, a
  // fold stamps the newest bucket's.
  const AdvanceSummary merged = MergeAdvanceSummaries(
      {Touches({{1, 0.1}}, 3), Touches({{1, 0.2}}, 5)}, 9);
  EXPECT_EQ(merged.epoch, 9u);
}

TEST(AdvanceSummaryMergeTest, EmptyAndSingleInputs) {
  const AdvanceSummary none = MergeAdvanceSummaries({}, 7);
  EXPECT_TRUE(none.topics.empty());
  EXPECT_EQ(none.epoch, 7u);
  const AdvanceSummary single =
      MergeAdvanceSummaries({Touches({{0, 0.5}, {4, 0.25}}, 2)}, 2);
  EXPECT_EQ(Flatten(single), (std::vector<std::pair<TopicId, double>>{
                                 {0, 0.5}, {4, 0.25}}));
  EXPECT_EQ(single.epoch, 2u);
}

// Toy item type for the index template itself.
struct ToyItem {
  SparseVector x;
  SmallVector<std::uint32_t, 2> slots;
  const SparseVector& support() const { return x; }
  SmallVector<std::uint32_t, 2>& posting_slots() { return slots; }
};

TEST(InvertedTopicIndexTest, AddRemoveBackpatch) {
  InvertedTopicIndex<ToyItem> index;
  ToyItem a{SparseVector::FromEntries({{0, 0.5}, {1, 0.5}}), {}};
  ToyItem b{SparseVector::FromEntries({{1, 1.0}}), {}};
  ToyItem c{SparseVector::FromEntries({{1, 0.2}, {2, 0.8}}), {}};
  index.Add(&a);
  index.Add(&b);
  index.Add(&c);
  EXPECT_EQ(index.num_postings(), 5u);
  auto posted = [&](TopicId topic) {
    std::multiset<const ToyItem*> items;
    index.ForEachPosted(topic, [&](ToyItem* item) { items.insert(item); });
    return items;
  };
  EXPECT_EQ(posted(1), (std::multiset<const ToyItem*>{&a, &b, &c}));
  // Remove the middle posting: c's slot under topic 1 is back-patched.
  index.Remove(&b);
  EXPECT_EQ(index.num_postings(), 4u);
  EXPECT_EQ(posted(1), (std::multiset<const ToyItem*>{&a, &c}));
  index.Remove(&c);
  EXPECT_EQ(posted(1), (std::multiset<const ToyItem*>{&a}));
  EXPECT_EQ(posted(2), (std::multiset<const ToyItem*>{}));
  index.Remove(&a);
  EXPECT_EQ(index.num_postings(), 0u);
}

// ------------------------------------------------ differential streams ----

/// A subscription's delivered view, updated from the delta stream, plus
/// the raw last result for cross-checking.
struct View {
  std::vector<ElementId> replayed;  // reconstructed from deltas only
  std::vector<ElementId> delivered;  // result as delivered
  std::uint64_t last_epoch = 0;
};

SubscriptionCallback ViewTracker(View* view) {
  return [view](const SubscriptionUpdate& update) {
    Delivery d;
    d.deltas.assign(update.deltas, update.deltas + update.num_deltas);
    view->replayed = ReplayDeltas(view->replayed, d);
    view->delivered = update.result->element_ids;
    view->last_epoch = update.epoch;
  };
}

/// Standing queries registered in both managers: sparse 1-2 topic vectors
/// plus a mixed bag of algorithms, including the always-activated sieve.
std::vector<KsirQuery> DifferentialQueries(int num_topics) {
  std::vector<KsirQuery> queries;
  for (TopicId topic = 0; topic < num_topics; topic += 2) {
    queries.push_back(MakeQuery(UnitVector(topic), /*k=*/3,
                                Algorithm::kTopkRepresentative));
  }
  queries.push_back(MakeQuery(
      SparseVector::FromEntries({{1, 0.5}, {3, 0.5}}), /*k=*/3,
      Algorithm::kMttd));
  queries.push_back(MakeQuery(
      SparseVector::FromEntries({{0, 0.3}, {5, 0.7}}), /*k=*/2,
      Algorithm::kCelf));
  queries.push_back(MakeQuery(UnitVector(2), /*k=*/2, Algorithm::kMtts));
  queries.push_back(
      MakeQuery(UnitVector(4), /*k=*/2, Algorithm::kSieveStreaming));
  // Duplicate of the first: exercises group sharing inside the sweep.
  queries.push_back(MakeQuery(UnitVector(0), /*k=*/3,
                              Algorithm::kTopkRepresentative));
  return queries;
}

SubscriptionManager::Evaluator EngineEvaluator(const KsirEngine& engine) {
  return [&engine](const KsirQuery& query) { return engine.Query(query); };
}

/// Feeds one stream to `base` and runs a naive and an indexed manager
/// every `round_every` buckets. The indexed rounds consume the summaries
/// of all buckets since the previous round, folded into one.
void RunEngineDifferential(std::uint64_t seed, const EngineConfig& base,
                           const std::string& flavor, int round_every = 1) {
  testing::StreamGenConfig gen_config;
  gen_config.num_topics = 16;
  testing::StreamGen gen(seed, gen_config);
  TopicModel model = gen.MakeModel();
  KsirEngine engine(base, &model);

  SubscriptionManager naive(EngineEvaluator(engine), SubscriptionMode::kNaive);
  SubscriptionManager indexed(EngineEvaluator(engine),
                              SubscriptionMode::kIndexed);
  const std::vector<KsirQuery> queries =
      DifferentialQueries(gen_config.num_topics);
  std::vector<View> naive_views(queries.size());
  std::vector<View> indexed_views(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    naive.Subscribe(queries[i], ViewTracker(&naive_views[i]));
    indexed.Subscribe(queries[i], ViewTracker(&indexed_views[i]));
  }

  AdvanceSummary pending;  // every bucket since the previous round
  int buckets = 0;
  for (Timestamp bucket_end = 2; bucket_end <= 60; bucket_end += 2) {
    std::vector<SocialElement> bucket = gen.NextBucket(bucket_end);
    ASSERT_TRUE(engine.AdvanceTo(bucket_end, std::move(bucket)).ok());
    pending = MergeAdvanceSummaries({pending, engine.last_advance_summary()},
                                    engine.bucket_epoch());
    if (++buckets % round_every != 0) continue;
    ASSERT_TRUE(naive.EvaluateAffected(engine.last_advance_summary()).ok())
        << flavor;
    ASSERT_TRUE(indexed.EvaluateAffected(pending).ok()) << flavor;
    pending = AdvanceSummary{};
    for (std::size_t i = 0; i < queries.size(); ++i) {
      // The views must agree after every round — a skipped subscription
      // whose true result moved would diverge here.
      EXPECT_EQ(indexed_views[i].delivered, naive_views[i].delivered)
          << flavor << " seed=" << seed << " t=" << bucket_end
          << " query=" << i;
      // And each view must be reconstructible from its delta stream.
      EXPECT_EQ(indexed_views[i].replayed, indexed_views[i].delivered)
          << flavor << " t=" << bucket_end << " query=" << i;
      EXPECT_EQ(naive_views[i].replayed, naive_views[i].delivered)
          << flavor << " t=" << bucket_end << " query=" << i;
    }
    // Indexed epochs only move when the subscription was activated;
    // whenever it did fire, it carries the engine's bucket epoch.
    for (const View& view : indexed_views) {
      EXPECT_LE(view.last_epoch, engine.bucket_epoch());
    }
  }
  // The sweep must have exercised the machinery, not just fallen back to
  // full rounds: skips and shared evaluations both happen.
  const auto& totals = indexed.totals();
  EXPECT_GT(totals.skipped, 0) << flavor;
  EXPECT_GT(totals.shared_hits, 0) << flavor;
  EXPECT_LT(totals.evaluations, naive.totals().evaluations) << flavor;
}

class SubscriptionDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SubscriptionDifferentialTest, EngineFlavorsExact) {
  EngineConfig base;
  base.scoring.lambda = 0.4;
  base.scoring.eta = 2.0;
  base.window_length = 6;
  base.bucket_length = 2;
  base.archive_retention = 10;
  base.refresh_mode = RefreshMode::kExact;
  base.score_maintenance = ScoreMaintenance::kIncremental;
  base.carry_handles = true;
  RunEngineDifferential(GetParam(), base, "handle/exact");

  EngineConfig parallel = base;
  parallel.maintenance_threads = 3;
  RunEngineDifferential(GetParam(), parallel, "parallel/exact");

  EngineConfig recompute = base;
  recompute.score_maintenance = ScoreMaintenance::kRecompute;
  RunEngineDifferential(GetParam(), recompute, "recompute/exact");
}

TEST_P(SubscriptionDifferentialTest, EngineFlavorsPaper) {
  EngineConfig base;
  base.scoring.lambda = 0.4;
  base.scoring.eta = 2.0;
  base.window_length = 6;
  base.bucket_length = 2;
  base.archive_retention = 10;
  base.refresh_mode = RefreshMode::kPaper;
  base.score_maintenance = ScoreMaintenance::kIncremental;
  base.carry_handles = true;
  RunEngineDifferential(GetParam(), base, "handle/paper");

  // Handle reads off: every position resolves by its carried key.
  EngineConfig no_handles = base;
  no_handles.carry_handles = false;
  RunEngineDifferential(GetParam(), no_handles, "no_handles/paper");
}

// Rounds every third bucket: each indexed round wakes the subscriptions
// touched by any of the three buckets, so it still matches the naive one.
TEST_P(SubscriptionDifferentialTest, RoundsEveryThirdBucket) {
  EngineConfig base;
  base.scoring.lambda = 0.4;
  base.scoring.eta = 2.0;
  base.window_length = 6;
  base.bucket_length = 2;
  base.archive_retention = 10;
  base.refresh_mode = RefreshMode::kExact;
  base.score_maintenance = ScoreMaintenance::kIncremental;
  base.carry_handles = true;
  RunEngineDifferential(GetParam(), base, "handle/exact/every3",
                        /*round_every=*/3);

  EngineConfig parallel = base;
  parallel.maintenance_threads = 3;
  RunEngineDifferential(GetParam(), parallel, "parallel/exact/every3",
                        /*round_every=*/3);

  EngineConfig paper = base;
  paper.refresh_mode = RefreshMode::kPaper;
  RunEngineDifferential(GetParam(), paper, "handle/paper/every3",
                        /*round_every=*/3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubscriptionDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 5));

// The same differential across the sharded service: two services fed the
// identical stream, one evaluating standing queries naively, one through
// the inverted index; every subscription's delivered view must match.
TEST(SubscriptionServiceDifferentialTest, ShardedMatchesNaive) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    testing::StreamGenConfig gen_config;
    gen_config.num_topics = 16;
    testing::StreamGen gen(seed, gen_config);
    TopicModel model = gen.MakeModel();

    ServiceConfig base;
    base.engine.scoring.lambda = 0.4;
    base.engine.scoring.eta = 2.0;
    base.engine.window_length = 6;
    base.engine.bucket_length = 2;
    base.engine.archive_retention = 10;
    base.num_shards = 2;
    ServiceConfig naive_config = base;
    naive_config.subscription_mode = SubscriptionMode::kNaive;
    ServiceConfig indexed_config = base;
    indexed_config.subscription_mode = SubscriptionMode::kIndexed;

    auto naive_service =
        std::move(KsirService::Create(naive_config, &model)).value();
    auto indexed_service =
        std::move(KsirService::Create(indexed_config, &model)).value();

    const std::vector<KsirQuery> queries =
        DifferentialQueries(gen_config.num_topics);
    std::vector<View> naive_views(queries.size());
    std::vector<View> indexed_views(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      naive_service->standing_queries().Subscribe(
          queries[i], ViewTracker(&naive_views[i]));
      indexed_service->standing_queries().Subscribe(
          queries[i], ViewTracker(&indexed_views[i]));
    }

    for (Timestamp bucket_end = 2; bucket_end <= 40; bucket_end += 2) {
      std::vector<SocialElement> bucket = gen.NextBucket(bucket_end);
      std::vector<SocialElement> copy = bucket;
      ASSERT_TRUE(
          naive_service->AdvanceTo(bucket_end, std::move(copy)).ok());
      ASSERT_TRUE(
          indexed_service->AdvanceTo(bucket_end, std::move(bucket)).ok());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(indexed_views[i].delivered, naive_views[i].delivered)
            << "seed=" << seed << " t=" << bucket_end << " query=" << i;
        EXPECT_EQ(indexed_views[i].replayed, indexed_views[i].delivered)
            << "seed=" << seed << " t=" << bucket_end << " query=" << i;
      }
    }
    EXPECT_EQ(naive_service->stats().standing_errors, 0);
    EXPECT_EQ(indexed_service->stats().standing_errors, 0);
    const auto& totals = indexed_service->standing_queries().totals();
    EXPECT_GT(totals.skipped, 0) << "seed=" << seed;
    EXPECT_LT(totals.evaluations,
              naive_service->standing_queries().totals().evaluations)
        << "seed=" << seed;
  }
}

// Re-submitting the engine's summary with no intervening bucket wakes
// nothing under kIndexed (the epoch guard).
TEST(SubscriptionIndexTest, IndexedSkipsQuietRounds) {
  testing::StreamGen gen(7);
  TopicModel model = gen.MakeModel();
  EngineConfig config;
  config.scoring.eta = 2.0;
  config.window_length = 6;
  config.bucket_length = 2;
  KsirEngine engine(config, &model);
  // Advance until a bucket moves some topic (a bucket may be empty).
  for (Timestamp bucket_end = 2;
       engine.last_advance_summary().topics.empty() && bucket_end <= 20;
       bucket_end += 2) {
    ASSERT_TRUE(engine.AdvanceTo(bucket_end, gen.NextBucket(bucket_end)).ok());
  }

  SubscriptionManager manager(EngineEvaluator(engine),
                              SubscriptionMode::kIndexed);
  std::vector<Delivery> log;
  // Interested in a topic the bucket moved, so only the guard keeps the
  // re-submitted summary from waking it.
  const AdvanceSummary summary = engine.last_advance_summary();
  ASSERT_FALSE(summary.topics.empty());
  manager.Subscribe(MakeQuery(UnitVector(summary.topics[0].topic)),
                    Recorder(&log));
  ASSERT_TRUE(manager.EvaluateAffected(engine.last_advance_summary()).ok());
  EXPECT_EQ(log.size(), 1u);  // fresh registration fires
  const std::int64_t evals = manager.totals().evaluations;
  ASSERT_TRUE(manager.EvaluateAffected(engine.last_advance_summary()).ok());
  ASSERT_TRUE(manager.EvaluateAffected(engine.last_advance_summary()).ok());
  EXPECT_EQ(manager.totals().evaluations, evals);
  EXPECT_EQ(log.size(), 1u);
}

}  // namespace
}  // namespace ksir
