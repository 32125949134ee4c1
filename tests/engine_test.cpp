// Tests of the KsirEngine facade: bucketing, validation, statistics, and
// concurrent query safety.
#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "paper_fixture.h"
#include "stream/generator.h"
#include "subscribe/subscription_manager.h"

namespace ksir {
namespace {

using ::ksir::testing::BalancedQueryVector;
using ::ksir::testing::PaperElements;
using ::ksir::testing::PaperEngineConfig;
using ::ksir::testing::PaperTopicModel;

TEST(EngineTest, AppendSplitsIntoBuckets) {
  auto model = PaperTopicModel();
  EngineConfig config = PaperEngineConfig();
  config.bucket_length = 3;
  KsirEngine engine(config, &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  // Buckets end at multiples of 3 (3, 6); the final open bucket advances
  // only to the last element's timestamp (8) so later appends can extend it.
  EXPECT_EQ(engine.maintenance_stats().buckets_processed, 3);
  EXPECT_EQ(engine.maintenance_stats().elements_ingested, 8);
  EXPECT_EQ(engine.now(), 8);
}

TEST(EngineTest, AppendRejectsStaleElements) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  auto stale = PaperElements();
  stale[0].id = 100;  // fresh id, stale ts
  EXPECT_FALSE(engine.Append({stale[0]}).ok());
}

TEST(EngineTest, AppendEmptyIsNoop) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  EXPECT_TRUE(engine.Append({}).ok());
  EXPECT_EQ(engine.now(), 0);
}

TEST(EngineTest, AdvanceToRejectsDuplicateIds) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  auto elements = PaperElements();
  ASSERT_TRUE(engine.AdvanceTo(1, {elements[0]}).ok());
  auto duplicate = elements[0];
  duplicate.ts = 2;
  EXPECT_FALSE(engine.AdvanceTo(2, {duplicate}).ok());
}

/// The three malformed-element cases the maintenance pipeline cannot index
/// on the paper's 2-topic model: a NaN weight, an infinite weight and a
/// topic id past the model.
std::vector<SocialElement> MalformedElements(ElementId id, Timestamp ts) {
  const auto make = [id, ts](std::vector<SparseVector::Entry> topics) {
    SocialElement e;
    e.id = id;
    e.ts = ts;
    e.doc = Document::FromWordIds({0});
    e.topics = SparseVector::FromEntries(std::move(topics));
    return e;
  };
  return {make({{0, std::numeric_limits<double>::quiet_NaN()}}),
          make({{1, std::numeric_limits<double>::infinity()}, {0, 0.5}}),
          make({{7, 1.0}})};
}

TEST(EngineTest, AdvanceToRejectsMalformedElementsBeforeTheWindowMoves) {
  auto model = PaperTopicModel();
  for (const std::size_t threads : {0u, 3u}) {
    EngineConfig config = PaperEngineConfig();
    config.maintenance_threads = threads;
    KsirEngine engine(config, &model);
    auto elements = PaperElements();
    ASSERT_TRUE(engine.Append({elements[0], elements[1], elements[2]}).ok());
    for (const SocialElement& bad : MalformedElements(100, 4)) {
      const Timestamp now = engine.now();
      const std::uint64_t epoch = engine.bucket_epoch();
      const std::size_t active = engine.num_active();
      // Bundled with a valid element: the whole bucket is refused.
      const Status status = engine.AdvanceTo(4, {elements[3], bad});
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
      EXPECT_EQ(engine.now(), now);
      EXPECT_EQ(engine.bucket_epoch(), epoch);
      EXPECT_EQ(engine.num_active(), active);
    }
    // The next valid bucket ingests normally.
    ASSERT_TRUE(engine.AdvanceTo(4, {elements[3]}).ok());
    EXPECT_EQ(engine.now(), 4);
    EXPECT_TRUE(engine.index().Contains(4));
  }
}

TEST(EngineTest, QueryRejectsNonFiniteOrNegativeWeights) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  KsirQuery query;
  query.k = 2;
  query.epsilon = 0.3;
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    query.x = SparseVector::FromEntries({{0, 0.5}, {1, weight}});
    for (const Algorithm algorithm :
         {Algorithm::kMtts, Algorithm::kMttd, Algorithm::kCelf}) {
      query.algorithm = algorithm;
      EXPECT_EQ(engine.Query(query).status().code(),
                StatusCode::kInvalidArgument)
          << AlgorithmName(algorithm) << " weight=" << weight;
    }
  }
  // A negative weight (only reachable by bypassing FromEntries' pruning,
  // e.g. through FromDense with a negative threshold) is refused too.
  query.x = SparseVector::FromDense({0.5, -0.5}, -1.0);
  ASSERT_EQ(query.x.nnz(), 2u);
  query.algorithm = Algorithm::kMttd;
  EXPECT_EQ(engine.Query(query).status().code(),
            StatusCode::kInvalidArgument);
  query.x = BalancedQueryVector();
  EXPECT_TRUE(engine.Query(query).ok());
}

TEST(EngineTest, MaintenanceStatsAccumulate) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  const MaintenanceStats stats = engine.maintenance_stats();
  EXPECT_EQ(stats.elements_ingested, 8);
  EXPECT_GE(stats.buckets_processed, 8);  // L = 1
  EXPECT_GE(stats.elements_expired, 1);   // e4 (and possibly e2's archive trip)
  EXPECT_GE(stats.total_update_ms, 0.0);
  EXPECT_EQ(stats.dangling_refs, 0);
}

TEST(EngineTest, WindowLengthShorterThanBucketRejected) {
  auto model = PaperTopicModel();
  EngineConfig config = PaperEngineConfig();
  config.window_length = 1;
  config.bucket_length = 4;
  EXPECT_DEATH(KsirEngine(config, &model), "window_length");
}

TEST(EngineTest, ConcurrentQueriesAreConsistent) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());

  KsirQuery query;
  query.k = 2;
  query.x = BalancedQueryVector();
  query.epsilon = 0.3;
  query.algorithm = Algorithm::kMttd;
  const QueryResult expected = *engine.Query(query);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 50; ++i) {
        auto result = engine.Query(query);
        if (!result.ok() || result->element_ids != expected.element_ids) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(EngineTest, QueriesInterleavedWithAdvances) {
  // Queries under a shared lock must never observe a torn index while a
  // writer thread advances the window.
  StreamProfile profile = TwitterSimProfile();
  profile.num_elements = 3000;
  profile.num_topics = 8;
  profile.vocab_size = 500;
  auto stream = GenerateStream(profile);
  ASSERT_TRUE(stream.ok());

  EngineConfig config;
  config.scoring.eta = 20.0;
  config.window_length = 24 * 3600;
  config.bucket_length = 15 * 60;
  KsirEngine engine(config, &stream->model);

  const SparseVector x = SparseVector::FromEntries({{0, 0.6}, {1, 0.4}});
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread reader([&]() {
    KsirQuery query;
    query.k = 5;
    query.x = x;
    query.algorithm = Algorithm::kMttd;
    while (!done.load()) {
      auto result = engine.Query(query);
      if (!result.ok()) ++failures;
    }
  });

  // Writer: feed the stream in bucket batches.
  std::size_t begin = 0;
  Timestamp bucket_end = 0;
  while (begin < stream->elements.size()) {
    bucket_end += config.bucket_length;
    std::vector<SocialElement> bucket;
    while (begin < stream->elements.size() &&
           stream->elements[begin].ts <= bucket_end) {
      bucket.push_back(stream->elements[begin]);
      ++begin;
    }
    ASSERT_TRUE(engine.AdvanceTo(bucket_end, std::move(bucket)).ok());
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(engine.window().num_active(), 0u);
}

TEST(EngineTest, ResurrectedElementIsQueryable) {
  // e2's Table 1 lifecycle: deactivated at t=6, resurrected by e7 at t=7.
  // The skewed query of Example 3.4 must be able to return it afterwards.
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  auto elements = PaperElements();
  std::vector<SocialElement> first(elements.begin(), elements.begin() + 6);
  std::vector<SocialElement> rest(elements.begin() + 6, elements.end());
  ASSERT_TRUE(engine.Append(std::move(first)).ok());
  EXPECT_FALSE(engine.window().IsActive(2));  // deactivated at t=6
  EXPECT_FALSE(engine.index().Contains(2));
  ASSERT_TRUE(engine.Append(std::move(rest)).ok());
  EXPECT_TRUE(engine.window().IsActive(2));
  EXPECT_TRUE(engine.index().Contains(2));

  KsirQuery query;
  query.k = 2;
  query.x = ksir::testing::SkewedQueryVector();
  query.epsilon = 0.3;
  query.algorithm = Algorithm::kMttd;
  auto result = engine.Query(query);
  ASSERT_TRUE(result.ok());
  std::vector<ElementId> ids = result->element_ids;
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<ElementId>{1, 2}));
}

TEST(EngineTest, QueryOnEmptyTopicsReturnsEmpty) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  // A query concentrated on a topic id beyond every element's support.
  KsirQuery query;
  query.k = 3;
  query.x = SparseVector::FromEntries({{1, 0.0}, {0, 0.0}});
  EXPECT_FALSE(engine.Query(query).ok());  // empty vector after pruning

  // Valid vector but the engine holds nothing yet.
  KsirEngine empty_engine(PaperEngineConfig(), &model);
  query.x = BalancedQueryVector();
  for (const Algorithm algorithm :
       {Algorithm::kMtts, Algorithm::kMttd, Algorithm::kCelf,
        Algorithm::kSieveStreaming, Algorithm::kTopkRepresentative}) {
    query.algorithm = algorithm;
    auto result = empty_engine.Query(query);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_TRUE(result->element_ids.empty()) << AlgorithmName(algorithm);
    EXPECT_DOUBLE_EQ(result->score, 0.0) << AlgorithmName(algorithm);
  }
}

TEST(EngineTest, ToleratesDanglingReferencesBeyondRetention) {
  // AMinerSim's citation horizon (30 h) exceeds T = 24 h: references to
  // long-expired papers must be counted as dangling, never crash.
  StreamProfile profile = AMinerSimProfile();
  profile.num_elements = 4000;
  profile.num_topics = 8;
  profile.vocab_size = 800;
  auto stream = GenerateStream(profile);
  ASSERT_TRUE(stream.ok());
  EngineConfig config;
  config.scoring.eta = 20.0;
  config.window_length = 6 * 3600;  // much shorter than the 30 h horizon
  config.bucket_length = 15 * 60;
  KsirEngine engine(config, &stream->model);
  ASSERT_TRUE(engine.Append(stream->elements).ok());
  EXPECT_GT(engine.maintenance_stats().dangling_refs, 0);
  EXPECT_GT(engine.window().num_active(), 0u);
  EXPECT_EQ(engine.index().num_elements(), engine.window().num_active());
}

// Standing queries over one engine: a naive SubscriptionManager answering
// through the engine's Query re-evaluates every subscription each round.
SubscriptionManager NaiveStandingQueries(const KsirEngine& engine) {
  return SubscriptionManager(
      [&engine](const KsirQuery& query) { return engine.Query(query); },
      SubscriptionMode::kNaive);
}

TEST(StandingQueryTest, FirstEvaluationReportsChanged) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  SubscriptionManager manager = NaiveStandingQueries(engine);

  KsirQuery query;
  query.k = 2;
  query.x = BalancedQueryVector();
  query.epsilon = 0.3;
  int calls = 0;
  bool last_changed = false;
  QueryResult last_result;
  manager.Subscribe(query, [&](const SubscriptionUpdate& update) {
    ++calls;
    last_changed = update.first || update.set_changed;
    last_result = *update.result;
  });
  EXPECT_EQ(manager.size(), 1u);
  ASSERT_TRUE(manager.EvaluateAffected(engine.last_advance_summary()).ok());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(last_changed);
  std::vector<ElementId> ids = last_result.element_ids;
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<ElementId>{1, 3}));

  // Unchanged window -> unchanged result, changed = false.
  ASSERT_TRUE(manager.EvaluateAffected(engine.last_advance_summary()).ok());
  EXPECT_EQ(calls, 2);
  EXPECT_FALSE(last_changed);
}

TEST(StandingQueryTest, DetectsResultDriftAcrossWindowSlides) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  auto elements = PaperElements();
  std::vector<SocialElement> first(elements.begin(), elements.begin() + 5);
  std::vector<SocialElement> rest(elements.begin() + 5, elements.end());
  ASSERT_TRUE(engine.Append(std::move(first)).ok());

  SubscriptionManager manager = NaiveStandingQueries(engine);
  KsirQuery query;
  // k = 4: at t = 5 the result must include e4, which expires by t = 8,
  // so the window slide necessarily changes the result set.
  query.k = 4;
  query.x = BalancedQueryVector();
  query.epsilon = 0.3;
  std::vector<bool> changes;
  std::vector<std::vector<ElementId>> results;
  manager.Subscribe(query, [&](const SubscriptionUpdate& update) {
    changes.push_back(update.first || update.set_changed);
    auto ids = update.result->element_ids;
    std::sort(ids.begin(), ids.end());
    results.push_back(std::move(ids));
  });
  ASSERT_TRUE(manager.EvaluateAffected(engine.last_advance_summary()).ok());
  ASSERT_TRUE(engine.Append(std::move(rest)).ok());
  ASSERT_TRUE(manager.EvaluateAffected(engine.last_advance_summary()).ok());
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_TRUE(changes[0]);
  EXPECT_TRUE(changes[1]);  // the window moved from t=5 to t=8
  EXPECT_NE(results[0], results[1]);
  // e4 was active at t=5 but cannot appear at t=8.
  EXPECT_FALSE(std::binary_search(results[1].begin(), results[1].end(),
                                  ElementId{4}));
}

TEST(StandingQueryTest, UnsubscribeStopsCallbacks) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  SubscriptionManager manager = NaiveStandingQueries(engine);
  KsirQuery query;
  query.k = 2;
  query.x = BalancedQueryVector();
  int calls = 0;
  const std::int64_t id = manager.Subscribe(
      query, [&](const SubscriptionUpdate&) { ++calls; });
  EXPECT_TRUE(manager.Unsubscribe(id));
  EXPECT_FALSE(manager.Unsubscribe(id));
  ASSERT_TRUE(manager.EvaluateAffected(engine.last_advance_summary()).ok());
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(manager.size(), 0u);
}

TEST(StandingQueryTest, InvalidStandingQueryReportsError) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  SubscriptionManager manager = NaiveStandingQueries(engine);
  KsirQuery bad;
  bad.k = 0;  // invalid
  bad.x = BalancedQueryVector();
  manager.Subscribe(bad, [](const SubscriptionUpdate&) {});
  KsirQuery good;
  good.k = 2;
  good.x = BalancedQueryVector();
  int good_calls = 0;
  manager.Subscribe(good, [&](const SubscriptionUpdate&) { ++good_calls; });
  const Status status =
      manager.EvaluateAffected(engine.last_advance_summary());
  EXPECT_FALSE(status.ok());   // the bad query's error is surfaced
  EXPECT_EQ(good_calls, 1);    // but the good query still ran
}

TEST(EngineTest, ArchiveRetentionConfigurable) {
  auto model = PaperTopicModel();
  EngineConfig config = PaperEngineConfig();
  config.archive_retention = 50;
  KsirEngine engine(config, &model);
  EXPECT_EQ(engine.window().archive_retention(), 50);
  EngineConfig default_config = PaperEngineConfig();
  KsirEngine engine2(default_config, &model);
  EXPECT_EQ(engine2.window().archive_retention(),
            default_config.window_length);
}

}  // namespace
}  // namespace ksir
