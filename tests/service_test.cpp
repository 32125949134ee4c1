// Tests of the sharded query service: worker pool, routing, fan-out/merge
// planning invariants (property-style, à la the EK-KOR2 suite), the
// epoch-keyed result cache, and the service façade.
#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

#include <gtest/gtest.h>

#include "core/candidate_state.h"
#include "core/engine.h"
#include "core/scoring.h"
#include "paper_fixture.h"
#include "service/result_cache.h"
#include "service/service.h"
#include "service/shard_router.h"
#include "service/sharded_ingestor.h"
#include "runtime/worker_pool.h"
#include "stream/generator.h"

namespace ksir {
namespace {

using ::ksir::testing::BalancedQueryVector;
using ::ksir::testing::PaperElements;
using ::ksir::testing::PaperEngineConfig;
using ::ksir::testing::PaperTopicModel;

// ---- worker pool -----------------------------------------------------------

TEST(WorkerPoolTest, RunsEverySubmittedTask) {
  Telemetry telemetry;
  WorkerPool pool(3, &telemetry);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count]() { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
  // Drained pool: the queue-depth gauge is back at 0, every task counted.
  MetricRegistry& reg = telemetry.registry();
  EXPECT_EQ(reg.GetGauge("ksir_pool_queue_depth")->Value(), 0);
  EXPECT_EQ(reg.GetCounter("ksir_pool_tasks_total")->Value(), 100);
}

TEST(WorkerPoolTest, ThrowingTaskDoesNotDeadlockWaitIdle) {
  // Regression: a throwing task used to skip the in_flight_ decrement,
  // leaving WaitIdle blocked forever.
  WorkerPool pool(2);
  pool.Submit([]() { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.WaitIdle(), std::runtime_error);
  // The pool stays usable and the exception slot is cleared.
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&count]() { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 8);
}

TEST(WorkerPoolTest, ConcurrentParallelRunsWaitOnlyOnTheirOwnIndices) {
  // Two callers share one 2-thread pool. Caller A's index 0 blocks until
  // caller B's whole ParallelRun has returned: B must not wait on A's
  // work, and each call returns with exactly its own indices run.
  WorkerPool pool(2);
  constexpr std::size_t kN = 4;
  std::array<std::atomic<int>, kN> a_runs{};
  std::array<std::atomic<int>, kN> b_runs{};
  std::mutex m;
  std::condition_variable cv;
  bool a_blocked = false;
  bool release = false;
  std::atomic<bool> a_returned{false};
  std::thread caller_a([&]() {
    ParallelRun(&pool, kN, [&](std::size_t i) {
      a_runs[i].fetch_add(1);
      if (i != 0) return;
      std::unique_lock<std::mutex> lock(m);
      a_blocked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
    a_returned.store(true);
  });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return a_blocked; });
  }
  ParallelRun(&pool, kN, [&](std::size_t i) { b_runs[i].fetch_add(1); });
  EXPECT_FALSE(a_returned.load());
  EXPECT_EQ(a_runs[0].load(), 1);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(b_runs[i].load(), 1);
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  caller_a.join();
  EXPECT_TRUE(a_returned.load());
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(a_runs[i].load(), 1) << "index " << i;
    EXPECT_EQ(b_runs[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, ParallelRunExceptionReachesItsOwnCaller) {
  // A throwing index must not strand the call: every other index still
  // runs, and the exception belongs to the call — the pool-level barrier
  // never sees it, and the pool stays usable.
  WorkerPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(ParallelRun(&pool, 8,
                           [&](std::size_t i) {
                             if (i == 5) throw std::runtime_error("run boom");
                             ran.fetch_add(1);
                           }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 7);
  pool.WaitIdle();
  ParallelRun(&pool, 4, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 11);
}

TEST(WorkerPoolTest, OneParticipantRunsInlineWithoutAPool) {
  // One participant never touches the pool, so a null one is allowed: the
  // maintainer's one-participant bucket apply runs every stage this way.
  const std::thread::id caller = std::this_thread::get_id();
  int ran = 0;
  ParallelRun(nullptr, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
  // Zero work touches nothing either.
  ParallelRun(nullptr, 0, [](std::size_t) { ADD_FAILURE(); });
}

TEST(WorkerPoolDeathTest, NullPoolWithHelpersFailsACheck) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ParallelRun(nullptr, 2, [](std::size_t) {}),
               "pool != nullptr");
}

TEST(WorkerPoolTest, ParallelRunExecutesEveryIndexExactlyOnce) {
  WorkerPool pool(3);
  constexpr std::size_t kN = 257;
  const auto runs = std::make_unique<std::atomic<int>[]>(kN);
  ParallelRun(&pool, kN, [&](std::size_t i) { runs[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

// ---- shard router ----------------------------------------------------------

TEST(ShardRouterTest, ReferenceChainsStayIntraShard) {
  ShardRouter router(4);
  // A root and a comment cascade hanging off it must share a shard.
  SocialElement root;
  root.id = 100;
  root.ts = 1;
  const std::size_t root_shard = router.Route(root);
  for (ElementId id = 101; id <= 120; ++id) {
    SocialElement reply;
    reply.id = id;
    reply.ts = id - 99;
    reply.refs = {id - 1};  // chain: each element refers to the previous
    EXPECT_EQ(router.Route(reply), root_shard) << id;
  }
  EXPECT_EQ(router.cross_shard_refs(), 0);
  EXPECT_EQ(router.tracked(), 21u);
}

TEST(ShardRouterTest, PruneDropsOldAssignments) {
  ShardRouter router(2);
  for (ElementId id = 0; id < 10; ++id) {
    SocialElement e;
    e.id = id;
    e.ts = id + 1;
    router.Route(e);
  }
  router.PruneOlderThan(5);  // drops ts 1..5
  EXPECT_EQ(router.tracked(), 5u);
  EXPECT_FALSE(router.Knows(2));
  EXPECT_TRUE(router.Knows(7));
}

TEST(ShardRouterTest, ReferralsExtendRoutingLifetime) {
  ShardRouter router(4);
  SocialElement root;
  root.id = 1;
  root.ts = 1;
  const std::size_t shard = router.Route(root);
  SocialElement reply;
  reply.id = 2;
  reply.ts = 100;
  reply.refs = {1};
  EXPECT_EQ(router.Route(reply), shard);
  // The root's own ts is long past the horizon, but the referral at t=100
  // keeps it routable — mirroring the window, where referrals keep an
  // element active.
  router.PruneOlderThan(50);
  EXPECT_TRUE(router.Knows(1));
  SocialElement late;
  late.id = 3;
  late.ts = 120;
  late.refs = {1};
  EXPECT_EQ(router.Route(late), shard);
  router.PruneOlderThan(130);  // nothing has touched the root since t=120
  EXPECT_FALSE(router.Knows(1));
}

TEST(ShardRouterTest, ForgetRollsBackAssignments) {
  ShardRouter router(2);
  SocialElement e;
  e.id = 5;
  e.ts = 10;
  router.Route(e);
  ASSERT_TRUE(router.Knows(5));
  router.Forget({5});
  EXPECT_FALSE(router.Knows(5));
  router.PruneOlderThan(100);  // stale queue entry must be skipped cleanly
  EXPECT_EQ(router.tracked(), 0u);
}

TEST(ShardRouterTest, BalanceCapSpreadsSingleComponentCascade) {
  // One root with every later element chaining to its predecessor: pure
  // chain affinity degenerates to one shard; the balance cap bounds the
  // tracked-load skew while keeping most chain hops intra-shard.
  constexpr std::size_t kShards = 4;
  constexpr double kCap = 2.0;
  ShardRouter uncapped(kShards);
  ShardRouter capped(kShards, kCap);
  for (ElementId id = 0; id < 400; ++id) {
    SocialElement e;
    e.id = id;
    e.ts = id + 1;
    if (id > 0) e.refs = {id - 1};
    uncapped.Route(e);
    capped.Route(e);
  }
  // Uncapped: the whole cascade collapses onto the root's shard.
  std::size_t uncapped_nonempty = 0;
  for (const std::size_t load : uncapped.shard_loads()) {
    if (load > 0) ++uncapped_nonempty;
  }
  EXPECT_EQ(uncapped_nonempty, 1u);
  EXPECT_EQ(uncapped.rebalanced(), 0);
  // Capped: every shard carries load and the skew respects the cap.
  const auto& loads = capped.shard_loads();
  const std::size_t max_load = *std::max_element(loads.begin(), loads.end());
  const std::size_t min_load = *std::min_element(loads.begin(), loads.end());
  EXPECT_GT(min_load, 0u);
  EXPECT_LE(static_cast<double>(max_load),
            kCap * (static_cast<double>(min_load) + 1.0));
  EXPECT_GT(capped.rebalanced(), 0);
  // The rebalanced placements cost exactly their chain edges.
  EXPECT_EQ(capped.cross_shard_refs(), capped.rebalanced());
}

TEST(ShardRouterTest, BalanceCapOffPreservesChainAffinity) {
  // max_imbalance = 0 must reproduce the pure chain-following behavior.
  ShardRouter router(4, 0.0);
  SocialElement root;
  root.id = 1;
  root.ts = 1;
  const std::size_t shard = router.Route(root);
  for (ElementId id = 2; id <= 200; ++id) {
    SocialElement reply;
    reply.id = id;
    reply.ts = id;
    reply.refs = {id - 1};
    EXPECT_EQ(router.Route(reply), shard);
  }
  EXPECT_EQ(router.cross_shard_refs(), 0);
}

TEST(ShardRouterTest, RootsSpreadAcrossShards) {
  ShardRouter router(4);
  std::vector<int> per_shard(4, 0);
  for (ElementId id = 0; id < 400; ++id) {
    SocialElement e;
    e.id = id;
    e.ts = id + 1;
    ++per_shard[router.Route(e)];
  }
  for (int count : per_shard) EXPECT_GT(count, 40);  // roughly balanced
}

// ---- sharded ingestor partial failure --------------------------------------

TEST(ShardedIngestorTest, PartialFailureRollsBackOnlyFailedShards) {
  // Regression: the rollback used to Forget the WHOLE bucket's routing
  // entries even though shards that accepted their sub-bucket keep the
  // elements — so the router reported Knows() == false for resident ids
  // and a retried bucket would re-ingest duplicates.
  auto model = PaperTopicModel();
  const EngineConfig config = PaperEngineConfig();
  KsirEngine shard0(config, &model);
  KsirEngine shard1(config, &model);
  ShardRouter router(2);
  WorkerPool pool(2);
  ShardedIngestor ingestor({&shard0, &shard1}, &router, &pool);

  // Find root ids that hash-route to shard 0 and to shard 1 (probe with a
  // throwaway router so the real one stays clean).
  ElementId id0 = -1;
  ElementId id1 = -1;
  {
    ShardRouter probe(2);
    for (ElementId id = 1; id < 64 && (id0 < 0 || id1 < 0); ++id) {
      SocialElement e;
      e.id = id;
      e.ts = 1;
      const std::size_t shard = probe.Route(e);
      if (shard == 0 && id0 < 0) id0 = id;
      if (shard == 1 && id1 < 0) id1 = id;
    }
    ASSERT_GE(id0, 0);
    ASSERT_GE(id1, 0);
  }
  const auto mk = [](ElementId id, Timestamp ts) {
    SocialElement e;
    e.id = id;
    e.ts = ts;
    e.doc = Document::FromWordIds({0});
    e.topics = SparseVector::FromEntries({{0, 1.0}});
    return e;
  };

  // Put shard 1 ahead of the shared clock: its next sub-bucket advance is
  // out of order and fails while shard 0 accepts its half.
  ASSERT_TRUE(shard1.AdvanceTo(100, {}).ok());
  const Status status = ingestor.AdvanceTo(6, {mk(id0, 5), mk(id1, 6)});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // id0 landed on shard 0 and must still be routed (it IS resident there);
  // id1 was rejected with its shard and must be forgotten.
  EXPECT_TRUE(router.Knows(id0));  // fails on the pre-fix code
  EXPECT_FALSE(router.Knows(id1));
  EXPECT_TRUE(shard0.window().IsActive(id0));
  EXPECT_FALSE(shard1.window().IsActive(id1));

  // Re-sending the accepted element is rejected up front as a duplicate
  // (before anything is routed or any shard clock moves)...
  const Status duplicate = ingestor.AdvanceTo(200, {mk(id0, 199)});
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);

  // ...while a corrected bucket carrying only the failed shard's element
  // goes through once bucket_end clears every shard clock.
  ASSERT_TRUE(ingestor.AdvanceTo(200, {mk(id1, 199)}).ok());
  EXPECT_TRUE(router.Knows(id1));
  EXPECT_TRUE(shard1.window().IsActive(id1));
  EXPECT_EQ(ingestor.now(), 200);
}

// ---- engine additions used by the service ---------------------------------

TEST(EngineEpochTest, BucketEpochIsMonotone) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  EXPECT_EQ(engine.bucket_epoch(), 0u);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  const std::uint64_t after = engine.bucket_epoch();
  EXPECT_GE(after, 8u);  // L = 1, eight buckets
  // A failed advance must not bump the epoch.
  EXPECT_FALSE(engine.AdvanceTo(1, {}).ok());
  EXPECT_EQ(engine.bucket_epoch(), after);
}

TEST(EngineEpochTest, OutOfOrderAndNoopBucketsReturnStatus) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  const Status out_of_order = engine.AdvanceTo(3, {});
  EXPECT_EQ(out_of_order.code(), StatusCode::kInvalidArgument);
  const Status noop = engine.AdvanceTo(engine.now(), {});
  EXPECT_EQ(noop.code(), StatusCode::kFailedPrecondition);
}

TEST(EngineEpochTest, CreateValidatesConfig) {
  auto model = PaperTopicModel();
  EngineConfig bad = PaperEngineConfig();
  bad.bucket_length = 0;
  EXPECT_FALSE(KsirEngine::Create(bad, &model).ok());
  bad = PaperEngineConfig();
  bad.window_length = 0;
  EXPECT_FALSE(KsirEngine::Create(bad, &model).ok());
  // An absurd thread count must fail validation, not exhaust the process
  // spawning a pool inside the constructor.
  bad = PaperEngineConfig();
  bad.maintenance_threads = static_cast<std::size_t>(-1);
  EXPECT_FALSE(KsirEngine::Create(bad, &model).ok());
  // NaN (and a non-finite eta) must come back as a Status, not die on
  // ScoringContext's CHECK.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double eta : {nan, inf}) {
    bad = PaperEngineConfig();
    bad.scoring.eta = eta;
    EXPECT_EQ(KsirEngine::Create(bad, &model).status().code(),
              StatusCode::kInvalidArgument)
        << "eta=" << eta;
  }
  bad = PaperEngineConfig();
  bad.scoring.lambda = nan;
  EXPECT_EQ(KsirEngine::Create(bad, &model).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(KsirEngine::Create(PaperEngineConfig(), nullptr).ok());
  auto engine = KsirEngine::Create(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE((*engine)->Append(PaperElements()).ok());
}

TEST(EngineEpochTest, ExportedTermsMatchTermsResolvedAgainstTheWindow) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  const ActiveWindow& window = engine.window();
  const ScoringContext& ctx = engine.scoring();
  const SparseVector x = BalancedQueryVector();
  const auto local_terms = [&](ElementId id) {
    GainTerms terms;
    terms.Resolve(ctx, x, *window.Find(id), window.ReferrersOf(id));
    return terms;
  };

  // At t = 8: e3 is referenced by e8; e4 expired; 9999 was never ingested.
  ASSERT_FALSE(window.IsActive(4));
  ASSERT_FALSE(window.ReferrersOf(3).empty());
  const std::vector<GainTerms> exported = engine.ExportTerms(x, {4, 3, 9999});
  ASSERT_EQ(exported.size(), 1u);  // unknown and expired ids are skipped
  EXPECT_EQ(exported[0].id(), 3);

  // Bit-equal gains and additions against a fresh state, and against one
  // that already holds e1 (which shares no referrer with e3).
  const GainTerms local = local_terms(3);
  for (const bool seeded : {false, true}) {
    CandidateState from_export(&ctx, &x);
    CandidateState from_window(&ctx, &x);
    if (seeded) {
      from_export.Add(local_terms(1));
      from_window.Add(local_terms(1));
    }
    EXPECT_EQ(from_export.MarginalGain(exported[0]),
              from_window.MarginalGain(local))
        << "seeded " << seeded;
    EXPECT_EQ(from_export.Add(exported[0]), from_window.Add(local))
        << "seeded " << seeded;
    EXPECT_EQ(from_export.score(), from_window.score()) << "seeded " << seeded;
  }

  // QueryWithTerms returns one term set per member, in member order.
  KsirQuery query;
  query.k = 2;
  query.x = x;
  std::vector<GainTerms> member_terms;
  const auto result = engine.QueryWithTerms(query, &member_terms);
  ASSERT_TRUE(result.ok());
  // MTTD adds e3 first.
  EXPECT_EQ(result->element_ids, (std::vector<ElementId>{3, 1}));
  ASSERT_EQ(member_terms.size(), result->element_ids.size());
  CandidateState replayed(&ctx, &x);
  for (std::size_t i = 0; i < member_terms.size(); ++i) {
    EXPECT_EQ(member_terms[i].id(), result->element_ids[i]);
    replayed.Add(member_terms[i]);
  }
  EXPECT_EQ(replayed.score(), result->score);
}

// ---- service façade --------------------------------------------------------

ServiceConfig PaperServiceConfig(std::size_t num_shards) {
  ServiceConfig config;
  config.engine = PaperEngineConfig();
  config.num_shards = num_shards;
  return config;
}

TEST(ServiceTest, CreateRejectsBadConfig) {
  auto model = PaperTopicModel();
  ServiceConfig config = PaperServiceConfig(0);
  EXPECT_FALSE(KsirService::Create(config, &model).ok());
  config = PaperServiceConfig(2);
  config.cache_quantum = 0.0;
  EXPECT_FALSE(KsirService::Create(config, &model).ok());
  config = PaperServiceConfig(2);
  config.engine.bucket_length = -5;
  EXPECT_FALSE(KsirService::Create(config, &model).ok());
  config = PaperServiceConfig(2);
  config.engine.max_shard_imbalance = 0.5;  // must be 0 (off) or >= 1
  EXPECT_FALSE(KsirService::Create(config, &model).ok());
  // NaN fields are rejected with a Status instead of reaching the
  // ScoringContext and ResultCache CHECKs.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  config = PaperServiceConfig(2);
  config.cache_quantum = nan;
  EXPECT_EQ(KsirService::Create(config, &model).status().code(),
            StatusCode::kInvalidArgument);
  config = PaperServiceConfig(2);
  config.engine.scoring.eta = nan;
  EXPECT_EQ(KsirService::Create(config, &model).status().code(),
            StatusCode::kInvalidArgument);
  config = PaperServiceConfig(2);
  config.engine.scoring.lambda = nan;
  EXPECT_EQ(KsirService::Create(config, &model).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(KsirService::Create(PaperServiceConfig(2), nullptr).ok());
}

TEST(ServiceTest, ValidateBoundsShardsAndWorkers) {
  // The pool is sized from num_workers (or num_shards): both are capped
  // like maintenance_threads. Checked through ValidateServiceConfig only,
  // so no case here ever spawns a thread.
  ServiceConfig config = PaperServiceConfig(256);
  config.num_workers = 256;
  EXPECT_TRUE(ValidateServiceConfig(config).ok());
  config.num_shards = 257;
  EXPECT_EQ(ValidateServiceConfig(config).code(),
            StatusCode::kInvalidArgument);
  config = PaperServiceConfig(2);
  config.num_workers = 257;
  EXPECT_EQ(ValidateServiceConfig(config).code(),
            StatusCode::kInvalidArgument);
  config.num_workers = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(ValidateServiceConfig(config).code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceTest, RejectsMalformedElementsBeforeRouting) {
  auto model = PaperTopicModel();
  auto service = KsirService::Create(PaperServiceConfig(2), &model);
  ASSERT_TRUE(service.ok());
  auto elements = PaperElements();
  ASSERT_TRUE(
      (*service)->Append({elements[0], elements[1], elements[2]}).ok());
  const auto make = [](std::vector<SparseVector::Entry> topics) {
    SocialElement e;
    e.id = 100;
    e.ts = 4;
    e.doc = Document::FromWordIds({0});
    e.topics = SparseVector::FromEntries(std::move(topics));
    return e;
  };
  const std::vector<SocialElement> malformed = {
      make({{0, std::numeric_limits<double>::quiet_NaN()}}),
      make({{1, std::numeric_limits<double>::infinity()}}),
      make({{7, 1.0}})};
  for (const SocialElement& bad : malformed) {
    const Timestamp now = (*service)->now();
    const std::uint64_t epoch = (*service)->epoch();
    const std::size_t active = (*service)->stats().num_active_total;
    const Status status = (*service)->AdvanceTo(4, {elements[3], bad});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_EQ((*service)->now(), now);
    EXPECT_EQ((*service)->epoch(), epoch);
    EXPECT_EQ((*service)->stats().num_active_total, active);
    for (std::size_t i = 0; i < (*service)->num_shards(); ++i) {
      EXPECT_EQ((*service)->shard(i).now(), now) << "shard " << i;
    }
  }
  ASSERT_TRUE((*service)->AdvanceTo(4, {elements[3]}).ok());
  EXPECT_EQ((*service)->now(), 4);
}

TEST(ServiceTest, QueryRejectsNonFiniteWeights) {
  auto model = PaperTopicModel();
  auto service = KsirService::Create(PaperServiceConfig(2), &model);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Append(PaperElements()).ok());
  KsirQuery query;
  query.k = 2;
  query.epsilon = 0.3;
  query.algorithm = Algorithm::kMttd;
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    query.x = SparseVector::FromEntries({{0, 0.5}, {1, weight}});
    EXPECT_EQ((*service)->Query(query).status().code(),
              StatusCode::kInvalidArgument)
        << "weight=" << weight;
  }
  query.x = BalancedQueryVector();
  EXPECT_TRUE((*service)->Query(query).ok());
}

TEST(ServiceTest, SingleShardMatchesPlainEngine) {
  auto model = PaperTopicModel();
  KsirEngine engine(PaperEngineConfig(), &model);
  ASSERT_TRUE(engine.Append(PaperElements()).ok());
  auto service = KsirService::Create(PaperServiceConfig(1), &model);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Append(PaperElements()).ok());

  for (const Algorithm algorithm :
       {Algorithm::kMtts, Algorithm::kMttd, Algorithm::kCelf,
        Algorithm::kGreedy, Algorithm::kTopkRepresentative}) {
    for (const std::int32_t k : {1, 2, 4}) {
      KsirQuery query;
      query.k = k;
      query.x = BalancedQueryVector();
      query.epsilon = 0.2;
      query.algorithm = algorithm;
      const auto expected = engine.Query(query);
      const auto actual = (*service)->Query(query);
      ASSERT_TRUE(expected.ok() && actual.ok()) << AlgorithmName(algorithm);
      EXPECT_EQ(actual->element_ids, expected->element_ids)
          << AlgorithmName(algorithm) << " k=" << k;
      EXPECT_NEAR(actual->score, expected->score, 1e-9)
          << AlgorithmName(algorithm) << " k=" << k;
    }
  }
}

TEST(ServiceTest, OutOfOrderBucketRejectedWithoutDying) {
  auto model = PaperTopicModel();
  auto service = KsirService::Create(PaperServiceConfig(2), &model);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Append(PaperElements()).ok());
  EXPECT_FALSE((*service)->AdvanceTo(2, {}).ok());
  EXPECT_FALSE((*service)->AdvanceTo((*service)->now(), {}).ok());
  // A re-ingested id is rejected before anything is routed.
  SocialElement duplicate = PaperElements()[0];
  duplicate.ts = (*service)->now() + 1;
  const Status status =
      (*service)->AdvanceTo(duplicate.ts, {std::move(duplicate)});
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
  // The service keeps serving afterwards.
  KsirQuery query;
  query.k = 2;
  query.x = BalancedQueryVector();
  EXPECT_TRUE((*service)->Query(query).ok());
}

// Shared fixture for the generator-workload properties: one synthetic
// stream fed identically to a single engine and a 4-shard service.
class PlannerPropertyTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNumShards = 4;
  static constexpr std::int32_t kK = 10;

  void SetUp() override {
    StreamProfile profile = RedditSimProfile();
    profile.num_elements = 3000;
    profile.num_topics = 8;
    profile.vocab_size = 600;
    auto generated = GenerateStream(profile);
    ASSERT_TRUE(generated.ok());
    stream_ = std::make_unique<GeneratedStream>(std::move(generated).value());

    config_.scoring.eta = 20.0;
    config_.window_length = 24 * 3600;
    config_.bucket_length = 15 * 60;

    engine_ = std::make_unique<KsirEngine>(config_, &stream_->model);
    ASSERT_TRUE(engine_->Append(stream_->elements).ok());

    ServiceConfig service_config;
    service_config.engine = config_;
    service_config.num_shards = kNumShards;
    auto service = KsirService::Create(service_config, &stream_->model);
    ASSERT_TRUE(service.ok());
    service_ = std::move(service).value();
    ASSERT_TRUE(service_->Append(stream_->elements).ok());
  }

  /// A deterministic pool of sparse query vectors over the topic space.
  std::vector<SparseVector> QueryPool(std::size_t count) const {
    std::vector<SparseVector> pool;
    const auto z = static_cast<std::int32_t>(stream_->model.num_topics());
    for (std::size_t i = 0; i < count; ++i) {
      const auto a = static_cast<std::int32_t>(i) % z;
      const auto b = static_cast<std::int32_t>(3 * i + 1) % z;
      if (a == b) {
        pool.push_back(SparseVector::FromEntries({{a, 1.0}}));
      } else {
        pool.push_back(SparseVector::FromEntries({{a, 0.6}, {b, 0.4}}));
      }
    }
    return pool;
  }

  EngineConfig config_;
  std::unique_ptr<GeneratedStream> stream_;
  std::unique_ptr<KsirEngine> engine_;
  std::unique_ptr<KsirService> service_;
};

TEST_F(PlannerPropertyTest, MergeInvariantsHoldOnGeneratorWorkload) {
  const auto pool = QueryPool(15);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    KsirQuery query;
    query.k = kK;
    query.x = pool[i];
    query.algorithm = Algorithm::kCelf;

    const auto service_result = service_->Query(query);
    ASSERT_TRUE(service_result.ok()) << "query " << i;

    // |S| <= k, no duplicates.
    EXPECT_LE(service_result->element_ids.size(),
              static_cast<std::size_t>(kK));
    auto ids = service_result->element_ids;
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());

    // Merged score is never below any single shard's score.
    for (std::size_t s = 0; s < service_->num_shards(); ++s) {
      const auto shard_result = service_->shard(s).Query(query);
      ASSERT_TRUE(shard_result.ok());
      EXPECT_GE(service_result->score, shard_result->score - 1e-9)
          << "query " << i << " shard " << s;
    }

    // Acceptance bar: >= 0.95x the single-engine CELF score.
    const auto engine_result = engine_->Query(query);
    ASSERT_TRUE(engine_result.ok());
    EXPECT_GE(service_result->score, 0.95 * engine_result->score)
        << "query " << i << ": sharded " << service_result->score
        << " vs single " << engine_result->score;
  }
}

TEST_F(PlannerPropertyTest, ShardsPartitionTheActiveStream) {
  // Every ingested element landed on exactly one shard, and the shard
  // active sets are disjoint by id.
  std::vector<ElementId> all_ids;
  for (std::size_t s = 0; s < service_->num_shards(); ++s) {
    const auto ids = service_->shard(s).window().ActiveIds();
    all_ids.insert(all_ids.end(), ids.begin(), ids.end());
  }
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_EQ(std::adjacent_find(all_ids.begin(), all_ids.end()),
            all_ids.end());
  const auto stats = service_->stats();
  EXPECT_EQ(stats.ingestion.elements_ingested,
            static_cast<std::int64_t>(stream_->elements.size()));
  EXPECT_GT(stats.epoch, 0u);
}

TEST_F(PlannerPropertyTest, CacheHitEqualsCacheMissWithinEpoch) {
  KsirQuery query;
  query.k = kK;
  query.x = QueryPool(1)[0];
  query.algorithm = Algorithm::kCelf;

  const auto before = service_->stats().cache;
  const auto miss = service_->Query(query);   // computes and fills
  const auto hit = service_->Query(query);    // must be served by the cache
  ASSERT_TRUE(miss.ok() && hit.ok());
  const auto after = service_->stats().cache;
  EXPECT_GE(after.misses, before.misses + 1);
  EXPECT_GE(after.hits, before.hits + 1);
  EXPECT_EQ(hit->element_ids, miss->element_ids);
  EXPECT_DOUBLE_EQ(hit->score, miss->score);
}

TEST_F(PlannerPropertyTest, PlanSumsShardRoundsAndCandidates) {
  // MTTD's threshold rounds and MTTS's candidate counts are summed over the
  // shards like the other work counters, not dropped by the merge.
  for (const Algorithm algorithm : {Algorithm::kMttd, Algorithm::kMtts}) {
    KsirQuery query;
    query.k = kK;
    query.x = QueryPool(4)[3];
    query.algorithm = algorithm;
    const auto planned = service_->Query(query);  // first ask: a cache miss
    ASSERT_TRUE(planned.ok());

    std::size_t shard_sum = 0;
    for (std::size_t s = 0; s < service_->num_shards(); ++s) {
      ASSERT_GT(service_->shard(s).window().num_active(), 0u) << "shard " << s;
      const auto shard_result = service_->shard(s).Query(query);
      ASSERT_TRUE(shard_result.ok());
      EXPECT_GE(shard_result->stats.num_candidates_or_rounds, 1u)
          << "shard " << s;
      shard_sum += shard_result->stats.num_candidates_or_rounds;
    }
    EXPECT_GE(planned->stats.num_candidates_or_rounds, 1u);
    EXPECT_EQ(planned->stats.num_candidates_or_rounds, shard_sum);
  }
}

TEST_F(PlannerPropertyTest, AdvanceInvalidatesCachedResults) {
  KsirQuery query;
  query.k = kK;
  query.x = QueryPool(2)[1];
  query.algorithm = Algorithm::kCelf;
  ASSERT_TRUE(service_->Query(query).ok());

  const std::uint64_t epoch_before = service_->epoch();
  const Timestamp next_bucket = service_->now() + config_.bucket_length;
  ASSERT_TRUE(service_->AdvanceTo(next_bucket, {}).ok());
  EXPECT_EQ(service_->epoch(), epoch_before + 1);
  const auto stats = service_->stats();
  EXPECT_GT(stats.cache.invalidated, 0);

  // The re-computed answer reflects the slid window (and is re-cached).
  const auto hits_before = service_->stats().cache.hits;
  ASSERT_TRUE(service_->Query(query).ok());
  ASSERT_TRUE(service_->Query(query).ok());
  EXPECT_GE(service_->stats().cache.hits, hits_before + 1);
}

TEST_F(PlannerPropertyTest, StandingQueriesRunAfterEachBucket) {
  KsirQuery query;
  query.k = 5;
  query.x = QueryPool(3)[2];
  query.algorithm = Algorithm::kCelf;
  std::vector<bool> changes;
  service_->standing_queries().Subscribe(
      query, [&](const SubscriptionUpdate& update) {
        changes.push_back(update.first || update.set_changed);
      });

  Timestamp next = service_->now() + config_.bucket_length;
  ASSERT_TRUE(service_->AdvanceTo(next, {}).ok());
  next += config_.bucket_length;
  ASSERT_TRUE(service_->AdvanceTo(next, {}).ok());
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_TRUE(changes[0]);  // first evaluation always reports a change
}

// ---- terms merge vs the snapshot replay it replaced -----------------------

// A window element without its refs: the replay rebuilds each referrer's
// refs from the influence sets.
SocialElement CopyWithoutRefs(const SocialElement& element) {
  SocialElement copy;
  copy.id = element.id;
  copy.ts = element.ts;
  copy.doc = element.doc;
  copy.topics = element.topics;
  return copy;
}

struct ReplayAnswer {
  std::vector<ElementId> ids;
  double score = 0.0;
  bool merge_won = false;
};

// The planner's former export-and-replay merge, kept as the oracle of the
// terms merge. Each shard's members and their in-window referrers are
// copied out of the shard window, replayed by (ts, id) into one merge
// window where every referrer refers to exactly the members it influences,
// and a lazy greedy over the members rescores them through that window;
// the best-shard guard then applies as in QueryPlanner::Plan.
ReplayAnswer ReplayMerge(const KsirService& service, const TopicModel& model,
                         const ScoringParams& params, const KsirQuery& query) {
  std::unordered_map<ElementId, SocialElement> merge_elements;
  std::vector<ElementId> candidate_ids;
  QueryResult best;
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    const KsirEngine& shard = service.shard(s);
    auto result = shard.Query(query);
    KSIR_CHECK(result.ok());
    for (const ElementId id : result->element_ids) {
      candidate_ids.push_back(id);
      merge_elements.try_emplace(id, CopyWithoutRefs(*shard.window().Find(id)));
      for (const Referrer& r : shard.window().ReferrersOf(id)) {
        const SocialElement* referrer = shard.window().Find(r.id);
        KSIR_CHECK(referrer != nullptr);
        merge_elements.try_emplace(r.id, CopyWithoutRefs(*referrer))
            .first->second.refs.push_back(id);
      }
    }
    if (s == 0 || result->score > best.score) best = *std::move(result);
  }

  std::vector<SocialElement> replay;
  Timestamp max_ts = 0;
  for (auto& [id, element] : merge_elements) {
    max_ts = std::max(max_ts, element.ts);
    replay.push_back(std::move(element));
  }
  std::sort(replay.begin(), replay.end(),
            [](const SocialElement& a, const SocialElement& b) {
              return a.ts != b.ts ? a.ts < b.ts : a.id < b.id;
            });
  // As long as the replayed history: nothing expires.
  ActiveWindow merge_window(max_ts);
  KSIR_CHECK(merge_window.Advance(max_ts, std::move(replay)).ok());
  const ScoringContext ctx(&model, &merge_window, params);

  // Lazy greedy over the members: (gain, id, |S| when computed).
  using Entry = std::tuple<double, ElementId, std::size_t>;
  const auto lower = [](const Entry& a, const Entry& b) {
    if (std::get<0>(a) != std::get<0>(b)) {
      return std::get<0>(a) < std::get<0>(b);
    }
    return std::get<1>(a) > std::get<1>(b);
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(lower)> heap(lower);
  CandidateState state(&ctx, &query.x);
  std::sort(candidate_ids.begin(), candidate_ids.end());
  for (const ElementId id : candidate_ids) {
    const double score = ctx.ElementScore(*merge_window.Find(id), query.x);
    if (score > 0.0) heap.emplace(score, id, 0);
  }
  while (!heap.empty() && state.size() < static_cast<std::size_t>(query.k)) {
    const auto [gain, id, stamp] = heap.top();
    heap.pop();
    if (gain <= 0.0) break;
    const SocialElement& e = *merge_window.Find(id);
    if (stamp == state.size()) {
      state.Add(e);
    } else if (const double fresh = state.MarginalGain(e); fresh > 0.0) {
      heap.emplace(fresh, id, state.size());
    }
  }

  ReplayAnswer answer;
  answer.merge_won = state.score() > best.score + 1e-12;
  answer.ids = answer.merge_won ? state.members() : best.element_ids;
  answer.score = answer.merge_won ? state.score() : best.score;
  return answer;
}

TEST(PlannerMergeOracleTest, TermsMergeMatchesSnapshotReplay) {
  // Generator streams: every ref points strictly earlier, the condition
  // under which the replay keeps every edge (see ReplayMerge).
  std::size_t plans = 0;
  std::size_t merge_wins = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    StreamProfile profile = RedditSimProfile();
    profile.num_elements = 1500;
    profile.num_topics = 8;
    profile.vocab_size = 600;
    profile.seed = seed;
    auto stream = GenerateStream(profile);
    ASSERT_TRUE(stream.ok());
    for (const std::size_t num_shards : {2u, 3u}) {
      ServiceConfig config;
      config.engine.scoring.eta = 20.0;
      config.engine.window_length = 24 * 3600;
      config.engine.bucket_length = 15 * 60;
      config.num_shards = num_shards;
      auto service = KsirService::Create(config, &stream->model);
      ASSERT_TRUE(service.ok());
      ASSERT_TRUE((*service)->Append(stream->elements).ok());
      Rng rng(seed * 31 + num_shards);
      for (std::size_t q = 0; q < 4; ++q) {
        // Each query vector is fresh, so every Query below is a cache miss
        // answered by one Plan.
        const auto a = static_cast<std::int32_t>(rng.NextUint64(8));
        const auto b = static_cast<std::int32_t>(rng.NextUint64(8));
        const SparseVector x =
            a == b ? SparseVector::FromEntries({{a, 1.0}})
                   : SparseVector::FromEntries(
                         {{std::min(a, b), 0.3 + 0.4 * rng.NextDouble()},
                          {std::max(a, b), 0.3 + 0.4 * rng.NextDouble()}});
        for (const Algorithm algorithm :
             {Algorithm::kMttd, Algorithm::kMtts, Algorithm::kCelf}) {
          for (const std::int32_t k : {1, 5, 10}) {
            KsirQuery query;
            query.k = k;
            query.x = x;
            query.algorithm = algorithm;
            const std::string where =
                "seed " + std::to_string(seed) + " shards " +
                std::to_string(num_shards) + " k " + std::to_string(k) +
                " algorithm " + std::string(AlgorithmName(algorithm)) +
                " query " + std::to_string(q);
            const PlannerStats before = (*service)->stats().planner;
            const auto planned = (*service)->Query(query);
            ASSERT_TRUE(planned.ok()) << where;
            const PlannerStats after = (*service)->stats().planner;
            ASSERT_EQ(after.plans, before.plans + 1) << where;
            const ReplayAnswer oracle = ReplayMerge(
                **service, stream->model, config.engine.scoring, query);
            EXPECT_EQ(planned->element_ids, oracle.ids) << where;
            EXPECT_NEAR(planned->score, oracle.score, 1e-9) << where;
            EXPECT_EQ(after.merge_wins - before.merge_wins,
                      oracle.merge_won ? 1 : 0)
                << where;
            ++plans;
            merge_wins += oracle.merge_won ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_EQ(plans, 3u * 2u * 4u * 3u * 3u);
  // Both guard outcomes are exercised.
  EXPECT_GT(merge_wins, 0u);
  EXPECT_LT(merge_wins, plans);
}

TEST(PlannerConcurrencyTest, PlansDuringIngestionNeverRetry) {
  StreamProfile profile = RedditSimProfile();
  profile.num_elements = 2400;
  profile.num_topics = 8;
  profile.vocab_size = 600;
  auto stream = GenerateStream(profile);
  ASSERT_TRUE(stream.ok());
  ServiceConfig config;
  config.engine.scoring.eta = 20.0;
  config.engine.window_length = 12 * 3600;
  config.engine.bucket_length = 15 * 60;
  config.num_shards = 2;
  auto created = KsirService::Create(config, &stream->model);
  ASSERT_TRUE(created.ok());
  KsirService& service = **created;
  const std::vector<SocialElement>& elements = stream->elements;
  // The first half ends with every element of its last timestamp, so the
  // second half starts strictly after the service clock.
  std::size_t half = elements.size() / 2;
  while (elements[half].ts == elements[half - 1].ts) ++half;
  ASSERT_TRUE(service
                  .Append(std::vector<SocialElement>(
                      elements.begin(),
                      elements.begin() + static_cast<std::ptrdiff_t>(half)))
                  .ok());

  std::atomic<bool> writing{true};
  std::atomic<int> bad_answers{0};
  std::atomic<int> plans{0};
  const auto reader = [&](std::uint64_t seed) {
    Rng rng(seed);
    int round = 0;
    while (writing.load() || round < 4) {
      ++round;
      KsirQuery query;
      query.k = 1 + static_cast<std::int32_t>(rng.NextUint64(10));
      const auto topic = static_cast<std::int32_t>(rng.NextUint64(8));
      query.x = SparseVector::FromEntries(
          {{topic, 0.5 + 0.5 * rng.NextDouble()}});
      query.algorithm = round % 3 == 0   ? Algorithm::kCelf
                        : round % 3 == 1 ? Algorithm::kMtts
                                         : Algorithm::kMttd;
      const auto result = service.Query(query);
      if (!result.ok()) {
        bad_answers.fetch_add(1);
        continue;
      }
      plans.fetch_add(1);
      std::vector<ElementId> ids = result->element_ids;
      std::sort(ids.begin(), ids.end());
      if (ids.size() > static_cast<std::size_t>(query.k) ||
          std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
        bad_answers.fetch_add(1);
      }
    }
  };
  std::thread first(reader, 1);
  std::thread second(reader, 2);
  // The writer (this thread) advances the second half bucket by bucket
  // while both readers plan.
  Status write_status = Status::OK();
  Timestamp bucket_end = service.now();
  for (std::size_t i = half; i < elements.size() && write_status.ok();) {
    bucket_end += config.engine.bucket_length;
    std::vector<SocialElement> bucket;
    while (i < elements.size() && elements[i].ts <= bucket_end) {
      bucket.push_back(elements[i++]);
    }
    write_status = service.AdvanceTo(bucket_end, std::move(bucket));
  }
  writing.store(false);
  first.join();
  second.join();

  EXPECT_TRUE(write_status.ok()) << write_status.ToString();
  EXPECT_EQ(bad_answers.load(), 0);
  EXPECT_GE(plans.load(), 8);
  EXPECT_EQ(service.stats().planner.epoch_retries, 0);
}

// ---- balance-aware routing at the service seam -----------------------------

TEST(ServiceBalanceTest, CappedRoutingBoundsSkewAndKeepsMergeQualityBar) {
  // A single-component cascade stream (every element references recent
  // predecessors) collapses onto one shard under pure chain affinity. With
  // the cap enabled the per-shard load spread must respect the bound AND
  // the fan-out/merge CELF answer must stay within the 0.95x acceptance
  // bar of a single engine — the trade the cap makes is a few cross-shard
  // edges, not merge quality.
  constexpr std::size_t kShards = 4;
  constexpr double kCap = 2.0;
  constexpr int kTopics = 4;
  constexpr int kVocab = 32;
  Rng rng(99);
  std::vector<std::vector<double>> matrix(kTopics,
                                          std::vector<double>(kVocab));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.05;
  }
  TopicModel model = std::move(TopicModel::FromMatrix(std::move(matrix))).value();

  std::vector<SocialElement> elements;
  for (ElementId id = 0; id < 1200; ++id) {
    SocialElement e;
    e.id = id;
    e.ts = id + 1;
    std::vector<WordId> words;
    for (int w = 0; w < 6; ++w) {
      words.push_back(static_cast<WordId>(rng.NextUint64(kVocab)));
    }
    e.doc = Document::FromWordIds(words);
    e.topics = SparseVector::TruncateAndNormalize(
        rng.NextDirichlet(0.5, kTopics), 0.1);
    const int num_refs = 1 + static_cast<int>(rng.NextUint64(3));
    for (int r = 0; r < num_refs && id > 0; ++r) {
      const ElementId target =
          id - 1 - static_cast<ElementId>(rng.NextUint64(
                       std::min<std::uint64_t>(8, id)));
      if (!std::count(e.refs.begin(), e.refs.end(), target)) {
        e.refs.push_back(target);
      }
    }
    std::sort(e.refs.begin(), e.refs.end());
    elements.push_back(std::move(e));
  }

  EngineConfig engine_config;
  engine_config.scoring.eta = 4.0;
  engine_config.window_length = 600;
  engine_config.bucket_length = 60;
  KsirEngine single(engine_config, &model);
  ASSERT_TRUE(single.Append(elements).ok());

  ServiceConfig capped_config;
  capped_config.engine = engine_config;
  capped_config.engine.max_shard_imbalance = kCap;
  capped_config.num_shards = kShards;
  auto capped = KsirService::Create(capped_config, &model);
  ASSERT_TRUE(capped.ok());
  ASSERT_TRUE((*capped)->Append(elements).ok());

  // Routing actually exercised the cap, and every shard carries recent
  // load. A roaming cascade is the cap's worst case — the chain re-anchors
  // on whatever shard it was pushed to, so placements come in runs and old
  // runs decay unevenly. The cap bounds every admission AND (decay-aware
  // pressure) tightens once the observed spread exceeds the bound, so the
  // end-of-stream skew must now hold the configured bound itself (10%
  // measurement slack), not the former 30% drift allowance.
  const ShardRouter& router = (*capped)->router();
  EXPECT_GT(router.rebalanced(), 0);
  const auto& loads = router.recent_loads();
  EXPECT_GT(*std::min_element(loads.begin(), loads.end()), 0u);
  std::size_t max_active = 0;
  std::size_t min_active = static_cast<std::size_t>(-1);
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::size_t active = (*capped)->shard(s).window().num_active();
    max_active = std::max(max_active, active);
    min_active = std::min(min_active, active);
  }
  ASSERT_GT(min_active, 0u);
  EXPECT_LE(static_cast<double>(max_active) /
                static_cast<double>(min_active),
            kCap * 1.1);

  // Merge-quality acceptance bar against the single engine.
  for (int q = 0; q < 6; ++q) {
    KsirQuery query;
    query.k = 8;
    query.algorithm = Algorithm::kCelf;
    const auto a = static_cast<TopicId>(q % kTopics);
    const auto b = static_cast<TopicId>((q + 1) % kTopics);
    query.x = a == b ? SparseVector::FromEntries({{a, 1.0}})
                     : SparseVector::FromEntries({{a, 0.6}, {b, 0.4}});
    const auto expected = single.Query(query);
    const auto actual = (*capped)->Query(query);
    ASSERT_TRUE(expected.ok() && actual.ok()) << "query " << q;
    EXPECT_GE(actual->score, 0.95 * expected->score)
        << "query " << q << ": capped sharded " << actual->score
        << " vs single " << expected->score;
  }
}

// ---- parallel bucket maintenance at the service/runtime seam ---------------

/// A churny single-cascade stream: references reach far enough back to
/// drive expiry, referrer loss, resurrection and dangling references
/// through the maintainer every few buckets.
std::vector<SocialElement> ChurnStream(int count, int num_topics,
                                       int vocab, Rng* rng) {
  std::vector<SocialElement> elements;
  for (ElementId id = 0; id < count; ++id) {
    SocialElement e;
    e.id = id;
    e.ts = id + 1;
    std::vector<WordId> words;
    for (int w = 0; w < 5; ++w) {
      words.push_back(static_cast<WordId>(rng->NextUint64(vocab)));
    }
    e.doc = Document::FromWordIds(words);
    e.topics = SparseVector::TruncateAndNormalize(
        rng->NextDirichlet(0.5, num_topics), 0.1);
    const int num_refs = static_cast<int>(rng->NextUint64(4));
    for (int r = 0; r < num_refs && id > 0; ++r) {
      const ElementId target =
          id - 1 - static_cast<ElementId>(rng->NextUint64(
                       std::min<std::uint64_t>(240, id)));
      if (!std::count(e.refs.begin(), e.refs.end(), target)) {
        e.refs.push_back(target);
      }
    }
    std::sort(e.refs.begin(), e.refs.end());
    elements.push_back(std::move(e));
  }
  return elements;
}

TEST(ParallelMaintenanceTest, ChurnStreamMatchesSerialUnderConcurrentQueries) {
  // TSan-covered churn test of the staged parallel apply: a parallel
  // engine ingests an expiry/resurrection-heavy stream while a reader
  // thread hammers queries (shared lock vs. the exclusive advance that
  // fans out on the pool). The final index and query results must be
  // bitwise identical to a one-participant engine fed the same stream.
  constexpr int kTopics = 6;
  Rng rng(1234);
  std::vector<std::vector<double>> matrix(kTopics, std::vector<double>(48));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.05;
  }
  TopicModel model =
      std::move(TopicModel::FromMatrix(std::move(matrix))).value();
  const std::vector<SocialElement> elements =
      ChurnStream(1500, kTopics, 48, &rng);

  EngineConfig serial_config;
  serial_config.scoring.eta = 4.0;
  serial_config.window_length = 100;
  serial_config.bucket_length = 10;
  serial_config.archive_retention = 200;  // > T: resurrection territory
  EngineConfig parallel_config = serial_config;
  parallel_config.maintenance_threads = 4;

  KsirEngine serial(serial_config, &model);
  ASSERT_TRUE(serial.Append(elements).ok());

  KsirEngine parallel(parallel_config, &model);
  ASSERT_TRUE(parallel.maintenance_stats().buckets_processed == 0);
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    KsirQuery query;
    query.k = 3;
    query.epsilon = 0.2;
    query.algorithm = Algorithm::kMttd;
    query.x = SparseVector::FromEntries({{0, 0.5}, {1, 0.5}});
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(parallel.Query(query).ok());
    }
  });
  ASSERT_TRUE(parallel.Append(elements).ok());
  stop.store(true, std::memory_order_release);
  reader.join();

  ASSERT_EQ(parallel.index().num_elements(), serial.index().num_elements());
  ASSERT_EQ(parallel.index().total_entries(),
            serial.index().total_entries());
  for (TopicId topic = 0; topic < kTopics; ++topic) {
    const auto& plist = parallel.index().list(topic);
    const auto& slist = serial.index().list(topic);
    ASSERT_EQ(plist.size(), slist.size()) << "topic " << topic;
    auto sit = slist.begin();
    for (const auto& key : plist) {
      ASSERT_EQ(key.id, sit->id) << "topic " << topic;
      ASSERT_EQ(key.score, sit->score) << "topic " << topic;
      ++sit;
    }
  }
  for (const Algorithm algorithm :
       {Algorithm::kMtts, Algorithm::kMttd, Algorithm::kCelf}) {
    KsirQuery query;
    query.k = 5;
    query.epsilon = 0.2;
    query.algorithm = algorithm;
    query.x = SparseVector::FromEntries({{1, 0.6}, {2, 0.4}});
    const auto expected = serial.Query(query);
    const auto actual = parallel.Query(query);
    ASSERT_TRUE(expected.ok() && actual.ok());
    EXPECT_EQ(actual->element_ids, expected->element_ids)
        << AlgorithmName(algorithm);
    EXPECT_EQ(actual->score, expected->score) << AlgorithmName(algorithm);
  }
}

TEST(ParallelMaintenanceTest, EnginesShareOneExternalPool) {
  // The runtime factory's pool is the process-wide seam: two parallel
  // engines advanced concurrently from two threads fan their staged
  // applies out on ONE external pool, no per-engine pools are spawned, and
  // each engine stays bitwise the one-participant engine.
  constexpr int kTopics = 4;
  Rng rng(77);
  std::vector<std::vector<double>> matrix(kTopics, std::vector<double>(32));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.05;
  }
  TopicModel model =
      std::move(TopicModel::FromMatrix(std::move(matrix))).value();
  const std::vector<SocialElement> elements =
      ChurnStream(600, kTopics, 32, &rng);

  const std::unique_ptr<WorkerPool> pool = MakeWorkerPool(3);
  ASSERT_EQ(pool->num_threads(), 3u);

  EngineConfig engine_config;
  engine_config.scoring.eta = 4.0;
  engine_config.window_length = 100;
  engine_config.bucket_length = 10;
  engine_config.maintenance_threads = 4;
  ASSERT_TRUE(UsesParallelMaintenance(engine_config));

  KsirEngine serial_reference(
      [&] {
        EngineConfig config = engine_config;
        config.maintenance_threads = 0;
        return config;
      }(),
      &model);
  ASSERT_TRUE(serial_reference.Append(elements).ok());

  KsirEngine first(engine_config, &model, pool.get());
  KsirEngine second(engine_config, &model, pool.get());
  std::thread other([&]() { ASSERT_TRUE(second.Append(elements).ok()); });
  ASSERT_TRUE(first.Append(elements).ok());
  other.join();

  // The pool was never grown or replaced: both engines ran on the same
  // three threads (plus their callers).
  EXPECT_EQ(pool->num_threads(), 3u);

  KsirQuery query;
  query.k = 4;
  query.epsilon = 0.2;
  query.algorithm = Algorithm::kCelf;
  query.x = SparseVector::FromEntries({{0, 0.7}, {3, 0.3}});
  const auto expected = serial_reference.Query(query);
  ASSERT_TRUE(expected.ok());
  for (const KsirEngine* engine : {&first, &second}) {
    const auto actual = engine->Query(query);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(actual->element_ids, expected->element_ids);
    EXPECT_EQ(actual->score, expected->score);
  }
}

TEST(ParallelMaintenanceTest, NestedFanOutOnAOneThreadPoolMatchesSerial) {
  // Three shard advances fan out on a ONE-thread pool, and each shard's
  // four-participant bucket apply fans out again on that same pool. The
  // single worker is busy with a shard most of the time, so the nested
  // stages only finish because every caller can run all of its own
  // indices; the answers must be the one-participant service's.
  constexpr int kTopics = 6;
  Rng rng(2468);
  std::vector<std::vector<double>> matrix(kTopics, std::vector<double>(48));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.05;
  }
  TopicModel model =
      std::move(TopicModel::FromMatrix(std::move(matrix))).value();
  const std::vector<SocialElement> elements =
      ChurnStream(1200, kTopics, 48, &rng);

  ServiceConfig serial_config;
  serial_config.engine.scoring.eta = 4.0;
  serial_config.engine.window_length = 100;
  serial_config.engine.bucket_length = 10;
  serial_config.engine.archive_retention = 200;
  serial_config.num_shards = 3;
  ServiceConfig nested_config = serial_config;
  nested_config.engine.maintenance_threads = 4;
  nested_config.num_workers = 1;

  auto serial = KsirService::Create(serial_config, &model);
  auto nested = KsirService::Create(nested_config, &model);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(nested.ok());
  ASSERT_TRUE((*serial)->Append(elements).ok());
  ASSERT_TRUE((*nested)->Append(elements).ok());
  for (const Algorithm algorithm :
       {Algorithm::kMtts, Algorithm::kMttd, Algorithm::kCelf}) {
    KsirQuery query;
    query.k = 5;
    query.epsilon = 0.2;
    query.algorithm = algorithm;
    query.x = SparseVector::FromEntries({{1, 0.6}, {4, 0.4}});
    const auto expected = (*serial)->Query(query);
    const auto actual = (*nested)->Query(query);
    ASSERT_TRUE(expected.ok() && actual.ok());
    EXPECT_EQ(actual->element_ids, expected->element_ids)
        << AlgorithmName(algorithm);
    EXPECT_EQ(actual->score, expected->score) << AlgorithmName(algorithm);
  }
}

TEST(ParallelMaintenanceTest, ServiceChurnWithRebalancingMatchesSerial) {
  // TSan-covered end-to-end churn of the runtime: a sharded service with
  // four-way parallel maintenance (the topic-sharded expiry / gather /
  // list-apply stages) and router rebalancing ingests an expiry + resurrection heavy stream while a
  // reader hammers queries. Routing depends only on the element stream,
  // so the shard engines — and therefore every query — must land exactly
  // where a one-participant-maintenance service with the same config
  // lands.
  constexpr int kTopics = 6;
  Rng rng(4321);
  std::vector<std::vector<double>> matrix(kTopics, std::vector<double>(48));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.05;
  }
  TopicModel model =
      std::move(TopicModel::FromMatrix(std::move(matrix))).value();
  const std::vector<SocialElement> elements =
      ChurnStream(1200, kTopics, 48, &rng);

  ServiceConfig base;
  base.engine.scoring.eta = 4.0;
  base.engine.window_length = 100;
  base.engine.bucket_length = 10;
  base.engine.archive_retention = 200;  // > T: resurrection territory
  base.engine.max_shard_imbalance = 1.2;
  base.num_shards = 2;

  ServiceConfig parallel_config = base;
  parallel_config.engine.maintenance_threads = 4;

  auto serial = KsirService::Create(base, &model);
  auto parallel = KsirService::Create(parallel_config, &model);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE((*serial)->Append(elements).ok());

  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    KsirQuery query;
    query.k = 3;
    query.epsilon = 0.2;
    query.algorithm = Algorithm::kMttd;
    query.x = SparseVector::FromEntries({{0, 0.5}, {2, 0.5}});
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE((*parallel)->Query(query).ok());
    }
  });
  ASSERT_TRUE((*parallel)->Append(elements).ok());
  stop.store(true, std::memory_order_release);
  reader.join();

  for (const Algorithm algorithm :
       {Algorithm::kMtts, Algorithm::kMttd, Algorithm::kCelf}) {
    KsirQuery query;
    query.k = 5;
    query.epsilon = 0.2;
    query.algorithm = algorithm;
    query.x = SparseVector::FromEntries({{1, 0.6}, {4, 0.4}});
    const auto expected = (*serial)->Query(query);
    const auto actual = (*parallel)->Query(query);
    ASSERT_TRUE(expected.ok() && actual.ok());
    EXPECT_EQ(actual->element_ids, expected->element_ids)
        << AlgorithmName(algorithm);
    EXPECT_EQ(actual->score, expected->score) << AlgorithmName(algorithm);
  }

  // Pool observability of the parallel run: tasks flowed.
  EXPECT_GT((*parallel)
                ->telemetry()
                .registry()
                .GetCounter("ksir_pool_tasks_total")
                ->Value(),
            0);
}

// ---- result cache unit behavior -------------------------------------------

TEST(ResultCacheTest, StatsAndFloorReadableDuringConcurrentSweeps) {
  // Regression (TSan-covered): the stats counters and the invalidation
  // floor are read by monitoring threads while queries insert and bucket
  // advances sweep. The counters are atomics now; under the old plain
  // fields this read raced InvalidateBefore/Insert.
  ResultCache cache(64);
  KsirQuery query;
  query.x = SparseVector::FromEntries({{0, 1.0}});
  QueryResult result;
  result.score = 1.0;
  constexpr std::uint64_t kEpochs = 2000;

  std::atomic<bool> stop{false};
  std::atomic<bool> floor_monotone{true};
  std::thread monitor([&] {
    std::uint64_t prev = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t floor = cache.invalidation_floor();
      if (floor < prev) floor_monotone.store(false);
      prev = floor;
      const ResultCacheStats stats = cache.stats();
      if (stats.hits < 0 || stats.misses < 0) floor_monotone.store(false);
    }
  });
  std::thread sweeper([&] {
    for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
      cache.InvalidateBefore(epoch);
    }
  });
  for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    cache.Insert(cache.MakeKey(query, epoch), result);
    (void)cache.Lookup(cache.MakeKey(query, epoch));
  }
  sweeper.join();
  stop.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_TRUE(floor_monotone.load());
  EXPECT_EQ(cache.invalidation_floor(), kEpochs);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::int64_t>(kEpochs));
}

TEST(ResultCacheTest, QuantizesNearbyQueryVectors) {
  ResultCache cache(8, 1e-3);
  KsirQuery a;
  a.k = 5;
  a.x = SparseVector::FromEntries({{0, 0.5}, {1, 0.5}});
  KsirQuery b = a;
  b.x = SparseVector::FromEntries({{0, 0.5000001}, {1, 0.4999999}});
  EXPECT_EQ(cache.MakeKey(a, 7), cache.MakeKey(b, 7));
  KsirQuery c = a;
  c.x = SparseVector::FromEntries({{0, 0.6}, {1, 0.4}});
  EXPECT_FALSE(cache.MakeKey(a, 7) == cache.MakeKey(c, 7));
  // Same query at another epoch is another key.
  EXPECT_FALSE(cache.MakeKey(a, 7) == cache.MakeKey(a, 8));
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  KsirQuery query;
  query.x = SparseVector::FromEntries({{0, 1.0}});
  QueryResult result;
  result.score = 1.0;
  const auto k1 = cache.MakeKey(query, 1);
  const auto k2 = cache.MakeKey(query, 2);
  const auto k3 = cache.MakeKey(query, 3);
  cache.Insert(k1, result);
  cache.Insert(k2, result);
  ASSERT_TRUE(cache.Lookup(k1).has_value());  // refresh k1; k2 becomes LRU
  cache.Insert(k3, result);                   // evicts k2
  EXPECT_TRUE(cache.Lookup(k1).has_value());
  EXPECT_FALSE(cache.Lookup(k2).has_value());
  EXPECT_TRUE(cache.Lookup(k3).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ResultCacheTest, InvalidateBeforeDropsOldEpochs) {
  ResultCache cache(16);
  KsirQuery query;
  query.x = SparseVector::FromEntries({{0, 1.0}});
  QueryResult result;
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) {
    cache.Insert(cache.MakeKey(query, epoch), result);
  }
  cache.InvalidateBefore(4);
  EXPECT_EQ(cache.size(), 2u);  // epochs 4 and 5 survive
  EXPECT_EQ(cache.stats().invalidated, 3);
}

TEST(ResultCacheTest, InsertBelowInvalidationFloorIsDropped) {
  // Regression: a query that computed its result before a bucket advance
  // but inserted after the sweep used to park a dead entry in the LRU.
  ResultCache cache(16);
  KsirQuery query;
  query.x = SparseVector::FromEntries({{0, 1.0}});
  QueryResult result;
  cache.InvalidateBefore(5);
  cache.Insert(cache.MakeKey(query, 3), result);  // raced the sweep
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(cache.MakeKey(query, 3)).has_value());
  EXPECT_EQ(cache.stats().stale_inserts, 1);
  cache.Insert(cache.MakeKey(query, 5), result);  // at the floor: admitted
  EXPECT_EQ(cache.size(), 1u);
  // The floor is monotone: an older InvalidateBefore cannot lower it.
  cache.InvalidateBefore(2);
  cache.Insert(cache.MakeKey(query, 4), result);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().stale_inserts, 2);
}

TEST(ServiceTest, StatsReadableDuringConcurrentIngestion) {
  // TSan regression: IngestionStats used to live in plain int64 fields
  // written by AdvanceTo, so reading service stats() while a bucket was
  // ingesting was a documented data race. The counters are registry-backed
  // atomics now and the active-set sizes are read under each shard's query
  // lock — stats() must be callable from a monitor thread at any time.
  constexpr int kTopics = 4;
  Rng rng(4242);
  std::vector<std::vector<double>> matrix(kTopics, std::vector<double>(32));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.05;
  }
  TopicModel model =
      std::move(TopicModel::FromMatrix(std::move(matrix))).value();
  ServiceConfig config;
  config.engine.scoring.eta = 4.0;
  config.engine.window_length = 60;
  config.engine.bucket_length = 5;
  config.num_shards = 2;
  auto service = KsirService::Create(config, &model);
  ASSERT_TRUE(service.ok());

  std::atomic<bool> stop{false};
  std::thread monitor([&]() {
    std::int64_t last_elements = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const ServiceStats stats = (*service)->stats();
      // Counters are monotone even mid-bucket.
      ASSERT_GE(stats.ingestion.elements_ingested, last_elements);
      last_elements = stats.ingestion.elements_ingested;
      ASSERT_GE(stats.ingestion.buckets_processed, 0);
      ASSERT_GE(stats.ingestion.total_update_ms, 0.0);
    }
  });
  ASSERT_TRUE((*service)->Append(ChurnStream(1200, kTopics, 32, &rng)).ok());
  stop.store(true, std::memory_order_release);
  monitor.join();

  const ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.ingestion.elements_ingested, 1200);
  EXPECT_GT(stats.num_active_total, 0u);
}

}  // namespace
}  // namespace ksir
