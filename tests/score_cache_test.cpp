// ScoreCache equivalence and staleness-direction tests.
//
// The maintenance pipeline with the incremental score source
// (ScoreMaintenance::kIncremental, at one participant and at several) must be
// observationally identical to the from-scratch score source
// (ScoreMaintenance::kRecompute) after arbitrary Advance sequences —
// insertions, referrer gains, referrer expiry, element expiry and
// resurrection, under both RefreshModes. Because both sources share list
// maintenance, a naive-rebuild oracle checks the lists themselves against
// the window. Under RefreshMode::kPaper the listed scores may only ever be
// stale-HIGH (sound upper bounds), never stale-low. The query path's
// singleton delta(e, x), read off the cached halves, must match the
// from-scratch ElementScore in every mode, and expiry must clear the
// window slot that carries the cache entry.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/index_maintainer.h"
#include "core/mttd.h"
#include "core/score_cache.h"
#include "runtime/worker_pool.h"
#include "stream/element.h"
#include "stream_gen.h"
#include "topic/topic_model.h"

namespace ksir {
namespace {

constexpr int kNumTopics = 4;
constexpr double kTol = 1e-9;

TopicModel MakeModel(Rng* rng) { return testing::MakeModel(rng); }

SocialElement RandomElement(Rng* rng, ElementId id, Timestamp ts,
                            const std::vector<ElementId>& history,
                            std::size_t ref_reach) {
  testing::StreamGenConfig config;
  config.ref_reach = ref_reach;
  return testing::RandomElement(rng, id, ts, history, config);
}

/// Naive-rebuild oracle (kExact only): rebuilding the lists from the
/// window would put exactly the active ids with p_i(e) > 0 on topic i, in
/// strict (score descending, id ascending) order, each keyed by the
/// from-scratch delta_i(e). The maintained lists must match that within
/// kTol.
void CheckNaiveRebuild(const KsirEngine& engine, Timestamp t,
                       const char* name) {
  const ActiveWindow& window = engine.window();
  for (TopicId topic = 0; topic < kNumTopics; ++topic) {
    std::set<ElementId> expected;
    for (const ElementId id : window.ActiveIds()) {
      if (window.Find(id)->topics.Get(topic) > 0.0) expected.insert(id);
    }
    const RankedList& list = engine.index().list(topic);
    ASSERT_EQ(list.size(), expected.size())
        << name << " t=" << t << " topic=" << topic;
    const RankedList::Key* prev = nullptr;
    for (const RankedList::Key& key : list) {
      ASSERT_EQ(expected.erase(key.id), 1u)
          << name << " t=" << t << " topic=" << topic << " e=" << key.id;
      if (prev != nullptr) {
        ASSERT_TRUE(*prev < key)
            << name << " t=" << t << " topic=" << topic << " e=" << key.id;
      }
      const SocialElement* e = window.Find(key.id);
      EXPECT_NEAR(key.score, engine.scoring().TopicScore(topic, *e), kTol)
          << name << " t=" << t << " topic=" << topic << " e=" << key.id;
      prev = &key;
    }
  }
}

/// Feeds the same random stream to four engines bucket by bucket — the
/// staged apply with one participant (production default), the same apply
/// fanned out over three (maintenance_threads = 3, engine-owned pool), the
/// same apply at maintenance_threads = 4 on an external pool with MORE
/// threads than helpers (participants stay capped at 4) and the
/// from-scratch score source — checking
/// list-state equality after every advance. The three incremental engines
/// must agree bitwise (they compose identical doubles from the same cache,
/// and every list sees the same operation order at every participant
/// count); recompute agrees within kTol. Under kExact every engine also
/// passes the naive-rebuild oracle.
void RunEquivalenceStream(std::uint64_t seed, RefreshMode mode) {
  Rng rng(seed);
  TopicModel model = MakeModel(&rng);

  EngineConfig base;
  base.scoring.lambda = 0.4;
  base.scoring.eta = 2.0;
  base.window_length = 6;
  base.bucket_length = 2;
  base.archive_retention = 10;  // > T: keeps targets resurrectable
  base.refresh_mode = mode;

  EngineConfig handle_config = base;
  handle_config.score_maintenance = ScoreMaintenance::kIncremental;
  // Positions carried as handles, every reposition one UpdateHandle...
  // ...vs. the staged parallel apply of the same pipeline...
  EngineConfig parallel_config = handle_config;
  parallel_config.maintenance_threads = 3;
  // ...vs. the same staged apply at a different worker count, on an
  // external pool wider than the participant cap (determinism must not
  // depend on which threads run the shards)...
  EngineConfig shared_config = handle_config;
  shared_config.maintenance_threads = 4;
  // ...vs. the from-scratch score source in the same pipeline.
  EngineConfig recompute_config = handle_config;
  recompute_config.score_maintenance = ScoreMaintenance::kRecompute;

  KsirEngine handle(handle_config, &model);
  KsirEngine parallel(parallel_config, &model);
  auto wide_pool = MakeWorkerPool(6);
  KsirEngine shared(shared_config, &model, wide_pool.get());
  KsirEngine recompute(recompute_config, &model);

  ElementId next_id = 1;
  std::vector<ElementId> history;
  for (Timestamp bucket_end = 2; bucket_end <= 40; bucket_end += 2) {
    std::vector<SocialElement> bucket;
    const int count = static_cast<int>(rng.NextUint64(4));
    for (int i = 0; i < count; ++i) {
      const Timestamp ts =
          bucket_end - 1 + static_cast<Timestamp>(rng.NextUint64(2));
      bucket.push_back(
          RandomElement(&rng, next_id++, ts, history, /*ref_reach=*/12));
      history.push_back(bucket.back().id);
    }
    std::sort(bucket.begin(), bucket.end(),
              [](const SocialElement& a, const SocialElement& b) {
                return a.ts < b.ts;
              });
    ASSERT_TRUE(handle.AdvanceTo(bucket_end, bucket).ok());
    ASSERT_TRUE(parallel.AdvanceTo(bucket_end, bucket).ok());
    ASSERT_TRUE(shared.AdvanceTo(bucket_end, bucket).ok());
    ASSERT_TRUE(recompute.AdvanceTo(bucket_end, std::move(bucket)).ok());

    if (mode == RefreshMode::kExact) {
      ASSERT_NO_FATAL_FAILURE(CheckNaiveRebuild(handle, bucket_end, "handle"));
      ASSERT_NO_FATAL_FAILURE(
          CheckNaiveRebuild(parallel, bucket_end, "parallel"));
      ASSERT_NO_FATAL_FAILURE(CheckNaiveRebuild(shared, bucket_end, "shared"));
      ASSERT_NO_FATAL_FAILURE(
          CheckNaiveRebuild(recompute, bucket_end, "recompute"));
    }

    // Same active set, same index membership, same tuples.
    const auto& iw = handle.window();
    const auto& rw = recompute.window();
    ASSERT_EQ(iw.num_active(), rw.num_active()) << "t=" << bucket_end;
    ASSERT_EQ(handle.index().num_elements(),
              recompute.index().num_elements());
    ASSERT_EQ(handle.index().total_entries(),
              recompute.index().total_entries());
    ASSERT_EQ(handle.index().total_entries(),
              parallel.index().total_entries());
    ASSERT_EQ(handle.index().total_entries(),
              shared.index().total_entries());
    for (ElementId id : iw.ActiveIds()) {
      const SocialElement* e = iw.Find(id);
      ASSERT_NE(e, nullptr);
      for (const auto& [topic, prob] : e->topics.entries()) {
        ASSERT_TRUE(handle.index().list(topic).Contains(id))
            << "t=" << bucket_end << " e=" << id;
        ASSERT_TRUE(recompute.index().list(topic).Contains(id));
        const double lhs = handle.index().list(topic).Get(id);
        const double rhs = recompute.index().list(topic).Get(id);
        EXPECT_NEAR(lhs, rhs, kTol)
            << "t=" << bucket_end << " e=" << id << " topic=" << topic;
      }
      // t_e is per element; all engines must agree exactly.
      EXPECT_EQ(handle.index().TimeOf(id), parallel.index().TimeOf(id))
          << "t=" << bucket_end << " e=" << id;
      EXPECT_EQ(handle.index().TimeOf(id), shared.index().TimeOf(id))
          << "t=" << bucket_end << " e=" << id;
      EXPECT_EQ(handle.index().TimeOf(id), recompute.index().TimeOf(id));
    }
    // The whole key sequence of every list must match across the three
    // incremental engines (same order, bitwise-equal scores).
    for (TopicId topic = 0; topic < kNumTopics; ++topic) {
      const auto& hlist = handle.index().list(topic);
      const auto& plist = parallel.index().list(topic);
      const auto& slist = shared.index().list(topic);
      ASSERT_EQ(hlist.size(), plist.size());
      ASSERT_EQ(hlist.size(), slist.size());
      auto pit = plist.begin();
      auto sit = slist.begin();
      for (const auto& key : hlist) {
        ASSERT_EQ(key.id, pit->id) << "t=" << bucket_end << " topic=" << topic;
        ASSERT_EQ(key.score, pit->score);
        ASSERT_EQ(key.id, sit->id) << "t=" << bucket_end << " topic=" << topic;
        ASSERT_EQ(key.score, sit->score);
        ++pit;
        ++sit;
      }
    }
  }

  // Query results must be identical down to the reported ids.
  KsirQuery query;
  query.k = 4;
  query.epsilon = 0.2;
  query.x = SparseVector::TruncateAndNormalize(
      rng.NextDirichlet(0.5, kNumTopics), 0.1);
  for (const Algorithm algorithm :
       {Algorithm::kMtts, Algorithm::kMttd, Algorithm::kCelf,
        Algorithm::kTopkRepresentative}) {
    query.algorithm = algorithm;
    const auto lhs = handle.Query(query);
    const auto par = parallel.Query(query);
    const auto shr = shared.Query(query);
    const auto rhs = recompute.Query(query);
    ASSERT_TRUE(lhs.ok());
    ASSERT_TRUE(par.ok());
    ASSERT_TRUE(shr.ok());
    ASSERT_TRUE(rhs.ok());
    EXPECT_EQ(lhs->element_ids, par->element_ids) << AlgorithmName(algorithm);
    EXPECT_EQ(lhs->score, par->score) << AlgorithmName(algorithm);
    EXPECT_EQ(lhs->element_ids, shr->element_ids) << AlgorithmName(algorithm);
    EXPECT_EQ(lhs->score, shr->score) << AlgorithmName(algorithm);
    EXPECT_EQ(lhs->element_ids, rhs->element_ids)
        << AlgorithmName(algorithm);
    EXPECT_NEAR(lhs->score, rhs->score, kTol) << AlgorithmName(algorithm);
  }
}

class ScoreCacheEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScoreCacheEquivalenceTest, ExactModeMatchesRecompute) {
  RunEquivalenceStream(GetParam(), RefreshMode::kExact);
}

TEST_P(ScoreCacheEquivalenceTest, PaperModeMatchesRecompute) {
  RunEquivalenceStream(GetParam(), RefreshMode::kPaper);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreCacheEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// ------------------------------------------ kPaper staleness direction ----

TEST(ScoreCachePaperModeTest, ListedScoresNeverStaleLow) {
  // Under kPaper with incremental maintenance, every listed score must stay
  // an upper bound on the true delta_i(e) across a long random stream (the
  // stale-high invariant that keeps threshold pruning sound).
  Rng rng(77);
  TopicModel model = MakeModel(&rng);
  EngineConfig config;
  config.scoring.eta = 2.0;
  config.window_length = 6;
  config.bucket_length = 2;
  config.archive_retention = 10;
  config.refresh_mode = RefreshMode::kPaper;
  config.score_maintenance = ScoreMaintenance::kIncremental;
  KsirEngine engine(config, &model);

  ElementId next_id = 1;
  std::vector<ElementId> history;
  bool saw_stale = false;
  for (Timestamp bucket_end = 2; bucket_end <= 60; bucket_end += 2) {
    std::vector<SocialElement> bucket;
    const int count = static_cast<int>(rng.NextUint64(4));
    for (int i = 0; i < count; ++i) {
      const Timestamp ts =
          bucket_end - 1 + static_cast<Timestamp>(rng.NextUint64(2));
      bucket.push_back(
          RandomElement(&rng, next_id++, ts, history, /*ref_reach=*/12));
      history.push_back(bucket.back().id);
    }
    std::sort(bucket.begin(), bucket.end(),
              [](const SocialElement& a, const SocialElement& b) {
                return a.ts < b.ts;
              });
    ASSERT_TRUE(engine.AdvanceTo(bucket_end, std::move(bucket)).ok());
    for (ElementId id : engine.window().ActiveIds()) {
      const SocialElement* e = engine.window().Find(id);
      for (const auto& [topic, prob] : e->topics.entries()) {
        const double listed = engine.index().list(topic).Get(id);
        const double exact = engine.scoring().TopicScore(topic, *e, prob);
        EXPECT_GE(listed, exact - kTol)
            << "stale-LOW bound at t=" << bucket_end << " e=" << id;
        if (listed > exact + kTol) saw_stale = true;
      }
    }
  }
  // The stream is long enough that staleness actually occurred; otherwise
  // this test would vacuously pass.
  EXPECT_TRUE(saw_stale);
}

TEST(SameCallLifetimeTest, FarJumpInsertAndExpireDoesNotBreakMaintenance) {
  // Engine-level regression for the disjointness contract: a bucket whose
  // element is already outside the window at the bucket's end must not make
  // the maintainer erase a never-indexed element (abort) in either mode.
  Rng rng(5);
  TopicModel model = MakeModel(&rng);
  for (const ScoreMaintenance maintenance :
       {ScoreMaintenance::kIncremental, ScoreMaintenance::kRecompute}) {
    EngineConfig config;
    config.scoring.eta = 2.0;
    config.window_length = 4;
    config.bucket_length = 1;
    config.score_maintenance = maintenance;
    KsirEngine engine(config, &model);
    std::vector<ElementId> history;
    ASSERT_TRUE(
        engine
            .AdvanceTo(1, {RandomElement(&rng, 1, 1, history, /*ref_reach=*/4)})
            .ok());
    // Jump to t=100 with an element at ts=95: it leaves W_t immediately.
    ASSERT_TRUE(
        engine
            .AdvanceTo(100,
                       {RandomElement(&rng, 2, 95, history, /*ref_reach=*/4)})
            .ok());
    EXPECT_EQ(engine.index().num_elements(), 0u);
    EXPECT_EQ(engine.window().num_active(), 0u);
    // The archived element is resurrectable and re-enters the index.
    SocialElement e3;
    e3.id = 3;
    e3.ts = 101;
    e3.doc = Document::FromWordIds({0});
    e3.topics = SparseVector::FromEntries({{0, 1.0}});
    e3.refs = {2};
    ASSERT_TRUE(engine.AdvanceTo(101, {e3}).ok());
    EXPECT_TRUE(engine.window().IsActive(2));
    EXPECT_EQ(engine.index().num_elements(), 2u);
  }
}

TEST(ScoreCachePaperModeTest, NextGainRepositionsToExactScore) {
  // Regression: under kPaper the cache must keep absorbing lost edges even
  // though the lists are not repositioned, so the *next* gained edge lands
  // the listed score exactly on the true delta_i(e) — not on a value that
  // still contains the expired referrer.
  auto model = TopicModel::FromMatrix({{0.5, 0.5}});
  ASSERT_TRUE(model.ok());
  EngineConfig config;
  config.scoring.lambda = 0.5;
  config.scoring.eta = 2.0;
  config.window_length = 4;
  config.bucket_length = 1;
  config.refresh_mode = RefreshMode::kPaper;
  config.score_maintenance = ScoreMaintenance::kIncremental;
  KsirEngine engine(config, &*model);

  auto mk = [](ElementId id, Timestamp ts, std::vector<ElementId> refs) {
    SocialElement e;
    e.id = id;
    e.ts = ts;
    e.doc = Document::FromWordIds({0});
    e.refs = std::move(refs);
    e.topics = SparseVector::FromEntries({{0, 1.0}});
    return e;
  };
  ASSERT_TRUE(engine.AdvanceTo(1, {mk(1, 1, {})}).ok());
  ASSERT_TRUE(engine.AdvanceTo(2, {mk(2, 2, {1})}).ok());
  ASSERT_TRUE(engine.AdvanceTo(5, {mk(3, 5, {1})}).ok());
  // t=6: e2 expires out of the window; e1 loses that referral but keeps e3.
  ASSERT_TRUE(engine.AdvanceTo(6, {}).ok());
  const SocialElement* e1 = engine.window().Find(1);
  ASSERT_NE(e1, nullptr);
  EXPECT_GT(engine.index().list(0).Get(1),
            engine.scoring().TopicScore(0, *e1));  // stale-high, by design
  // t=7: e4 refers to e1 -> gained edge -> reposition. The listed score
  // must now equal the exact recomputation (loss of e2 plus gain of e4).
  ASSERT_TRUE(engine.AdvanceTo(7, {mk(4, 7, {1})}).ok());
  e1 = engine.window().Find(1);
  ASSERT_NE(e1, nullptr);
  EXPECT_NEAR(engine.index().list(0).Get(1),
              engine.scoring().TopicScore(0, *e1), 1e-12);
}

// ------------------------------------------- query-path singleton ----

/// delta(e, x) as MTTS and MTTD read it: off the element's cached halves.
double CachedSingleton(const KsirEngine& engine, ElementId id,
                       const SparseVector& x) {
  const ScoringContext& ctx = engine.scoring();
  return ScoreCache::SingletonScore(
      ScoreCache::OfActive(engine.window().FindActive(id)), x,
      ctx.params().lambda, ctx.influence_factor());
}

/// delta(e, x) composed from the listed keys (stale-high under kPaper).
double ListedSingleton(const KsirEngine& engine, ElementId id,
                       const SparseVector& x) {
  double score = 0.0;
  for (const auto& [topic, weight] : x.entries()) {
    const RankedList& list = engine.index().list(topic);
    if (list.Contains(id)) score += weight * list.Get(id);
  }
  return score;
}

/// Random stream with expiry and resurrection; after every bucket, every
/// active element's cached singleton must equal ElementScore for every
/// query. Under kPaper it must follow the exact halves even where the
/// listed key went stale-high after a referrer loss.
void RunSingletonDifferential(std::uint64_t seed, RefreshMode mode,
                              std::size_t threads) {
  testing::StreamGen gen(seed);
  TopicModel model = gen.MakeModel();
  EngineConfig config;
  config.scoring.lambda = 0.4;
  config.scoring.eta = 2.0;
  config.window_length = 6;
  config.bucket_length = 2;
  config.archive_retention = 10;  // > T: keeps targets resurrectable
  config.refresh_mode = mode;
  config.maintenance_threads = threads;
  KsirEngine engine(config, &model);
  std::vector<SparseVector> queries;
  for (int q = 0; q < 4; ++q) queries.push_back(gen.RandomQueryVector());

  std::vector<ElementId> seen;
  std::set<ElementId> archived;
  bool saw_resurrection = false;
  bool saw_stale = false;
  for (Timestamp bucket_end = 2; bucket_end <= 60; bucket_end += 2) {
    std::vector<SocialElement> bucket = gen.NextBucket(bucket_end);
    for (const SocialElement& e : bucket) seen.push_back(e.id);
    ASSERT_TRUE(engine.AdvanceTo(bucket_end, std::move(bucket)).ok());
    const ActiveWindow& window = engine.window();
    for (const ElementId id : seen) {
      if (window.IsActive(id) && archived.erase(id) > 0) {
        saw_resurrection = true;
      }
      if (window.IsArchived(id)) archived.insert(id);
    }
    for (const ElementId id : window.ActiveIds()) {
      const SocialElement* e = window.Find(id);
      for (const SparseVector& x : queries) {
        const double singleton = CachedSingleton(engine, id, x);
        const double exact = engine.scoring().ElementScore(*e, x);
        ASSERT_NEAR(singleton, exact, kTol)
            << "t=" << bucket_end << " e=" << id;
        if (mode != RefreshMode::kPaper) continue;
        const double listed = ListedSingleton(engine, id, x);
        EXPECT_GE(listed, exact - kTol) << "t=" << bucket_end << " e=" << id;
        if (listed > exact + kTol) {
          saw_stale = true;
          EXPECT_LT(singleton, listed - kTol)
              << "singleton read the stale listed key at t=" << bucket_end
              << " e=" << id;
        }
      }
    }
  }
  // The stream is long enough for both events; otherwise the checks above
  // would pass vacuously.
  EXPECT_TRUE(saw_resurrection);
  if (mode == RefreshMode::kPaper) {
    EXPECT_TRUE(saw_stale);
  }
}

class SingletonDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SingletonDifferentialTest, ExactModeSerial) {
  RunSingletonDifferential(GetParam(), RefreshMode::kExact, 1);
}

TEST_P(SingletonDifferentialTest, ExactModeParallel) {
  RunSingletonDifferential(GetParam(), RefreshMode::kExact, 4);
}

TEST_P(SingletonDifferentialTest, PaperModeSerial) {
  RunSingletonDifferential(GetParam(), RefreshMode::kPaper, 1);
}

TEST_P(SingletonDifferentialTest, PaperModeParallel) {
  RunSingletonDifferential(GetParam(), RefreshMode::kPaper, 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingletonDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 5));

TEST(ScoreCacheSlotTest, ExpiryClearsSlotAndResurrectionReseedsIt) {
  // The archived window entry outlives its cache entry: expiry must null
  // the slot, and a resurrection must park the fresh entry there — the
  // one MTTD then reads. At one participant and at several alike.
  auto model = TopicModel::FromMatrix({{0.5, 0.5}});
  ASSERT_TRUE(model.ok());
  auto mk = [](ElementId id, Timestamp ts, std::vector<ElementId> refs) {
    SocialElement e;
    e.id = id;
    e.ts = ts;
    e.doc = Document::FromWordIds({0});
    e.refs = std::move(refs);
    e.topics = SparseVector::FromEntries({{0, 1.0}});
    return e;
  };
  const SparseVector x = SparseVector::FromEntries({{0, 1.0}});
  for (const std::size_t workers : {0u, 2u}) {
    ActiveWindow window(/*window_length=*/4, /*archive_retention=*/10);
    ScoringContext ctx(&*model, &window, ScoringParams{0.5, 2.0});
    RankedListIndex index(1);
    auto pool = workers > 0 ? MakeWorkerPool(1, 1, nullptr) : nullptr;
    IndexMaintainer maintainer(&ctx, &index, RefreshMode::kExact,
                               ScoreMaintenance::kIncremental,
                               /*carry_handles=*/true, pool.get(), workers);
    auto advance = [&](Timestamp now, std::vector<SocialElement> bucket) {
      auto update = window.Advance(now, std::move(bucket));
      KSIR_CHECK(update.ok());
      maintainer.Apply(*update);
      return std::move(update).value();
    };

    advance(1, {mk(1, 1, {})});
    // t=6: e1 (ts=1) leaves W_6 = [3, 6] unreferenced and is archived.
    const ActiveWindow::UpdateResult expiry = advance(6, {});
    ASSERT_EQ(expiry.expired.size(), 1u) << "workers=" << workers;
    EXPECT_EQ(*expiry.expired[0].user_slot, nullptr) << "workers=" << workers;
    EXPECT_TRUE(window.IsArchived(1));

    // t=7: e2 refers to e1, pulling it back into A_t.
    const ActiveWindow::UpdateResult revival = advance(7, {mk(2, 7, {1})});
    ASSERT_EQ(revival.resurrected.size(), 1u) << "workers=" << workers;
    const ActiveWindow::ActiveView view = window.FindActive(1);
    ASSERT_NE(view.user_slot, nullptr) << "workers=" << workers;
    EXPECT_EQ(view.user_slot, *revival.resurrected[0].user_slot);
    const double exact = ctx.ElementScore(*view.element, x);
    EXPECT_NEAR(ScoreCache::SingletonScore(ScoreCache::OfActive(view), x,
                                           ctx.params().lambda,
                                           ctx.influence_factor()),
                exact, kTol);

    // e1 now carries e2's influence on top of the same words, so it is
    // the k = 1 answer, at its fresh (resurrected) score.
    KsirQuery query;
    query.k = 1;
    query.epsilon = 0.2;
    query.x = x;
    const QueryResult result = RunMttd(ctx, index, query);
    EXPECT_EQ(result.element_ids, std::vector<ElementId>{1})
        << "workers=" << workers;
    EXPECT_NEAR(result.score, exact, kTol) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace ksir
