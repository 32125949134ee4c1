// Property-based tests on randomized instances: monotonicity and
// submodularity of f(.,x) (Lemmas 3.6/3.7), equivalence of the incremental
// CandidateState with a from-scratch evaluation of Eqs. (1)-(4), the
// theoretical approximation bounds of every algorithm (Theorems 4.2/4.4),
// and MTTS's evaluate-at-most-once guarantee.
#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/brute_force.h"
#include "core/candidate_state.h"
#include "core/engine.h"
#include "paper_fixture.h"

namespace ksir {
namespace {

constexpr int kNumTopics = 4;
constexpr int kVocabSize = 30;

// A small random engine instance driven by a seed.
struct RandomInstance {
  std::unique_ptr<TopicModel> model;
  std::unique_ptr<KsirEngine> engine;
  SparseVector query;
};

RandomInstance MakeRandomInstance(std::uint64_t seed, int num_elements = 18,
                                  Timestamp window_length = 12) {
  Rng rng(seed);
  // Random topic model.
  std::vector<std::vector<double>> matrix(kNumTopics,
                                          std::vector<double>(kVocabSize));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.01;
  }
  RandomInstance out;
  out.model = std::make_unique<TopicModel>(
      std::move(TopicModel::FromMatrix(std::move(matrix))).value());

  EngineConfig config;
  // Cover the reduction extremes of Theorem 3.8: lambda = 1 degenerates to
  // weighted max coverage, lambda = 0 to probabilistic coverage.
  switch (seed % 3) {
    case 0:
      config.scoring.lambda = 1.0;
      break;
    case 1:
      config.scoring.lambda = 0.0;
      break;
    default:
      config.scoring.lambda = 0.3 + 0.4 * rng.NextDouble();
      break;
  }
  config.scoring.eta = 1.0 + 3.0 * rng.NextDouble();
  config.window_length = window_length;
  config.bucket_length = 1;
  out.engine = std::make_unique<KsirEngine>(config, out.model.get());

  // Random elements: 1-2 per time step, random sparse topics, random refs
  // back to the previous few elements.
  std::vector<SocialElement> all;
  Timestamp ts = 0;
  for (int i = 0; i < num_elements; ++i) {
    SocialElement e;
    e.id = i + 1;
    ts += (rng.NextDouble() < 0.5) ? 1 : 0;
    if (i == 0) ts = 1;
    e.ts = ts;
    std::vector<WordId> words;
    const int len = 2 + static_cast<int>(rng.NextUint64(5));
    for (int j = 0; j < len; ++j) {
      words.push_back(static_cast<WordId>(rng.NextUint64(kVocabSize)));
    }
    e.doc = Document::FromWordIds(words);
    const auto theta = rng.NextDirichlet(0.4, kNumTopics);
    e.topics = SparseVector::TruncateAndNormalize(theta, 0.15);
    const int num_refs = static_cast<int>(rng.NextUint64(3));
    std::unordered_set<ElementId> ref_set;
    for (int r = 0; r < num_refs && !all.empty(); ++r) {
      const auto pick =
          all.size() - 1 - rng.NextUint64(std::min<std::size_t>(6, all.size()));
      if (all[pick].ts < e.ts) ref_set.insert(all[pick].id);
    }
    e.refs.assign(ref_set.begin(), ref_set.end());
    std::sort(e.refs.begin(), e.refs.end());
    all.push_back(std::move(e));
  }
  KSIR_CHECK(out.engine->Append(std::move(all)).ok());

  const auto qdense = rng.NextDirichlet(0.5, kNumTopics);
  out.query = SparseVector::TruncateAndNormalize(qdense, 0.1);
  return out;
}

// From-scratch evaluation of f(S, x) straight from Eqs. (1)-(4), with no
// incremental state. The reference oracle for CandidateState.
double NaiveScore(const ScoringContext& ctx, const ActiveWindow& window,
                  const std::vector<ElementId>& members,
                  const SparseVector& x) {
  double total = 0.0;
  for (const auto& [topic, weight] : x.entries()) {
    // Semantic: max sigma per covered word.
    std::map<WordId, double> best_sigma;
    for (ElementId id : members) {
      const SocialElement* e = window.Find(id);
      KSIR_CHECK(e != nullptr);
      const double p_e = e->topics.Get(topic);
      for (const auto& [word, count] : e->doc.word_counts()) {
        const double sigma = ctx.Sigma(topic, word, count, p_e);
        auto [it, inserted] = best_sigma.try_emplace(word, sigma);
        if (!inserted) it->second = std::max(it->second, sigma);
      }
    }
    double semantic = 0.0;
    for (const auto& [word, sigma] : best_sigma) semantic += sigma;

    // Influence: probabilistic coverage per influenced element.
    std::map<ElementId, double> survive;
    for (ElementId id : members) {
      const SocialElement* e = window.Find(id);
      const double p_e = e->topics.Get(topic);
      for (const Referrer& r : window.ReferrersOf(id)) {
        const SocialElement* referrer = window.Find(r.id);
        KSIR_CHECK(referrer != nullptr);
        const double p_edge = p_e * referrer->topics.Get(topic);
        auto [it, inserted] = survive.try_emplace(r.id, 1.0);
        it->second *= (1.0 - p_edge);
      }
    }
    double influence = 0.0;
    for (const auto& [id, s] : survive) influence += 1.0 - s;

    total += weight * (ctx.params().lambda * semantic +
                       ctx.influence_factor() * influence);
  }
  return total;
}

class RandomInstanceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomInstanceTest, IncrementalScoreMatchesNaive) {
  RandomInstance inst = MakeRandomInstance(GetParam());
  const auto& window = inst.engine->window();
  const auto& ctx = inst.engine->scoring();
  Rng rng(GetParam() ^ 0xabcdef);

  std::vector<ElementId> ids = window.ActiveIds();
  std::sort(ids.begin(), ids.end());
  CandidateState state(&ctx, &inst.query);
  std::vector<ElementId> members;
  for (int step = 0; step < 6 && !ids.empty(); ++step) {
    const std::size_t pick = rng.NextUint64(ids.size());
    const SocialElement* e = window.Find(ids[pick]);
    ASSERT_NE(e, nullptr);
    state.Add(*e);
    members.push_back(ids[pick]);
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
    EXPECT_NEAR(state.score(), NaiveScore(ctx, window, members, inst.query),
                1e-9)
        << "after " << members.size() << " additions";
  }
}

TEST_P(RandomInstanceTest, MonotonicityOfMarginalGains) {
  RandomInstance inst = MakeRandomInstance(GetParam());
  const auto& window = inst.engine->window();
  const auto& ctx = inst.engine->scoring();
  CandidateState state(&ctx, &inst.query);
  std::vector<ElementId> ids = window.ActiveIds();
  std::sort(ids.begin(), ids.end());
  for (ElementId id : ids) {
    const SocialElement* e = window.Find(id);
    EXPECT_GE(state.MarginalGain(*e), -1e-12) << "element " << id;
  }
}

TEST_P(RandomInstanceTest, SubmodularityDiminishingReturns) {
  // For S subset of T and e outside T: gain(e|S) >= gain(e|T).
  RandomInstance inst = MakeRandomInstance(GetParam());
  const auto& window = inst.engine->window();
  const auto& ctx = inst.engine->scoring();
  Rng rng(GetParam() * 31 + 7);

  std::vector<ElementId> ids = window.ActiveIds();
  std::sort(ids.begin(), ids.end());
  if (ids.size() < 5) GTEST_SKIP() << "instance too small";

  for (int trial = 0; trial < 8; ++trial) {
    // Random S ⊂ T and probe e.
    std::vector<ElementId> shuffled = ids;
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
      std::swap(shuffled[i], shuffled[rng.NextUint64(i + 1)]);
    }
    const std::size_t s_size = 1 + rng.NextUint64(2);
    const std::size_t t_size = s_size + 1 + rng.NextUint64(2);
    if (t_size + 1 > shuffled.size()) continue;
    const ElementId probe = shuffled[t_size];

    CandidateState small(&ctx, &inst.query);
    CandidateState large(&ctx, &inst.query);
    for (std::size_t i = 0; i < t_size; ++i) {
      const SocialElement* e = window.Find(shuffled[i]);
      if (i < s_size) small.Add(*e);
      large.Add(*e);
    }
    const SocialElement* e = window.Find(probe);
    EXPECT_GE(small.MarginalGain(*e), large.MarginalGain(*e) - 1e-9)
        << "trial " << trial;
  }
}

TEST_P(RandomInstanceTest, ApproximationBoundsHold) {
  RandomInstance inst = MakeRandomInstance(GetParam());
  KsirQuery query;
  query.k = 3;
  query.x = inst.query;
  query.epsilon = 0.2;

  query.algorithm = Algorithm::kBruteForce;
  const double opt = inst.engine->Query(query)->score;
  if (opt <= 1e-12) GTEST_SKIP() << "degenerate zero-score instance";

  query.algorithm = Algorithm::kMtts;
  EXPECT_GE(inst.engine->Query(query)->score, (0.5 - 0.2) * opt - 1e-9);

  query.algorithm = Algorithm::kMttd;
  EXPECT_GE(inst.engine->Query(query)->score,
            (1.0 - 1.0 / std::numbers::e - 0.2) * opt - 1e-9);

  query.algorithm = Algorithm::kSieveStreaming;
  EXPECT_GE(inst.engine->Query(query)->score, (0.5 - 0.2) * opt - 1e-9);

  query.algorithm = Algorithm::kCelf;
  EXPECT_GE(inst.engine->Query(query)->score,
            (1.0 - 1.0 / std::numbers::e) * opt - 1e-9);

  query.algorithm = Algorithm::kTopkRepresentative;
  EXPECT_GE(inst.engine->Query(query)->score, opt / query.k - 1e-9);
}

TEST_P(RandomInstanceTest, MttdAtLeastAsGoodAsItsBoundVsCelf) {
  // Empirical observation of the paper (Fig. 11): MTTD ~ CELF quality.
  RandomInstance inst = MakeRandomInstance(GetParam());
  KsirQuery query;
  query.k = 4;
  query.x = inst.query;
  query.epsilon = 0.1;
  query.algorithm = Algorithm::kCelf;
  const double celf = inst.engine->Query(query)->score;
  query.algorithm = Algorithm::kMttd;
  const double mttd = inst.engine->Query(query)->score;
  if (celf > 1e-12) {
    EXPECT_GE(mttd, 0.85 * celf);
  }
}

TEST_P(RandomInstanceTest, MttsEvaluatesEachElementAtMostOnce) {
  RandomInstance inst = MakeRandomInstance(GetParam(), /*num_elements=*/30);
  KsirQuery query;
  query.k = 3;
  query.x = inst.query;
  query.epsilon = 0.15;
  query.algorithm = Algorithm::kMtts;
  const QueryResult result = *inst.engine->Query(query);
  EXPECT_LE(result.stats.num_evaluated, inst.engine->window().num_active());
  EXPECT_EQ(result.stats.num_evaluated, result.stats.num_retrieved);
}

TEST_P(RandomInstanceTest, GreedyEqualsCelfEverywhere) {
  RandomInstance inst = MakeRandomInstance(GetParam());
  KsirQuery query;
  query.k = 4;
  query.x = inst.query;
  query.algorithm = Algorithm::kCelf;
  const QueryResult celf = *inst.engine->Query(query);
  query.algorithm = Algorithm::kGreedy;
  const QueryResult greedy = *inst.engine->Query(query);
  EXPECT_EQ(celf.element_ids, greedy.element_ids);
  EXPECT_NEAR(celf.score, greedy.score, 1e-9);
}

TEST_P(RandomInstanceTest, ReportedScoreMatchesNaiveRecomputation) {
  RandomInstance inst = MakeRandomInstance(GetParam());
  KsirQuery query;
  query.k = 3;
  query.x = inst.query;
  query.epsilon = 0.2;
  for (const Algorithm algorithm :
       {Algorithm::kMtts, Algorithm::kMttd, Algorithm::kCelf,
        Algorithm::kSieveStreaming, Algorithm::kTopkRepresentative}) {
    query.algorithm = algorithm;
    const QueryResult result = *inst.engine->Query(query);
    EXPECT_NEAR(result.score,
                NaiveScore(inst.engine->scoring(), inst.engine->window(),
                           result.element_ids, inst.query),
                1e-9)
        << AlgorithmName(algorithm);
  }
}

TEST_P(RandomInstanceTest, RankedListsConsistentWithDirectScores) {
  // Every indexed (element, topic) tuple equals the directly computed
  // delta_i(e) under kExact refresh.
  RandomInstance inst = MakeRandomInstance(GetParam(), /*num_elements=*/24);
  const auto& index = inst.engine->index();
  const auto& window = inst.engine->window();
  const auto& ctx = inst.engine->scoring();
  std::size_t checked = 0;
  for (ElementId id : window.ActiveIds()) {
    const SocialElement* e = window.Find(id);
    for (const auto& [topic, prob] : e->topics.entries()) {
      ASSERT_TRUE(index.list(topic).Contains(id));
      EXPECT_NEAR(index.list(topic).Get(id), ctx.TopicScore(topic, *e),
                  1e-9);
      ++checked;
    }
  }
  EXPECT_EQ(checked, index.total_entries());
}

TEST_P(RandomInstanceTest, SingletonFromExportedTermsEqualsElementScore) {
  // The sharded planner's merge seeds CELF with each candidate's gain on
  // the empty set, taken from exported terms; it must equal delta(e, x)
  // (within rounding: ElementScore factors the semantic sum differently).
  RandomInstance inst = MakeRandomInstance(GetParam(), /*num_elements=*/24);
  const KsirEngine& engine = *inst.engine;
  const ScoringContext& ctx = engine.scoring();
  const std::vector<ElementId> ids = engine.window().ActiveIds();
  Rng rng(GetParam() ^ 0x51e7);
  std::size_t with_referrers = 0;
  for (int q = 0; q < 6; ++q) {
    // The instance's query, then random weights over a random support.
    std::vector<SparseVector::Entry> entries;
    for (TopicId topic = 0; topic < kNumTopics; ++topic) {
      if (rng.NextDouble() < 0.6) {
        entries.emplace_back(topic, 2.0 * rng.NextDouble());
      }
    }
    const SparseVector x =
        q == 0 || entries.empty() ? inst.query
                                  : SparseVector::FromEntries(entries);
    const std::vector<GainTerms> terms = engine.ExportTerms(x, ids);
    ASSERT_EQ(terms.size(), ids.size()) << "seed " << GetParam();
    for (const GainTerms& t : terms) {
      const SocialElement* e = engine.window().Find(t.id());
      ASSERT_NE(e, nullptr);
      const CandidateState empty(&ctx, &x);
      EXPECT_NEAR(empty.MarginalGain(t), ctx.ElementScore(*e, x), 1e-9)
          << "seed " << GetParam() << " query " << q << " element "
          << t.id();
      if (!engine.window().ReferrersOf(t.id()).empty()) ++with_referrers;
    }
  }
  EXPECT_GT(with_referrers, 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstanceTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// --------------------------------- Sliding-window consistency over time ---

class SlidingConsistencyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SlidingConsistencyTest, IndexMatchesWindowAfterEveryBucket) {
  // Feed a random stream bucket by bucket; after every advance the index
  // must contain exactly the active elements with exact scores.
  Rng rng(GetParam());
  std::vector<std::vector<double>> matrix(3, std::vector<double>(12));
  for (auto& row : matrix) {
    for (auto& p : row) p = rng.NextDouble() + 0.05;
  }
  auto model = std::move(TopicModel::FromMatrix(std::move(matrix))).value();
  EngineConfig config;
  config.scoring.eta = 2.0;
  config.window_length = 6;
  config.bucket_length = 2;
  KsirEngine engine(config, &model);

  ElementId next_id = 1;
  std::vector<SocialElement> history;
  for (Timestamp bucket_end = 2; bucket_end <= 30; bucket_end += 2) {
    std::vector<SocialElement> bucket;
    const int count = static_cast<int>(rng.NextUint64(4));
    for (int i = 0; i < count; ++i) {
      SocialElement e;
      e.id = next_id++;
      e.ts = bucket_end - 1 + static_cast<Timestamp>(rng.NextUint64(2));
      std::vector<WordId> words;
      for (int j = 0; j < 3; ++j) {
        words.push_back(static_cast<WordId>(rng.NextUint64(12)));
      }
      e.doc = Document::FromWordIds(words);
      e.topics = SparseVector::TruncateAndNormalize(
          rng.NextDirichlet(0.4, 3), 0.15);
      if (!history.empty() && rng.NextDouble() < 0.6) {
        const auto& target =
            history[history.size() - 1 -
                    rng.NextUint64(std::min<std::size_t>(4, history.size()))];
        if (target.ts < e.ts) e.refs.push_back(target.id);
      }
      history.push_back(e);
      bucket.push_back(std::move(e));
    }
    std::sort(bucket.begin(), bucket.end(),
              [](const SocialElement& a, const SocialElement& b) {
                return a.ts < b.ts;
              });
    ASSERT_TRUE(engine.AdvanceTo(bucket_end, std::move(bucket)).ok());

    const auto& window = engine.window();
    const auto& index = engine.index();
    EXPECT_EQ(index.num_elements(), window.num_active());
    for (ElementId id : window.ActiveIds()) {
      const SocialElement* e = window.Find(id);
      for (const auto& [topic, prob] : e->topics.entries()) {
        ASSERT_TRUE(index.list(topic).Contains(id))
            << "t=" << bucket_end << " e=" << id;
        EXPECT_NEAR(index.list(topic).Get(id),
                    engine.scoring().TopicScore(topic, *e), 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlidingConsistencyTest,
                         ::testing::Range<std::uint64_t>(100, 106));

}  // namespace
}  // namespace ksir
