// Golden tests of the scoring semantics against the paper's worked examples
// (Examples 3.1, 3.2, 3.4 and the singleton scores of Figure 5), plus
// CandidateState marginal-gain consistency.
#include <gtest/gtest.h>

#include "core/candidate_state.h"
#include "core/scoring.h"
#include "paper_fixture.h"

namespace ksir {
namespace {

using ::ksir::testing::BalancedQueryVector;
using ::ksir::testing::MakePaperEngineAtT8;
using ::ksir::testing::SkewedQueryVector;

class PaperScoringTest : public ::testing::Test {
 protected:
  void SetUp() override { fixture_ = MakePaperEngineAtT8(); }

  const ScoringContext& ctx() const { return fixture_.engine->scoring(); }
  const ActiveWindow& window() const { return fixture_.engine->window(); }
  const SocialElement& e(ElementId id) const {
    const SocialElement* el = window().Find(id);
    KSIR_CHECK(el != nullptr);
    return *el;
  }

  ksir::testing::PaperEngine fixture_;
};

// ------------------------------------------------- Example 3.1 (semantic) --

TEST_F(PaperScoringTest, Example31SemanticScoreOfE2) {
  // R_2(e2) = 0.18 + 0.15 + 0.20 = 0.53.
  EXPECT_NEAR(ctx().SemanticScore(1, e(2)), 0.53, 0.01);
}

TEST_F(PaperScoringTest, Example31WordOverlapCountedOnce) {
  // Adding e7 to {e2} contributes nothing on theta_2: all of e7's words are
  // covered by e2 with larger weights.
  SparseVector x = SparseVector::FromEntries({{1, 1.0}});
  ScoringParams semantic_only{.lambda = 1.0, .eta = 1.0};
  ScoringContext semantic_ctx(&ctx().model(), &window(), semantic_only);
  CandidateState state(&semantic_ctx, &x);
  state.Add(e(2));
  EXPECT_NEAR(state.score(), 0.53, 0.01);
  EXPECT_NEAR(state.MarginalGain(e(7)), 0.0, 1e-9);
  state.Add(e(7));
  EXPECT_NEAR(state.score(), 0.53, 0.01);
}

TEST_F(PaperScoringTest, Example31SigmaWeights) {
  // sigma_2(w4, e2) = 0.18, sigma_2(w9, e2) = 0.15, sigma_2(w11, e2) = 0.20,
  // sigma_2(w4, e7) = 0.17, sigma_2(w11, e7) = 0.19 (w: 1-based in paper).
  EXPECT_NEAR(ctx().Sigma(1, 3, 1, 0.74), 0.18, 0.005);
  EXPECT_NEAR(ctx().Sigma(1, 8, 1, 0.74), 0.15, 0.005);
  EXPECT_NEAR(ctx().Sigma(1, 10, 1, 0.74), 0.20, 0.005);
  EXPECT_NEAR(ctx().Sigma(1, 3, 1, 0.67), 0.17, 0.005);
  EXPECT_NEAR(ctx().Sigma(1, 10, 1, 0.67), 0.19, 0.005);
}

// ------------------------------------------------ Example 3.2 (influence) --

TEST_F(PaperScoringTest, Example32InfluenceScoreOfSet) {
  // I_{2,8}({e2, e3}) = 0.03 + 0.50 + 0.40 = 0.93.
  SparseVector x = SparseVector::FromEntries({{1, 1.0}});
  ScoringParams influence_only{.lambda = 0.0, .eta = 1.0};
  ScoringContext influence_ctx(&ctx().model(), &window(), influence_only);
  CandidateState state(&influence_ctx, &x);
  state.Add(e(2));
  state.Add(e(3));
  EXPECT_NEAR(state.score(), 0.93, 0.01);
}

TEST_F(PaperScoringTest, Example32SingletonInfluences) {
  // p_2(e2 -> e7) = 0.50, p_2(e2 -> e8) = 0.3626 -> I_{2,8}(e2) = 0.858.
  EXPECT_NEAR(ctx().InfluenceScore(1, e(2)), 0.74 * 0.67 + 0.74 * 0.49, 1e-9);
  // e3's referrers on theta_2 are weak: I_{2,8}(e3) = 0.033 + 0.0539.
  EXPECT_NEAR(ctx().InfluenceScore(1, e(3)), 0.11 * 0.3 + 0.11 * 0.49, 1e-9);
}

TEST_F(PaperScoringTest, InfluenceRestrictedToWindow) {
  // e4 (ts 4) expired at t=8; its referral of e3 must not count on theta_1.
  // I_{1,8}(e3) = p_1(e3->e6) + p_1(e3->e8) = 0.89*0.7 + 0.89*0.51.
  EXPECT_NEAR(ctx().InfluenceScore(0, e(3)), 0.89 * 0.7 + 0.89 * 0.51, 1e-9);
}

TEST_F(PaperScoringTest, ProbabilisticCoverageCombinesReferrers) {
  // p_2(S -> e8) = 1 - (1 - 0.3626)(1 - 0.0539) = 0.3970 for S = {e2, e3}.
  SparseVector x = SparseVector::FromEntries({{1, 1.0}});
  ScoringParams influence_only{.lambda = 0.0, .eta = 1.0};
  ScoringContext influence_ctx(&ctx().model(), &window(), influence_only);
  CandidateState state(&influence_ctx, &x);
  state.Add(e(2));
  const double gain_e3 = state.MarginalGain(e(3));
  // e3's gain: p(e3->e6) + p(e3->e8) * (1 - p(e2->e8)).
  const double expected = 0.11 * 0.3 + (0.11 * 0.49) * (1.0 - 0.74 * 0.49);
  EXPECT_NEAR(gain_e3, expected, 1e-9);
}

// ---------------------------------------------- Figure 5 singleton scores --

TEST_F(PaperScoringTest, Figure5TopicScores) {
  const struct {
    ElementId id;
    double delta1;
    double delta2;
  } expected[] = {
      {1, 0.06, 0.56}, {2, 0.10, 0.48}, {3, 0.65, 0.03}, {5, 0.05, 0.27},
      {6, 0.48, 0.13}, {7, 0.06, 0.18}, {8, 0.17, 0.16},
  };
  for (const auto& row : expected) {
    EXPECT_NEAR(ctx().TopicScore(0, e(row.id)), row.delta1, 0.005)
        << "delta_1(e" << row.id << ")";
    EXPECT_NEAR(ctx().TopicScore(1, e(row.id)), row.delta2, 0.005)
        << "delta_2(e" << row.id << ")";
  }
}

TEST_F(PaperScoringTest, ElementScoreIsWeightedTopicSum) {
  const SparseVector x = BalancedQueryVector();
  for (ElementId id : {1, 2, 3, 5, 6, 7, 8}) {
    const double direct = ctx().ElementScore(e(id), x);
    const double composed =
        0.5 * ctx().TopicScore(0, e(id)) + 0.5 * ctx().TopicScore(1, e(id));
    EXPECT_NEAR(direct, composed, 1e-12);
  }
  // delta(e3, x) = 0.34 as in Example 4.1.
  EXPECT_NEAR(ctx().ElementScore(e(3), x), 0.34, 0.005);
}

TEST_F(PaperScoringTest, ZeroTopicProbabilityMeansZeroScore) {
  // e4 is gone, but e3 has p_2 > 0 and p on a nonexistent topic 2 -> 0.
  EXPECT_DOUBLE_EQ(ctx().TopicScore(1, e(3)) > 0.0, true);
  SparseVector x = SparseVector::FromEntries({{0, 1.0}});
  SocialElement only_theta2 = e(1);
  only_theta2.topics = SparseVector::FromEntries({{1, 1.0}});
  EXPECT_DOUBLE_EQ(ctx().ElementScore(only_theta2, x), 0.0);
}

// --------------------------------------------------- Example 3.4 (f(S,x)) --

TEST_F(PaperScoringTest, Example34BalancedQueryOptimum) {
  // f({e1, e3}, (0.5, 0.5)) = 0.65 (the paper's OPT).
  const SparseVector x = BalancedQueryVector();
  CandidateState state(&ctx(), &x);
  state.Add(e(1));
  state.Add(e(3));
  EXPECT_NEAR(state.score(), 0.65, 0.005);
}

TEST_F(PaperScoringTest, Example34SkewedQueryOptimum) {
  // f({e1, e2}, (0.1, 0.9)): the paper rounds to 0.94; exact arithmetic on
  // Table 1's two-decimal probabilities gives ~0.951 (see README, Design
  // notes).
  const SparseVector x = SkewedQueryVector();
  CandidateState state(&ctx(), &x);
  state.Add(e(1));
  state.Add(e(2));
  EXPECT_NEAR(state.score(), 0.951, 0.005);
}

// ------------------------------------------------ CandidateState behavior --

TEST_F(PaperScoringTest, MarginalGainMatchesScoreDelta) {
  const SparseVector x = BalancedQueryVector();
  CandidateState state(&ctx(), &x);
  for (ElementId id : {3, 1, 6, 2, 8}) {
    const double predicted = state.MarginalGain(e(id));
    const double before = state.score();
    const double realized = state.Add(e(id));
    EXPECT_NEAR(predicted, realized, 1e-12) << "element " << id;
    EXPECT_NEAR(state.score(), before + realized, 1e-12);
  }
}

TEST_F(PaperScoringTest, GainOfMemberIsZero) {
  const SparseVector x = BalancedQueryVector();
  CandidateState state(&ctx(), &x);
  state.Add(e(3));
  EXPECT_DOUBLE_EQ(state.MarginalGain(e(3)), 0.0);
  EXPECT_TRUE(state.Contains(3));
  EXPECT_FALSE(state.Contains(1));
}

TEST_F(PaperScoringTest, SingletonGainEqualsElementScore) {
  const SparseVector x = BalancedQueryVector();
  for (ElementId id : {1, 2, 3, 5, 6, 7, 8}) {
    CandidateState state(&ctx(), &x);
    EXPECT_NEAR(state.MarginalGain(e(id)), ctx().ElementScore(e(id), x), 1e-12);
  }
}

TEST_F(PaperScoringTest, TopicScoresMatchFigure5) {
  // e3's tuples in RL_1 and RL_2 of Figure 5.
  EXPECT_NEAR(ctx().TopicScore(0, e(3)), 0.65, 0.005);
  EXPECT_NEAR(ctx().TopicScore(1, e(3)), 0.03, 0.005);
}

// ------------------------------------------ GainTerms support checking --

using GainTermsDeathTest = PaperScoringTest;

// Terms resolved against another query's support must not be read by
// index: the topic count and every position's topic are checked in all
// builds, not only in debug ones.
TEST_F(GainTermsDeathTest, DifferentSizeSupportDies) {
  const SparseVector x = BalancedQueryVector();
  const SparseVector other = SparseVector::FromEntries({{0, 1.0}});
  GainTerms terms;
  terms.Resolve(ctx(), other, e(3), window().ReferrersOf(3));
  CandidateState state(&ctx(), &x);
  EXPECT_DEATH(state.MarginalGain(terms), "size");
  EXPECT_DEATH(state.Add(terms), "size");
}

TEST_F(GainTermsDeathTest, SameSizeDifferentTopicSupportDies) {
  const SparseVector x = SparseVector::FromEntries({{1, 1.0}});
  const SparseVector other = SparseVector::FromEntries({{0, 1.0}});
  GainTerms terms;
  terms.Resolve(ctx(), other, e(3), window().ReferrersOf(3));
  CandidateState state(&ctx(), &x);
  EXPECT_DEATH(state.MarginalGain(terms), "topic");
  EXPECT_DEATH(state.Add(terms), "topic");
}

}  // namespace
}  // namespace ksir
