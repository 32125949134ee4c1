// Representativeness scoring (paper Section 3.2):
//
//   sigma_i(w, e) = -gamma(w, e) * p_i(w) p_i(e) * ln(p_i(w) p_i(e))
//   R_i(e)        = sum over distinct words of sigma_i(w, e)
//   I_{i,t}({e})  = sum over in-window referrers r of p_i(e) p_i(r)
//   delta_i(e)    = f_i({e}) = lambda * R_i(e) + (1 - lambda)/eta * I_{i,t}(e)
//   delta(e, x)   = sum_i x_i * delta_i(e)
//
// The context borrows the topic model (for p_i(w)) and the active window
// (for I_t(e)); set-level scores and marginal gains live in CandidateState.
#ifndef KSIR_CORE_SCORING_H_
#define KSIR_CORE_SCORING_H_

#include <vector>

#include "common/sparse_vector.h"
#include "common/types.h"
#include "stream/element.h"
#include "topic/topic_model.h"
#include "window/active_window.h"

namespace ksir {

/// Trade-off parameters of Eq. (2). The paper uses lambda = 0.5 and
/// eta = 20 (AMiner/Reddit) or 200 (Twitter); eta rescales the influence
/// score to the range of the semantic score.
struct ScoringParams {
  double lambda = 0.5;
  double eta = 20.0;
};

/// Stateless scorer over a fixed model, window and parameters. All methods
/// are const and thread-safe given a quiescent window.
class ScoringContext {
 public:
  /// `model` and `window` must outlive the context.
  ScoringContext(const TopicModel* model, const ActiveWindow* window,
                 ScoringParams params);

  /// sigma_i(w, e) given the word frequency and p_i(e).
  double Sigma(TopicId topic, WordId word, std::int32_t frequency,
               double topic_prob_e) const;

  /// R_i(e): singleton semantic score on `topic`.
  double SemanticScore(TopicId topic, const SocialElement& e) const;

  /// R_i(e) with p_i(e) already in hand (saves the sparse probe; every
  /// caller that iterates e's topic support already holds it).
  double SemanticScore(TopicId topic, const SocialElement& e,
                       double topic_prob_e) const;

  /// I_{i,t}({e}): singleton influence score on `topic` at the window's
  /// current time.
  double InfluenceScore(TopicId topic, const SocialElement& e) const;

  /// I_{i,t}({e}) with p_i(e) already in hand.
  double InfluenceScore(TopicId topic, const SocialElement& e,
                        double topic_prob_e) const;

  /// delta_i(e) = lambda * R_i(e) + (1 - lambda)/eta * I_{i,t}(e).
  double TopicScore(TopicId topic, const SocialElement& e) const;

  /// delta_i(e) with p_i(e) already in hand.
  double TopicScore(TopicId topic, const SocialElement& e,
                    double topic_prob_e) const;

  /// delta(e, x) over the intersection of the query's and the element's
  /// topic supports. Cost O(l * d) per the paper's analysis.
  double ElementScore(const SocialElement& e, const SparseVector& x) const;

  const TopicModel& model() const { return *model_; }
  const ActiveWindow& window() const { return *window_; }
  const ScoringParams& params() const { return params_; }

  /// (1 - lambda) / eta, the influence multiplier of Eq. (2).
  double influence_factor() const { return influence_factor_; }

 private:
  const TopicModel* model_;
  const ActiveWindow* window_;
  ScoringParams params_;
  double influence_factor_;
};

}  // namespace ksir

#endif  // KSIR_CORE_SCORING_H_
