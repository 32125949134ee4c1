#include "core/scoring.h"

#include "common/check.h"
#include "common/math.h"

namespace ksir {

ScoringContext::ScoringContext(const TopicModel* model,
                               const ActiveWindow* window,
                               ScoringParams params)
    : model_(model), window_(window), params_(params) {
  KSIR_CHECK(model != nullptr);
  KSIR_CHECK(window != nullptr);
  KSIR_CHECK(params.lambda >= 0.0 && params.lambda <= 1.0);
  KSIR_CHECK(params.eta > 0.0);
  influence_factor_ = (1.0 - params_.lambda) / params_.eta;
}

double ScoringContext::Sigma(TopicId topic, WordId word,
                             std::int32_t frequency,
                             double topic_prob_e) const {
  if (topic_prob_e <= 0.0) return 0.0;
  const double p = model_->WordProb(topic, word) * topic_prob_e;
  return static_cast<double>(frequency) * EntropyWeight(p);
}

double ScoringContext::SemanticScore(TopicId topic,
                                     const SocialElement& e) const {
  return SemanticScore(topic, e, e.topics.Get(topic));
}

double ScoringContext::SemanticScore(TopicId topic, const SocialElement& e,
                                     double topic_prob_e) const {
  if (topic_prob_e <= 0.0) return 0.0;
  // sigma factors as -f·pw·pe·ln(pw·pe) = f·pe·(-pw·ln pw) - f·pw·pe·ln pe,
  // so summing over words needs two dot products against per-(topic, word)
  // tables (the -pw·ln pw half is precomputed in the model) and a single
  // log of pe — instead of one log per word. Words with pw = 0 contribute
  // zero to both accumulators, preserving Sigma's semantics.
  double entropy_sum = 0.0;
  double prob_sum = 0.0;
  for (const auto& [word, count] : e.doc.word_counts()) {
    entropy_sum += count * model_->WordEntropy(topic, word);
    prob_sum += count * model_->WordProb(topic, word);
  }
  return topic_prob_e * entropy_sum -
         topic_prob_e * std::log(topic_prob_e) * prob_sum;
}

double ScoringContext::InfluenceScore(TopicId topic,
                                      const SocialElement& e) const {
  return InfluenceScore(topic, e, e.topics.Get(topic));
}

double ScoringContext::InfluenceScore(TopicId topic, const SocialElement& e,
                                      double topic_prob_e) const {
  if (topic_prob_e <= 0.0) return 0.0;
  double score = 0.0;
  for (const Referrer& r : window_->ReferrersOf(e.id)) {
    const SocialElement* referrer = window_->Find(r.id);
    KSIR_DCHECK(referrer != nullptr);
    if (referrer == nullptr) continue;
    score += topic_prob_e * referrer->topics.Get(topic);
  }
  return score;
}

double ScoringContext::TopicScore(TopicId topic, const SocialElement& e) const {
  return TopicScore(topic, e, e.topics.Get(topic));
}

double ScoringContext::TopicScore(TopicId topic, const SocialElement& e,
                                  double topic_prob_e) const {
  if (topic_prob_e <= 0.0) return 0.0;
  return params_.lambda * SemanticScore(topic, e, topic_prob_e) +
         influence_factor_ * InfluenceScore(topic, e, topic_prob_e);
}

double ScoringContext::ElementScore(const SocialElement& e,
                                    const SparseVector& x) const {
  // Sparse-sparse merge over the query's and the element's supports: one
  // pass, no per-topic Get probes.
  double score = 0.0;
  const auto& qs = x.entries();
  const auto& es = e.topics.entries();
  std::size_t qi = 0;
  std::size_t ei = 0;
  while (qi < qs.size() && ei < es.size()) {
    if (qs[qi].first < es[ei].first) {
      ++qi;
    } else if (es[ei].first < qs[qi].first) {
      ++ei;
    } else {
      if (es[ei].second > 0.0) {
        score += qs[qi].second * TopicScore(qs[qi].first, e, es[ei].second);
      }
      ++qi;
      ++ei;
    }
  }
  return score;
}

}  // namespace ksir
