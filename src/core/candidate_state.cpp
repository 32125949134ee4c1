#include "core/candidate_state.h"

#include <algorithm>

#include "common/check.h"

namespace ksir {

void GainTerms::Resolve(const ScoringContext& ctx, const SparseVector& x,
                        const SocialElement& e,
                        const ReferrerList& referrers) {
  id_ = e.id;
  topics_.clear();
  sigmas_.clear();
  edges_.clear();
  for (const Referrer& r : referrers) {
    const SocialElement* referrer = ctx.window().Find(r.id);
    KSIR_DCHECK(referrer != nullptr);
    referrer_topics_.push_back(referrer == nullptr ? nullptr
                                                   : &referrer->topics);
  }
  // Same topic filter as CandidateState's constructor, so topics_[i] lines
  // up with the state's i-th TopicState.
  for (const auto& [topic, weight] : x.entries()) {
    if (weight <= 0.0) continue;
    const double p_e = e.topics.Get(topic);
    TopicTerms t{topic, p_e, static_cast<std::uint32_t>(sigmas_.size()), 0,
                 static_cast<std::uint32_t>(edges_.size()), 0};
    if (p_e > 0.0) {
      for (const auto& [word, count] : e.doc.word_counts()) {
        const double sigma = ctx.Sigma(topic, word, count, p_e);
        if (sigma > 0.0) sigmas_.emplace_back(word, sigma);
      }
      for (std::size_t i = 0; i < referrers.size(); ++i) {
        if (referrer_topics_[i] == nullptr) continue;
        const double p_edge = p_e * referrer_topics_[i]->Get(topic);
        if (p_edge > 0.0) edges_.emplace_back(referrers[i].id, p_edge);
      }
    }
    t.sigma_end = static_cast<std::uint32_t>(sigmas_.size());
    t.edge_end = static_cast<std::uint32_t>(edges_.size());
    topics_.push_back(t);
  }
  referrer_topics_.clear();
}

CandidateState::CandidateState(const ScoringContext* ctx,
                               const SparseVector* query)
    : ctx_(ctx), query_(query) {
  KSIR_CHECK(ctx != nullptr);
  KSIR_CHECK(query != nullptr);
  topics_.reserve(query->nnz());
  for (const auto& [topic, weight] : query->entries()) {
    if (weight <= 0.0) continue;
    topics_.push_back(TopicState{topic, weight, {}, {}});
  }
}

const GainTerms& CandidateState::Resolve(const SocialElement& e) const {
  scratch_.Resolve(*ctx_, *query_, e, ctx_->window().ReferrersOf(e.id));
  return scratch_;
}

double CandidateState::MarginalGain(const SocialElement& e) const {
  if (member_ids_.contains(e.id)) return 0.0;
  return MarginalGain(Resolve(e));
}

double CandidateState::MarginalGain(const GainTerms& terms) const {
  KSIR_CHECK(terms.topics_.size() == topics_.size());
  if (member_ids_.contains(terms.id_)) return 0.0;
  double gain = 0.0;
  for (std::size_t i = 0; i < topics_.size(); ++i) {
    const TopicState& state = topics_[i];
    const GainTerms::TopicTerms& t = terms.topics_[i];
    KSIR_CHECK(t.topic == state.topic);
    if (t.topic_prob <= 0.0) continue;

    // Semantic gain: words where e's sigma beats the current best.
    double semantic_gain = 0.0;
    for (const auto& [word, sigma] : terms.Sigmas(t)) {
      const auto best_it = state.best_sigma.find(word);
      const double best =
          best_it == state.best_sigma.end() ? 0.0 : best_it->second;
      if (sigma > best) semantic_gain += sigma - best;
    }

    // Influence gain: residual coverage probability of e's referrers.
    double influence_gain = 0.0;
    for (const auto& [referrer, p_edge] : terms.Edges(t)) {
      const auto survive_it = state.survive.find(referrer);
      const double survive =
          survive_it == state.survive.end() ? 1.0 : survive_it->second;
      influence_gain += p_edge * survive;
    }

    gain += state.query_weight *
            (ctx_->params().lambda * semantic_gain +
             ctx_->influence_factor() * influence_gain);
  }
  return gain;
}

double CandidateState::Add(const SocialElement& e) {
  return Add(Resolve(e));
}

double CandidateState::Add(const GainTerms& terms) {
  KSIR_CHECK(!member_ids_.contains(terms.id_));
  KSIR_CHECK(terms.topics_.size() == topics_.size());
  double gain = 0.0;
  for (std::size_t i = 0; i < topics_.size(); ++i) {
    TopicState& state = topics_[i];
    const GainTerms::TopicTerms& t = terms.topics_[i];
    KSIR_CHECK(t.topic == state.topic);
    if (t.topic_prob <= 0.0) continue;
    const auto sigmas = terms.Sigmas(t);
    const auto edges = terms.Edges(t);

    // Pre-size from the incoming terms so the insertion loops below never
    // rehash mid-flight (and the capacity is reused across CELF/MTTS
    // add-rounds instead of being reallocated per evaluation).
    state.best_sigma.reserve(state.best_sigma.size() + sigmas.size());
    state.survive.reserve(state.survive.size() + edges.size());

    double semantic_gain = 0.0;
    for (const auto& [word, sigma] : sigmas) {
      auto [best_it, inserted] = state.best_sigma.try_emplace(word, sigma);
      if (inserted) {
        semantic_gain += sigma;
      } else if (sigma > best_it->second) {
        semantic_gain += sigma - best_it->second;
        best_it->second = sigma;
      }
    }

    double influence_gain = 0.0;
    for (const auto& [referrer, p_edge] : edges) {
      auto [survive_it, inserted] = state.survive.try_emplace(referrer, 1.0);
      influence_gain += p_edge * survive_it->second;
      survive_it->second *= (1.0 - p_edge);
    }

    gain += state.query_weight *
            (ctx_->params().lambda * semantic_gain +
             ctx_->influence_factor() * influence_gain);
  }
  members_.push_back(terms.id_);
  member_ids_.insert(terms.id_);
  score_ += gain;
  return gain;
}

}  // namespace ksir
