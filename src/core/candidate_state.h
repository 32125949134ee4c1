// Incremental state of one candidate result set S for a fixed query vector.
//
// Supports O(l * d) marginal-gain queries Delta(e | S) and additions by
// maintaining, per query topic i:
//  * best_sigma_i[w] = max_{e in S} sigma_i(w, e)   (word coverage, Eq. 3)
//  * survive_i[r]    = prod_{e in S ∩ r.ref} (1 - p_i(e -> r))
//                    = 1 - p_i(S -> r)              (probabilistic coverage,
//                                                    Eq. 4)
// so that
//  gain_i(e) = sum_w max(0, sigma_i(w, e) - best_sigma_i[w])
//            + (1-lambda)/eta scaled sum_{r in I_t(e)} p_i(e -> r) survive_i[r]
//
// The element-side inputs of both formulas — sigma_i(w, e) > 0 per query
// topic and word, p_i(e -> r) > 0 per query topic and referrer — depend on
// the element and the query only, never on S. GainTerms resolves them once
// (one window probe per referrer) so MTTS can share them across all of its
// candidates, MTTD across a gain check and the Add that follows it, and the
// sharded planner across shards: its merge runs CELF over the terms the
// shards resolved, with no window at all.
//
// Every submodular-maximization algorithm in this repository (MTTS, MTTD,
// CELF, SieveStreaming, brute force) builds on this class, which keeps the
// scoring semantics in exactly one place: the SocialElement overloads
// resolve the terms and run the same GainTerms arithmetic.
#ifndef KSIR_CORE_CANDIDATE_STATE_H_
#define KSIR_CORE_CANDIDATE_STATE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/sparse_vector.h"
#include "common/types.h"
#include "core/scoring.h"
#include "stream/element.h"
#include "window/active_window.h"

namespace ksir {

/// The S-independent gain terms of one element against one query vector, in
/// the scan order of the gain formulas: per query topic with x_i > 0, the
/// element's sigma_i(w, e) > 0 in word order and p_i(e -> r) > 0 in
/// referral order. Reusable: Resolve keeps the buffers' capacity.
/// Copyable: the terms are ids and values only, never a pointer into the
/// window Resolve read, so a copy taken under an engine's lock stays valid
/// after the lock is released.
class GainTerms {
 public:
  /// Resolves `e` against `x`; `referrers` is I_t(e). Each referrer's
  /// topic vector is looked up once, not once per topic.
  void Resolve(const ScoringContext& ctx, const SparseVector& x,
               const SocialElement& e, const ReferrerList& referrers);

  /// The element the terms belong to.
  ElementId id() const { return id_; }

 private:
  friend class CandidateState;

  /// One query topic with x_i > 0 and the offsets of its terms.
  struct TopicTerms {
    TopicId topic;      // i, checked against the state's i-th topic
    double topic_prob;  // p_i(e); the topic contributes nothing when <= 0
    std::uint32_t sigma_begin, sigma_end;
    std::uint32_t edge_begin, edge_end;
  };

  std::span<const std::pair<WordId, double>> Sigmas(
      const TopicTerms& t) const {
    return {sigmas_.data() + t.sigma_begin, sigmas_.data() + t.sigma_end};
  }
  std::span<const std::pair<ElementId, double>> Edges(
      const TopicTerms& t) const {
    return {edges_.data() + t.edge_begin, edges_.data() + t.edge_end};
  }

  ElementId id_ = 0;
  std::vector<TopicTerms> topics_;
  std::vector<std::pair<WordId, double>> sigmas_;    // (w, sigma_i(w, e))
  std::vector<std::pair<ElementId, double>> edges_;  // (r, p_i(e -> r))
  /// Resolve scratch: the referrers' topic vectors, pointers into the
  /// window. Emptied before Resolve returns, so no copy carries one.
  std::vector<const SparseVector*> referrer_topics_;
};

/// Mutable candidate set with incremental f(S, x) bookkeeping. Not
/// thread-safe, the const methods included.
class CandidateState {
 public:
  /// `ctx` and `query` must outlive the state.
  CandidateState(const ScoringContext* ctx, const SparseVector* query);

  /// Delta(e | S) = f(S ∪ {e}, x) - f(S, x). Zero for members of S.
  double MarginalGain(const SocialElement& e) const;

  /// The same gain from terms resolved against this state's query (a
  /// support with the same topics, checked in every build).
  double MarginalGain(const GainTerms& terms) const;

  /// Adds `e` to S and returns its realized marginal gain. `e` must not be
  /// a member yet.
  double Add(const SocialElement& e);

  /// The same addition from terms resolved against this state's query
  /// (checked as in MarginalGain).
  double Add(const GainTerms& terms);

  /// f(S, x).
  double score() const { return score_; }

  std::size_t size() const { return members_.size(); }
  bool Contains(ElementId id) const { return member_ids_.contains(id); }

  /// Members in insertion order.
  const std::vector<ElementId>& members() const { return members_; }

 private:
  struct TopicState {
    TopicId topic;
    double query_weight;  // x_i
    /// Current max sigma_i(w, e) over S per covered word.
    FlatHashMap<WordId, double> best_sigma;
    /// Remaining non-coverage probability per influenced element.
    FlatHashMap<ElementId, double> survive;
  };

  /// Resolves `e` into `scratch_` for the SocialElement overloads.
  const GainTerms& Resolve(const SocialElement& e) const;

  const ScoringContext* ctx_;
  const SparseVector* query_;
  std::vector<TopicState> topics_;
  std::vector<ElementId> members_;
  FlatHashSet<ElementId> member_ids_;
  double score_ = 0.0;
  mutable GainTerms scratch_;
};

}  // namespace ksir

#endif  // KSIR_CORE_CANDIDATE_STATE_H_
