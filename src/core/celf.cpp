#include "core/celf.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "core/candidate_state.h"

namespace ksir {

namespace {

struct HeapEntry {
  double cached_gain;
  ElementId id;
  /// |S| at the time the gain was computed; a gain is current iff it was
  /// computed against the present S.
  std::size_t stamp;

  bool operator<(const HeapEntry& other) const {
    if (cached_gain != other.cached_gain) {
      return cached_gain < other.cached_gain;
    }
    return id > other.id;
  }
};

/// The lazy-greedy selection over a seeded heap, shared by both ground
/// sets: `input(id)` is what CandidateState scores for `id` (a window
/// element or its gain terms).
template <typename Input>
void SelectLazily(std::priority_queue<HeapEntry>* heap, std::int32_t k,
                  CandidateState* candidate, QueryStats* stats, Input input) {
  while (!heap->empty() &&
         candidate->size() < static_cast<std::size_t>(k)) {
    const HeapEntry top = heap->top();
    heap->pop();
    if (top.cached_gain <= 0.0) break;
    if (top.stamp == candidate->size()) {
      candidate->Add(input(top.id));
    } else {
      const double gain = candidate->MarginalGain(input(top.id));
      ++stats->num_gain_evaluations;
      if (gain > 0.0) heap->push(HeapEntry{gain, top.id, candidate->size()});
    }
  }
}

}  // namespace

QueryResult RunCelf(const ScoringContext& ctx, const ActiveWindow& window,
                    const KsirQuery& query) {
  KSIR_CHECK(query.k >= 1);
  WallTimer timer;
  QueryResult result;
  CandidateState candidate(&ctx, &query.x);

  // First pass: singleton scores of every active element.
  std::priority_queue<HeapEntry> heap;
  window.ForEachActive([&](const SocialElement& e) {
    const double score = ctx.ElementScore(e, query.x);
    ++result.stats.num_evaluated;
    if (score > 0.0) heap.push(HeapEntry{score, e.id, 0});
  });
  SelectLazily(&heap, query.k, &candidate, &result.stats,
               [&](ElementId id) -> const SocialElement& {
                 const SocialElement* e = window.Find(id);
                 KSIR_CHECK(e != nullptr);
                 return *e;
               });

  result.element_ids = candidate.members();
  result.score = candidate.score();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

QueryResult RunCelfOverTerms(const ScoringContext& ctx,
                             const KsirQuery& query,
                             std::span<const GainTerms> candidates) {
  KSIR_CHECK(query.k >= 1);
  KSIR_DCHECK(std::adjacent_find(candidates.begin(), candidates.end(),
                                 [](const GainTerms& a, const GainTerms& b) {
                                   return a.id() >= b.id();
                                 }) == candidates.end());
  WallTimer timer;
  QueryResult result;
  CandidateState candidate(&ctx, &query.x);

  // First pass: singleton scores, the terms' gains against the empty set.
  std::priority_queue<HeapEntry> heap;
  for (const GainTerms& terms : candidates) {
    const double score = candidate.MarginalGain(terms);
    ++result.stats.num_evaluated;
    if (score > 0.0) heap.push(HeapEntry{score, terms.id(), 0});
  }
  SelectLazily(&heap, query.k, &candidate, &result.stats,
               [&](ElementId id) -> const GainTerms& {
                 const auto it = std::lower_bound(
                     candidates.begin(), candidates.end(), id,
                     [](const GainTerms& t, ElementId v) {
                       return t.id() < v;
                     });
                 KSIR_CHECK(it != candidates.end() && it->id() == id);
                 return *it;
               });

  result.element_ids = candidate.members();
  result.score = candidate.score();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

QueryResult RunGreedy(const ScoringContext& ctx, const ActiveWindow& window,
                      const KsirQuery& query) {
  KSIR_CHECK(query.k >= 1);
  WallTimer timer;
  QueryResult result;
  CandidateState candidate(&ctx, &query.x);

  std::vector<ElementId> ids = window.ActiveIds();
  std::sort(ids.begin(), ids.end());  // deterministic tie-breaking

  // Per-round gain buffer: evaluate every marginal gain into a contiguous
  // array, then take the round winner (std::max_element keeps the smallest
  // index on ties, the sequential scan's first-max-wins). Members hold the
  // sentinel -1.0, below the 0.0 acceptance floor.
  std::vector<double> gains(ids.size(), -1.0);
  for (std::int32_t round = 0; round < query.k && !ids.empty(); ++round) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (candidate.Contains(ids[i])) {
        gains[i] = -1.0;
        continue;
      }
      const SocialElement* e = window.Find(ids[i]);
      KSIR_CHECK(e != nullptr);
      gains[i] = candidate.MarginalGain(*e);
      ++result.stats.num_gain_evaluations;
    }
    const auto best_i = static_cast<std::size_t>(
        std::max_element(gains.begin(), gains.end()) - gains.begin());
    if (!(gains[best_i] > 0.0)) break;  // no positive gain remains
    const SocialElement* best = window.Find(ids[best_i]);
    KSIR_CHECK(best != nullptr);
    candidate.Add(*best);
  }

  result.stats.num_evaluated = ids.size();
  result.element_ids = candidate.members();
  result.score = candidate.score();
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace ksir
