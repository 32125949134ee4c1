#include "core/mttd.h"

#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flat_hash_map.h"
#include "common/timer.h"
#include "core/candidate_state.h"
#include "core/score_cache.h"
#include "core/traversal.h"
#include "window/active_window.h"

namespace ksir {

namespace {

// Max-heap entry of the element buffer E' with a cached gain upper bound.
struct BufferEntry {
  double cached_gain;
  ElementId id;

  bool operator<(const BufferEntry& other) const {
    if (cached_gain != other.cached_gain) {
      return cached_gain < other.cached_gain;
    }
    return id > other.id;  // deterministic tie-break: smaller id on top
  }
};

// Authoritative cached gain of a buffered element, with the window view
// resolved when it was pulled (valid for the whole query: the window is
// not modified while a query runs).
struct Buffered {
  double gain;
  ActiveWindow::ActiveView view;
};

}  // namespace

QueryResult RunMttd(const ScoringContext& ctx, const RankedListIndex& index,
                    const KsirQuery& query) {
  KSIR_CHECK(query.k >= 1);
  KSIR_CHECK(query.epsilon > 0.0 && query.epsilon < 1.0);
  WallTimer timer;
  QueryResult result;

  const double eps = query.epsilon;
  RankedListCursor cursor(&index, &query.x);
  CandidateState candidate(&ctx, &query.x);

  // Buffer E': lazy max-heap plus the authoritative cached gains. Stale heap
  // entries (cached value changed or element added to S) are skipped on pop.
  std::priority_queue<BufferEntry> heap;
  FlatHashMap<ElementId, Buffered> cached;

  // Line 3: tau starts at the upper bound over all active elements.
  double tau = cursor.UpperBound();
  double tau_terminate = 0.0;
  std::size_t rounds = 0;

  auto finish = [&](QueryResult&& r) {
    r.element_ids = candidate.members();
    r.score = candidate.score();
    r.stats.num_retrieved = cursor.num_retrieved();
    r.stats.num_candidates_or_rounds = rounds;
    r.stats.elapsed_ms = timer.ElapsedMillis();
    return std::move(r);
  };

  if (tau <= 0.0) return finish(std::move(result));

  const double lambda = ctx.params().lambda;
  const double influence_factor = ctx.influence_factor();
  std::vector<ElementId> pulled;
  std::vector<ActiveWindow::ActiveView> views;
  GainTerms terms;
  while (tau >= tau_terminate && tau > 1e-12) {
    ++rounds;
    // Lines 13-19: retrieve every element whose score may reach tau — one
    // bulk cursor pull per round instead of a pop-and-recheck loop.
    // The whole round is resolved in one prefetched window batch; each
    // singleton score delta(e, x) is then read off the element's cached
    // halves (one short merge), not rescored.
    pulled.clear();
    cursor.PopWhileAtLeast(tau, &pulled);
    views.resize(pulled.size());
    ctx.window().FindActiveBatch(pulled.data(), pulled.size(), views.data());
    for (std::size_t i = 0; i < pulled.size(); ++i) {
      const double score = ScoreCache::SingletonScore(
          ScoreCache::OfActive(views[i]), query.x, lambda, influence_factor);
      ++result.stats.num_evaluated;
      cached.emplace(pulled[i], Buffered{score, views[i]});
      heap.push(BufferEntry{score, pulled[i]});
    }

    // Lines 6-10: add elements whose true marginal gain reaches tau.
    while (!heap.empty()) {
      const BufferEntry top = heap.top();
      const auto it = cached.find(top.id);
      if (it == cached.end() || it->second.gain != top.cached_gain) {
        heap.pop();  // stale entry
        continue;
      }
      if (top.cached_gain < tau) break;  // no buffered element can qualify
      heap.pop();
      // The gain check and the Add that may follow share one resolution,
      // over the view OfActive checked when the element was pulled.
      const ActiveWindow::ActiveView& view = it->second.view;
      terms.Resolve(ctx, query.x, *view.element, *view.referrers);
      const double gain = candidate.MarginalGain(terms);
      ++result.stats.num_gain_evaluations;
      if (gain >= tau) {
        candidate.Add(terms);
        cached.erase(it);
        if (candidate.size() == static_cast<std::size_t>(query.k)) {
          return finish(std::move(result));
        }
      } else {
        it->second.gain = gain;
        heap.push(BufferEntry{gain, top.id});
      }
    }

    // Line 11: descend.
    tau_terminate = candidate.score() * eps / static_cast<double>(query.k);
    tau *= (1.0 - eps);
  }
  return finish(std::move(result));
}

}  // namespace ksir
