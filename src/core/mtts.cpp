#include "core/mtts.h"

#include <cmath>
#include <limits>
#include <map>

#include "common/check.h"
#include "common/timer.h"
#include "core/candidate_state.h"
#include "core/score_cache.h"
#include "core/traversal.h"

namespace ksir {

namespace {

// phi = (1 + eps)^j.
double PhiOf(int j, double eps) { return std::pow(1.0 + eps, j); }

// One candidate S_phi with its add threshold phi/2k, fixed at creation.
struct Candidate {
  double add_threshold;
  CandidateState state;
};

}  // namespace

QueryResult RunMtts(const ScoringContext& ctx, const RankedListIndex& index,
                    const KsirQuery& query) {
  KSIR_CHECK(query.k >= 1);
  KSIR_CHECK(query.epsilon > 0.0 && query.epsilon < 1.0);
  WallTimer timer;
  QueryResult result;

  const double eps = query.epsilon;
  const double k = static_cast<double>(query.k);
  const double log1e = std::log1p(eps);
  const double lambda = ctx.params().lambda;
  const double influence_factor = ctx.influence_factor();

  RankedListCursor cursor(&index, &query.x);
  // Candidates S_phi keyed by the exponent j of phi = (1+eps)^j.
  std::map<int, Candidate> candidates;
  double delta_max = 0.0;
  GainTerms terms;

  std::size_t peak_candidates = 0;
  // Lines 4-14, over the cursor in prefetched blocks: the visitor handles
  // one element and returns the recomputed TH, the minimum phi/2k over the
  // unfilled candidates. TH starts at 0, before any candidate exists.
  const std::size_t processed = VisitWhileAtLeast(
      &cursor, ctx.window(), /*threshold=*/0.0,
      [&](ElementId, const ActiveWindow::ActiveView& view) {
        // Line 6: evaluate delta(e, x) from the element's cached halves.
        const double score = ScoreCache::SingletonScore(
            ScoreCache::OfActive(view), query.x, lambda, influence_factor);
        ++result.stats.num_evaluated;

        // Lines 7-9: track delta_max and adjust the candidate range
        // [delta_max, 2 k delta_max].
        if (score > delta_max) {
          delta_max = score;
          const int j_lo =
              static_cast<int>(std::ceil(std::log(delta_max) / log1e - 1e-9));
          const int j_hi = static_cast<int>(
              std::floor(std::log(2.0 * k * delta_max) / log1e + 1e-9));
          // Drop candidates that fell out of range; create missing ones.
          // Newly created candidates only see elements from this point on,
          // exactly as in SieveStreaming.
          std::erase_if(candidates, [&](const auto& kv) {
            return kv.first < j_lo || kv.first > j_hi;
          });
          for (int j = j_lo; j <= j_hi; ++j) {
            if (!candidates.contains(j)) {
              candidates.emplace(
                  j, Candidate{PhiOf(j, eps) / (2.0 * k),
                               CandidateState(&ctx, &query.x)});
            }
          }
          peak_candidates = std::max(peak_candidates, candidates.size());
        }

        // Lines 10-12: each candidate decides independently. The element's
        // gain terms are resolved once, on the first candidate that needs
        // them, and shared by every gain check and addition.
        bool resolved = false;
        for (auto& [j, candidate] : candidates) {
          if (candidate.state.size() >= static_cast<std::size_t>(query.k)) {
            continue;
          }
          if (score < candidate.add_threshold) continue;
          if (!resolved) {
            terms.Resolve(ctx, query.x, *view.element, *view.referrers);
            resolved = true;
          }
          ++result.stats.num_gain_evaluations;
          if (candidate.state.MarginalGain(terms) >= candidate.add_threshold) {
            candidate.state.Add(terms);
          }
        }

        // Line 14: recompute TH; candidates are ordered by j, so the first
        // unfilled one holds the minimum.
        if (candidates.empty()) return 0.0;
        for (const auto& [j, candidate] : candidates) {
          if (candidate.state.size() < static_cast<std::size_t>(query.k)) {
            return candidate.add_threshold;
          }
        }
        return std::numeric_limits<double>::infinity();
      });

  // Line 15: return the best candidate.
  const CandidateState* best = nullptr;
  for (const auto& [j, candidate] : candidates) {
    if (best == nullptr || candidate.state.score() > best->score()) {
      best = &candidate.state;
    }
  }
  if (best != nullptr) {
    result.element_ids = best->members();
    result.score = best->score();
  }
  // The speculative tail of the last block was popped, never processed.
  result.stats.num_retrieved = processed;
  result.stats.num_candidates_or_rounds = peak_candidates;
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace ksir
