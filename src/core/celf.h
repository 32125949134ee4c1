// Batch submodular-maximization baselines over the full active set:
// CELF (lazy greedy, Leskovec et al. 2007) and the plain greedy of
// Nemhauser et al. 1978. Both are (1 - 1/e)-approximate; CELF is the
// paper's strongest-quality baseline. The same lazy greedy also runs over
// pre-resolved gain terms, with no window: the sharded planner's merge.
#ifndef KSIR_CORE_CELF_H_
#define KSIR_CORE_CELF_H_

#include <span>

#include "core/candidate_state.h"
#include "core/query.h"
#include "core/scoring.h"
#include "window/active_window.h"

namespace ksir {

/// Lazy greedy: evaluates every active element once up front, then uses
/// cached gains as upper bounds.
QueryResult RunCelf(const ScoringContext& ctx, const ActiveWindow& window,
                    const KsirQuery& query);

/// Lazy greedy over pre-resolved candidates: `candidates` are gain terms
/// resolved against `query.x`, sorted by strictly increasing id. Gains come
/// from the terms alone, so `ctx` supplies only lambda and the influence
/// factor; its window is never read. The sharded planner's merge step.
QueryResult RunCelfOverTerms(const ScoringContext& ctx,
                             const KsirQuery& query,
                             std::span<const GainTerms> candidates);

/// Plain greedy: k passes of full marginal-gain recomputation. O(k * n)
/// evaluations; used as a test oracle for CELF equivalence.
QueryResult RunGreedy(const ScoringContext& ctx, const ActiveWindow& window,
                      const KsirQuery& query);

}  // namespace ksir

#endif  // KSIR_CORE_CELF_H_
