// Multi-Topic ThresholdStream (paper Algorithm 2).
//
// SieveStreaming-style geometric threshold candidates fed by the best-first
// ranked-list traversal; terminates as soon as the upper bound of any
// unevaluated element falls below the smallest unfilled candidate threshold.
// Guarantees a (1/2 - eps)-approximation and evaluates each active element
// at most once.
//
// The traversal runs through VisitWhileAtLeast (core/traversal.h): the
// cursor is popped in blocks of RankedListCursor::kPopBlock, each block is
// resolved with one prefetched ActiveWindow::FindActiveBatch, and the
// elements are then processed one by one. The upper bound recorded before
// each pop is checked against the current threshold before the element is
// processed, so the first failing check ends the query exactly where a
// one-pop-at-a-time loop would; the rest of that block is dropped
// unprocessed. QueryStats::num_retrieved counts the processed elements
// only, so every result and work counter equals the one-at-a-time loop's.
#ifndef KSIR_CORE_MTTS_H_
#define KSIR_CORE_MTTS_H_

#include "core/query.h"
#include "core/ranked_list.h"
#include "core/scoring.h"

namespace ksir {

/// Runs MTTS for `query` against the current index state. The query's
/// epsilon must be in (0, 1).
QueryResult RunMtts(const ScoringContext& ctx, const RankedListIndex& index,
                    const KsirQuery& query);

}  // namespace ksir

#endif  // KSIR_CORE_MTTS_H_
