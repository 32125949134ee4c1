// Sumblr-style stream summarization baseline (Shou et al., SIGIR 2013;
// Section 5.1 of the paper).
//
// The paper's adaptation: elements containing at least one query keyword are
// the candidates; the summarizer clusters them (k-means over topic vectors,
// standing in for Sumblr's online tweet-cluster vectors) and picks one
// representative per cluster by LexRank centrality blended with an influence
// weight (in-window reference count, standing in for Sumblr's author
// PageRank — substitution documented in the README's Design notes).
#ifndef KSIR_SEARCH_SUMBLR_H_
#define KSIR_SEARCH_SUMBLR_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "search/tfidf.h"
#include "window/active_window.h"

namespace ksir {

/// Summarizer configuration.
struct SumblrOptions {
  /// k-means iterations.
  std::int32_t kmeans_iterations = 10;
  /// Blend exponent of the influence weight: score = lexrank * (1 +
  /// ln(1 + in_degree))^influence_boost.
  double influence_boost = 1.0;
  /// Cap on the candidate set (most recent kept).
  std::size_t max_candidates = 2000;
  std::uint64_t seed = 17;
};

/// Runs the Sumblr-style summarizer: keyword filter -> cluster -> LexRank.
/// `tfidf` provides the text-similarity graph for LexRank.
std::vector<ElementId> SumblrSummarize(const ActiveWindow& window,
                                       const TfIdfIndex& tfidf,
                                       const std::vector<WordId>& keywords,
                                       std::size_t k,
                                       std::size_t num_topics,
                                       SumblrOptions options = {});

}  // namespace ksir

#endif  // KSIR_SEARCH_SUMBLR_H_
