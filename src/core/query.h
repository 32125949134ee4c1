// k-SIR query and result types (paper Definition 3.3).
#ifndef KSIR_CORE_QUERY_H_
#define KSIR_CORE_QUERY_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/sparse_vector.h"
#include "common/types.h"

namespace ksir {

/// Query-processing algorithm selector.
enum class Algorithm {
  /// Multi-Topic ThresholdStream (Algorithm 2); (1/2 - eps)-approximate.
  kMtts,
  /// Multi-Topic ThresholdDescend (Algorithm 3); (1 - 1/e - eps)-approximate.
  kMttd,
  /// Lazy greedy over all active elements; (1 - 1/e)-approximate baseline.
  kCelf,
  /// Plain greedy (no lazy evaluation); used as a test oracle.
  kGreedy,
  /// Streaming sieve over all active elements; (1/2 - eps)-approximate.
  kSieveStreaming,
  /// k elements with the highest singleton scores; 1/k-approximate.
  kTopkRepresentative,
  /// Exhaustive search; exact but exponential (tests only).
  kBruteForce,
};

/// Stable display name ("MTTS", "CELF", ...).
std::string_view AlgorithmName(Algorithm algorithm);

/// An ad-hoc k-SIR query q_t(k, x) issued against the engine's current time.
struct KsirQuery {
  /// Maximum result size k (>= 1).
  std::int32_t k = 10;
  /// Sparse query vector x (nonnegative; normalized to sum to 1 by
  /// convention, though the algorithms only require nonnegativity).
  SparseVector x;
  Algorithm algorithm = Algorithm::kMttd;
  /// Approximation parameter of MTTS / MTTD / SieveStreaming.
  double epsilon = 0.1;
};

/// Work counters of one query execution.
struct QueryStats {
  /// Distinct elements whose score delta(e, x) was computed.
  std::size_t num_evaluated = 0;
  /// Tuples popped from the ranked lists (MTTS/MTTD/Top-k only). MTTS
  /// counts the elements it processed: the unprocessed tail of its last
  /// pop block is left out.
  std::size_t num_retrieved = 0;
  /// Marginal-gain evaluations Delta(e | S).
  std::size_t num_gain_evaluations = 0;
  /// MTTS: candidates maintained; MTTD: threshold rounds executed.
  std::size_t num_candidates_or_rounds = 0;
  /// Wall-clock duration of the query.
  double elapsed_ms = 0.0;
};

/// Result set of a k-SIR query.
struct QueryResult {
  /// Selected element ids in selection order (|ids| <= k).
  std::vector<ElementId> element_ids;
  /// f(S, x) of the returned set.
  double score = 0.0;
  QueryStats stats;
};

}  // namespace ksir

#endif  // KSIR_CORE_QUERY_H_
