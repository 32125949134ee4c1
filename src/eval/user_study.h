// Proxy user study (Table 5 substitution, README, Design notes).
//
// The paper recruits 30 volunteers; 3 raters rank each query's five result
// sets on two aspects — representativeness and impact — mapped to 1..5, and
// reports per-method averages plus Cohen's weighted kappa. Humans cannot be
// reproduced mechanically, so this module keeps the *protocol* and drives
// the rankings from the measurable quantities the aspects describe:
//   representativeness_raw = topical relevance + information coverage
//   impact_raw             = in-window reference count of the result set
// Each simulated rater perturbs the raw scores with deterministic
// log-normal noise (individual taste) before ranking, which yields the
// kappa-style partial agreement the paper reports.
#ifndef KSIR_EVAL_USER_STUDY_H_
#define KSIR_EVAL_USER_STUDY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sparse_vector.h"
#include "common/status.h"
#include "common/types.h"
#include "window/active_window.h"

namespace ksir {

/// One method's result set for one query.
struct StudyEntry {
  std::string method;
  std::vector<ElementId> result_set;
};

/// Proxy-rater configuration.
struct UserStudyOptions {
  std::int32_t raters_per_query = 3;
  /// Rater disagreement: additive Gaussian noise with standard deviation
  /// rater_noise x (spread of the raw scores across methods). 0 makes all
  /// raters identical (kappa 1); the default lands the mean pairwise kappa
  /// in the 0.5-0.9 band the paper reports.
  double rater_noise = 0.4;
  std::uint64_t seed = 23;
};

/// Aggregated study output for one method.
struct MethodRating {
  std::string method;
  double representativeness = 0.0;  // mean rating in [1, 5]
  double impact = 0.0;              // mean rating in [1, 5]
};

/// Full study output.
struct UserStudyResult {
  std::vector<MethodRating> ratings;
  /// Mean pairwise linearly weighted kappa across raters.
  double kappa_representativeness = 0.0;
  double kappa_impact = 0.0;
};

/// Runs the proxy study over `queries` (each query = the competing methods'
/// result sets plus the query vector). Every query must list the same
/// methods in the same order.
StatusOr<UserStudyResult> RunProxyUserStudy(
    const ActiveWindow& window,
    const std::vector<std::vector<StudyEntry>>& queries,
    const std::vector<SparseVector>& query_vectors,
    UserStudyOptions options = {});

}  // namespace ksir

#endif  // KSIR_EVAL_USER_STUDY_H_
