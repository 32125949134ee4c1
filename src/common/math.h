// Small numeric helpers shared by scoring and topic modeling.
#ifndef KSIR_COMMON_MATH_H_
#define KSIR_COMMON_MATH_H_

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/kernels/kernels.h"

namespace ksir {

/// -p * ln(p) with the limit value 0 at p == 0; requires p in [0, 1].
/// This is the information-entropy word weight kernel of Eq. (3):
/// sigma_i(w, e) = freq * EntropyWeight(p_i(w) * p_i(e)).
inline double EntropyWeight(double p) {
  KSIR_DCHECK(p >= 0.0 && p <= 1.0 + 1e-12);
  if (p <= 0.0) return 0.0;
  return -p * std::log(p);
}

/// Normalizes `v` in place to sum to 1; leaves a uniform vector when the
/// input sums to zero. Returns the pre-normalization sum.
inline double NormalizeInPlace(std::vector<double>* v) {
  KSIR_DCHECK(v != nullptr && !v->empty());
  double total = 0.0;
  for (double x : *v) total += x;
  if (total <= 0.0) {
    const double u = 1.0 / static_cast<double>(v->size());
    for (auto& x : *v) x = u;
    return total;
  }
  for (auto& x : *v) x /= total;
  return total;
}

/// Cosine similarity of two equal-length dense vectors (0 when either is 0).
/// Dot and norms use the canonical 4-lane reductions of kernels.h.
inline double CosineSimilarity(const std::vector<double>& a,
                               const std::vector<double>& b) {
  KSIR_DCHECK(a.size() == b.size());
  const double dot = kernels::DenseDot(a.data(), b.data(), a.size());
  const double na = kernels::SumSquares(a.data(), a.size(), 1);
  const double nb = kernels::SumSquares(b.data(), b.size(), 1);
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

/// True when |a - b| <= tol (absolute tolerance).
inline bool NearlyEqual(double a, double b, double tol = 1e-9) {
  return std::abs(a - b) <= tol;
}

}  // namespace ksir

#endif  // KSIR_COMMON_MATH_H_
