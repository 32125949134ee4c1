// Floating-point reductions of the scoring and query hot loops.
//
// Each reduction defines ONE canonical lane order — four strided partial
// sums, lane j accumulating elements with index ≡ j (mod 4), combined as
// (l0 + l2) + (l1 + l3) — and every caller goes through these bodies, so
// cosine similarities, topic norms and the query cursor's upper bounds are
// bitwise reproducible across engine paths and builds. Inputs must be
// NaN-free (the engine rejects NaN scores at its boundaries); ±0.0 is fine.
//
// The sorted-list searches, shifts and merges of the ranked lists call the
// standard algorithms directly; nothing here is ISA-specific.
#ifndef KSIR_COMMON_KERNELS_KERNELS_H_
#define KSIR_COMMON_KERNELS_KERNELS_H_

#include <algorithm>
#include <cstddef>

namespace ksir {
namespace kernels {

/// sum_i term(i) for i in [0, n) in the canonical 4-lane order. The lanes
/// live in registers, so consecutive adds do not wait on each other.
template <typename Term>
inline double FourLaneSum(std::size_t n, Term term) {
  double l0 = 0.0;
  double l1 = 0.0;
  double l2 = 0.0;
  double l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += term(i);
    l1 += term(i + 1);
    l2 += term(i + 2);
    l3 += term(i + 3);
  }
  if (i < n) l0 += term(i);
  if (i + 1 < n) l1 += term(i + 1);
  if (i + 2 < n) l2 += term(i + 2);
  return (l0 + l2) + (l1 + l3);
}

/// sum_i a[i] * b[i] in the canonical 4-lane order.
inline double DenseDot(const double* a, const double* b, std::size_t n) {
  return FourLaneSum(n, [a, b](std::size_t i) { return a[i] * b[i]; });
}

/// sum_i v[i * stride]^2 in the canonical 4-lane order. `stride` is in
/// doubles (2 walks the value halves of sorted (int32, double) sparse
/// entries).
inline double SumSquares(const double* v, std::size_t n, std::size_t stride) {
  return FourLaneSum(n, [v, stride](std::size_t i) {
    const double x = v[i * stride];
    return x * x;
  });
}

/// Returns sum_i sum_vals[i] (canonical 4-lane order) and writes the
/// smallest index of the maximum of max_vals[0..n) to *argmax (n when
/// n == 0). The two arrays let one call serve both the cursor's upper
/// bound (exhausted slots contribute +0.0) and its argmax (exhausted slots
/// carry a sentinel the caller thresholds against).
inline double WeightedSumArgmax(const double* sum_vals, const double* max_vals,
                                std::size_t n, std::size_t* argmax) {
  *argmax = static_cast<std::size_t>(std::max_element(max_vals, max_vals + n) -
                                     max_vals);
  return FourLaneSum(n, [sum_vals](std::size_t i) { return sum_vals[i]; });
}

/// No-op kept for source compatibility: there is only one kernel path, so
/// there is nothing to force. Always returns false.
inline bool SetForceScalar(bool /*force*/) { return false; }

}  // namespace kernels
}  // namespace ksir

#endif  // KSIR_COMMON_KERNELS_KERNELS_H_
