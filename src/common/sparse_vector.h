// Sparse nonnegative vector over a small dense index space (topic vectors of
// elements and k-SIR query vectors). Entries are kept sorted by index for
// O(nnz) merges; nnz is tiny in practice (the paper observes < 2 topics per
// element on average), which is what makes per-topic ranked lists effective.
#ifndef KSIR_COMMON_SPARSE_VECTOR_H_
#define KSIR_COMMON_SPARSE_VECTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace ksir {

/// Immutable-after-build sparse vector with sorted (index, value) entries.
class SparseVector {
 public:
  using Entry = std::pair<std::int32_t, double>;

  SparseVector() = default;

  /// Builds from unsorted entries; merges duplicate indices by summation and
  /// drops non-positive values.
  static SparseVector FromEntries(std::vector<Entry> entries);

  /// Builds from a dense vector keeping entries with value > threshold.
  static SparseVector FromDense(const std::vector<double>& dense,
                                double threshold = 0.0);

  /// Builds from a dense vector keeping entries with value >= `threshold`,
  /// then renormalizing survivors to sum to 1. When no entry passes the
  /// threshold the single largest entry is kept. Used for topic-vector
  /// truncation (README, Design notes).
  static SparseVector TruncateAndNormalize(const std::vector<double>& dense,
                                           double threshold);

  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t nnz() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Value at `index` (0 when absent). O(log nnz).
  double Get(std::int32_t index) const;

  /// Sum of all values.
  double Sum() const;

  /// Largest index + 1, or 0 when empty.
  std::int32_t DimensionBound() const;

  /// Scales values so that Sum() == 1 (no-op on empty/zero vectors).
  void NormalizeL1();

  /// Sparse-sparse dot product, O(nnz_a + nnz_b).
  static double Dot(const SparseVector& a, const SparseVector& b);

  /// Cosine similarity (0 when either vector is empty/zero).
  static double Cosine(const SparseVector& a, const SparseVector& b);

  /// Dense expansion of length `dim` (dim must cover all indices).
  std::vector<double> ToDense(std::size_t dim) const;

  bool operator==(const SparseVector& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace ksir

#endif  // KSIR_COMMON_SPARSE_VECTOR_H_
