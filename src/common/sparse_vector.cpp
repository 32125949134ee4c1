#include "common/sparse_vector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/kernels/kernels.h"

namespace ksir {

SparseVector SparseVector::FromEntries(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end());
  SparseVector out;
  out.entries_.reserve(entries.size());
  for (const auto& [index, value] : entries) {
    KSIR_DCHECK(index >= 0);
    if (!out.entries_.empty() && out.entries_.back().first == index) {
      out.entries_.back().second += value;
    } else {
      out.entries_.emplace_back(index, value);
    }
  }
  std::erase_if(out.entries_, [](const Entry& e) { return e.second <= 0.0; });
  return out;
}

SparseVector SparseVector::FromDense(const std::vector<double>& dense,
                                     double threshold) {
  SparseVector out;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] > threshold) {
      out.entries_.emplace_back(static_cast<std::int32_t>(i), dense[i]);
    }
  }
  return out;
}

SparseVector SparseVector::TruncateAndNormalize(
    const std::vector<double>& dense, double threshold) {
  KSIR_CHECK(!dense.empty());
  SparseVector out;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] >= threshold && dense[i] > 0.0) {
      out.entries_.emplace_back(static_cast<std::int32_t>(i), dense[i]);
    }
  }
  if (out.entries_.empty()) {
    const auto it = std::max_element(dense.begin(), dense.end());
    if (*it > 0.0) {
      out.entries_.emplace_back(
          static_cast<std::int32_t>(it - dense.begin()), *it);
    }
  }
  out.NormalizeL1();
  return out;
}

double SparseVector::Get(std::int32_t index) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), index,
      [](const Entry& e, std::int32_t i) { return e.first < i; });
  if (it != entries_.end() && it->first == index) return it->second;
  return 0.0;
}

double SparseVector::Sum() const {
  double total = 0.0;
  for (const auto& [index, value] : entries_) total += value;
  return total;
}

std::int32_t SparseVector::DimensionBound() const {
  return entries_.empty() ? 0 : entries_.back().first + 1;
}

void SparseVector::NormalizeL1() {
  const double total = Sum();
  if (total <= 0.0) return;
  for (auto& [index, value] : entries_) value /= total;
}

double SparseVector::Dot(const SparseVector& a, const SparseVector& b) {
  // Sparse-sparse merge join over the sorted indices.
  double dot = 0.0;
  auto ia = a.entries_.begin();
  auto ib = b.entries_.begin();
  while (ia != a.entries_.end() && ib != b.entries_.end()) {
    if (ia->first < ib->first) {
      ++ia;
    } else if (ib->first < ia->first) {
      ++ib;
    } else {
      dot += ia->second * ib->second;
      ++ia;
      ++ib;
    }
  }
  return dot;
}

double SparseVector::Cosine(const SparseVector& a, const SparseVector& b) {
  // The norms walk the value halves of the (index, value) entries: a
  // stride-2 strided square sum in the canonical 4-lane order.
  static_assert(sizeof(Entry) == 2 * sizeof(double),
                "Entry must be a 16-byte (int32, double) record");
  const double na = a.entries_.empty()
                        ? 0.0
                        : kernels::SumSquares(&a.entries_[0].second,
                                              a.entries_.size(), 2);
  const double nb = b.entries_.empty()
                        ? 0.0
                        : kernels::SumSquares(&b.entries_[0].second,
                                              b.entries_.size(), 2);
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return Dot(a, b) / (std::sqrt(na) * std::sqrt(nb));
}

std::vector<double> SparseVector::ToDense(std::size_t dim) const {
  KSIR_CHECK(static_cast<std::size_t>(DimensionBound()) <= dim);
  std::vector<double> dense(dim, 0.0);
  for (const auto& [index, value] : entries_) {
    dense[static_cast<std::size_t>(index)] = value;
  }
  return dense;
}

}  // namespace ksir
