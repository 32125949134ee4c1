// Dense accumulator with lazy stamp-based clearing: one array of values
// plus a parallel array of epoch stamps. Begin() bumps the epoch, which
// invalidates every slot in O(1); Add() initializes a slot on its first
// touch of the epoch and accumulates afterwards. The scatter/gather idiom
// of the maintenance hot paths (fold many sparse vectors into one dense
// row, then read back a sparse support) without ever memsetting the dense
// arrays.
#ifndef KSIR_COMMON_STAMPED_ACCUMULATOR_H_
#define KSIR_COMMON_STAMPED_ACCUMULATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace ksir {

/// Thread-compatible; one accumulator per owner, sized once.
class StampedAccumulator {
 public:
  StampedAccumulator() = default;

  /// (Re)sizes the dense range to [0, n). Keeps stamps valid.
  void Resize(std::size_t n) {
    values_.resize(n, 0.0);
    stamps_.resize(n, 0);
  }

  bool empty() const { return values_.empty(); }

  /// Starts a new accumulation epoch; all slots read as absent.
  void Begin() { ++epoch_; }

  /// values[slot] += delta (first touch of the epoch initializes to delta).
  void Add(std::size_t slot, double delta) {
    if (stamps_[slot] != epoch_) {
      stamps_[slot] = epoch_;
      values_[slot] = delta;
    } else {
      values_[slot] += delta;
    }
  }

  /// Add() over a sorted (index, value) entry span (SparseVector layout):
  /// the fold of many sparse topic vectors into the dense row is the
  /// scoring stage's per-referrer hot loop. Indices must be within the
  /// resized range.
  void AddEntries(const std::pair<std::int32_t, double>* entries,
                  std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      Add(static_cast<std::size_t>(entries[i].first), entries[i].second);
    }
  }

  /// True when `slot` was touched since the last Begin().
  bool Touched(std::size_t slot) const { return stamps_[slot] == epoch_; }

  /// Value of a touched slot (undefined for untouched slots).
  double Get(std::size_t slot) const { return values_[slot]; }

 private:
  std::vector<double> values_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t epoch_ = 0;
};

}  // namespace ksir

#endif  // KSIR_COMMON_STAMPED_ACCUMULATOR_H_
