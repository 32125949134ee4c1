// Best-first merged traversal of the ranked lists for one query
// (the RL_i.first / RL_i.next operations of Section 4.1).
//
// The cursor walks the lists of the query's support topics in decreasing
// x_i * delta_i(e) order, maintains the upper bound
//   UB(x) = sum_i x_i * delta_i(e(i))
// over all unevaluated elements, and marks elements visited across lists so
// that each element is popped at most once per query (Section 4.1:
// "once a tuple for element e has been accessed in one ranked list, the
// remaining tuples for e in the other lists are marked as visited").
// Visited marking is query-local, so concurrent queries share the index.
//
// Keys are pulled from each list in blocks via RankedList::DrainTop — one
// contiguous copy per block instead of a chunk-iterator dereference per
// pop — and the per-pop merge then runs over the small per-list buffers.
// PopWhileAtLeast is the one bulk pop: uncapped it drains a whole MTTD
// threshold round; capped, and recording the upper bound read before each
// pop, it feeds VisitWhileAtLeast, the MTTS loop, kPopBlock elements at a
// time so that each block is resolved with one prefetched window batch.
#ifndef KSIR_CORE_TRAVERSAL_H_
#define KSIR_CORE_TRAVERSAL_H_

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/sparse_vector.h"
#include "common/types.h"
#include "core/ranked_list.h"
#include "window/active_window.h"

namespace ksir {

/// Single-query read-only cursor over a RankedListIndex.
class RankedListCursor {
 public:
  /// Keys buffered per DrainTop pull: two cache lines of keys amortize the
  /// chunk walk across pops without holding a stale view for long.
  static constexpr std::size_t kPullBlock = 32;
  /// Elements VisitWhileAtLeast pops and resolves per block: enough window
  /// probes to overlap their misses, few enough that the speculative tail
  /// popped past MTTS's stopping point stays small.
  static constexpr std::size_t kPopBlock = 16;

  /// `index` and `query` must outlive the cursor; the index must stay
  /// unmodified while the cursor lives.
  RankedListCursor(const RankedListIndex* index, const SparseVector* query);

  /// Upper bound on delta(e, x) of any element not yet popped. 0 when all
  /// lists are exhausted.
  double UpperBound() const;

  /// True when every list of the query support is exhausted.
  bool Exhausted() const;

  /// Pops the element at the head position with maximum x_i * delta_i and
  /// marks it visited everywhere. nullopt when exhausted.
  std::optional<ElementId> PopNext();

  /// Pops elements (appending to `out`, in pop order) for as long as the
  /// cursor is not exhausted, UpperBound() >= `min_value` and fewer than
  /// `max_pops` were popped by this call — one bulk call per MTTD threshold
  /// round, or per MTTS block, instead of a pop-and-recheck loop. When
  /// `bounds` is given, the UpperBound() read just before each pop is
  /// appended to it, in step with `out`. Returns how many were popped.
  std::size_t PopWhileAtLeast(
      double min_value, std::vector<ElementId>* out,
      std::size_t max_pops = std::numeric_limits<std::size_t>::max(),
      std::vector<double>* bounds = nullptr);

  /// Elements popped so far.
  std::size_t num_retrieved() const { return num_retrieved_; }

 private:
  struct ListPos {
    TopicId topic;
    double weight;  // x_i
    const RankedList* list;
    RankedList::const_iterator next;  // drain position (beyond the buffer)
    std::array<RankedList::Key, kPullBlock> buffer;
    std::uint32_t cursor = 0;
    std::uint32_t filled = 0;

    bool has_head() const { return cursor < filled; }
    const RankedList::Key& head() const { return buffer[cursor]; }
  };

  /// Advances `pos` past visited entries, refilling the buffer as needed;
  /// afterwards the head (if any) is unvisited and the head shadow arrays
  /// reflect the new head value.
  void AdvanceHead(ListPos* pos);

  /// Marks the head element `id` visited and re-advances exactly the lists
  /// whose head it is.
  void MarkPopped(ElementId id);

  std::vector<ListPos> lists_;
  /// Contiguous shadows of the per-list head values x_i * delta_i(head),
  /// kept in lockstep with lists_ by AdvanceHead so the per-pop scans run
  /// one contiguous sum/argmax pass instead of a pointer-chasing loop over
  /// ListPos records. head_ub_ holds 0.0 for exhausted lists
  /// (identity for the UB sum); head_max_ holds -1.0 (the scalar scan's
  /// "nothing selected" sentinel, below any real head value).
  std::vector<double> head_ub_;
  std::vector<double> head_max_;
  FlatHashSet<ElementId> visited_;
  std::size_t num_retrieved_ = 0;
};

/// The traversal loop of MTTS (paper Algorithm 2, lines 4-14): for as long
/// as the cursor is not exhausted and its upper bound is >= `threshold`,
/// pop the next element and set `threshold = visit(id, view)`, `view` being
/// the element's window resolution. Returns how many elements were visited.
///
/// The cursor is read in blocks of kPopBlock: each block is popped against
/// the threshold at its start, records the bound seen before each pop, and
/// is resolved with one ActiveWindow::FindActiveBatch. Before each element
/// the bound recorded for it is checked against the current threshold; the
/// first failing check ends the loop and drops the rest of the block. This
/// visits exactly what the one-pop-at-a-time loop visits, for any sequence
/// of thresholds `visit` returns: pop order does not depend on the
/// threshold, and a block cut short by its bound ends the loop only if the
/// next block, popped against the updated threshold, comes back empty. The
/// dropped tail is popped (the cursor's num_retrieved() counts it) but
/// never visited.
template <typename Visit>
std::size_t VisitWhileAtLeast(RankedListCursor* cursor,
                              const ActiveWindow& window, double threshold,
                              Visit&& visit) {
  constexpr std::size_t kBlock = RankedListCursor::kPopBlock;
  std::vector<ElementId> ids;
  std::vector<double> bounds;
  ids.reserve(kBlock);
  bounds.reserve(kBlock);
  std::array<ActiveWindow::ActiveView, kBlock> views;
  std::size_t visited = 0;
  while (true) {
    ids.clear();
    bounds.clear();
    cursor->PopWhileAtLeast(threshold, &ids, kBlock, &bounds);
    if (ids.empty()) return visited;
    window.FindActiveBatch(ids.data(), ids.size(), views.data());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!(bounds[i] >= threshold)) return visited;
      threshold = visit(ids[i], views[i]);
      ++visited;
    }
  }
}

}  // namespace ksir

#endif  // KSIR_CORE_TRAVERSAL_H_
