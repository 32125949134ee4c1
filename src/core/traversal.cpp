#include "core/traversal.h"

#include "common/check.h"
#include "common/kernels/kernels.h"

namespace ksir {

RankedListCursor::RankedListCursor(const RankedListIndex* index,
                                   const SparseVector* query) {
  KSIR_CHECK(index != nullptr);
  KSIR_CHECK(query != nullptr);
  lists_.reserve(query->nnz());
  for (const auto& [topic, weight] : query->entries()) {
    if (weight <= 0.0) continue;
    if (static_cast<std::size_t>(topic) >= index->num_topics()) continue;
    const RankedList& list = index->list(topic);
    ListPos pos;
    pos.topic = topic;
    pos.weight = weight;
    pos.list = &list;
    pos.next = list.begin();
    lists_.push_back(pos);
  }
  head_ub_.resize(lists_.size(), 0.0);
  head_max_.resize(lists_.size(), -1.0);
  for (ListPos& pos : lists_) AdvanceHead(&pos);
}

void RankedListCursor::AdvanceHead(ListPos* pos) {
  while (true) {
    while (pos->cursor < pos->filled &&
           visited_.contains(pos->buffer[pos->cursor].id)) {
      ++pos->cursor;
    }
    if (pos->cursor < pos->filled) break;
    pos->filled = static_cast<std::uint32_t>(
        pos->list->DrainTop(&pos->next, pos->buffer.data(), kPullBlock));
    pos->cursor = 0;
    if (pos->filled == 0) break;  // list exhausted
  }
  const auto slot = static_cast<std::size_t>(pos - lists_.data());
  if (pos->has_head()) {
    const double value = pos->weight * pos->head().score;
    head_ub_[slot] = value;
    head_max_[slot] = value;
  } else {
    head_ub_[slot] = 0.0;
    head_max_[slot] = -1.0;
  }
}

double RankedListCursor::UpperBound() const {
  if (lists_.empty()) return 0.0;
  std::size_t argmax = 0;
  return kernels::WeightedSumArgmax(head_ub_.data(), head_max_.data(),
                                    lists_.size(), &argmax);
}

bool RankedListCursor::Exhausted() const {
  for (const ListPos& pos : lists_) {
    if (pos.has_head()) return false;
  }
  return true;
}

std::optional<ElementId> RankedListCursor::PopNext() {
  if (lists_.empty()) return std::nullopt;
  std::size_t argmax = 0;
  kernels::WeightedSumArgmax(head_ub_.data(), head_max_.data(), lists_.size(),
                             &argmax);
  // The sentinel -1.0 is below every live head value; when even the argmax
  // sits at (or below) it, no list has a selectable head.
  if (!(head_max_[argmax] > -1.0)) return std::nullopt;
  const ElementId id = lists_[argmax].head().id;
  MarkPopped(id);
  return id;
}

void RankedListCursor::MarkPopped(ElementId id) {
  visited_.insert(id);
  ++num_retrieved_;
  // Keep the invariant: every head position points at an unvisited tuple,
  // so UpperBound() matches the paper's UB over unevaluated elements. Only
  // a head holding `id` itself just became visited (an element is listed
  // at most once per list); every other head already satisfies it.
  for (ListPos& pos : lists_) {
    if (pos.has_head() && pos.head().id == id) AdvanceHead(&pos);
  }
}

std::size_t RankedListCursor::PopWhileAtLeast(double min_value,
                                              std::vector<ElementId>* out,
                                              std::size_t max_pops,
                                              std::vector<double>* bounds) {
  if (lists_.empty()) return 0;
  std::size_t popped = 0;
  while (popped < max_pops) {
    // One scan finds both the upper bound and the best head.
    std::size_t argmax = 0;
    const double ub = kernels::WeightedSumArgmax(
        head_ub_.data(), head_max_.data(), lists_.size(), &argmax);
    if (!(head_max_[argmax] > -1.0) || ub < min_value) break;
    const ElementId id = lists_[argmax].head().id;
    MarkPopped(id);
    out->push_back(id);
    if (bounds != nullptr) bounds->push_back(ub);
    ++popped;
  }
  return popped;
}

}  // namespace ksir
