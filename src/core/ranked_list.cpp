#include "core/ranked_list.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ksir {

std::size_t RankedList::FindChunk(const Key& key) const {
  // First chunk whose last (greatest in comparator order, i.e. lowest-score)
  // key is not ordered before `key`; keys beyond every chunk map to the
  // final chunk.
  const auto idx = static_cast<std::size_t>(
      std::lower_bound(chunk_last_.begin(), chunk_last_.end(), key) -
      chunk_last_.begin());
  return idx == chunks_.size() ? idx - 1 : idx;
}

std::unique_ptr<RankedList::Chunk> RankedList::NewChunk() {
  auto chunk = std::make_unique<Chunk>();
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(nullptr);
  }
  chunk->slot = slot;
  chunk->gen = ++next_gen_;
  slots_[slot] = chunk.get();
  return chunk;
}

void RankedList::FreeChunk(Chunk* chunk) {
  KSIR_DCHECK(slots_[chunk->slot] == chunk);
  slots_[chunk->slot] = nullptr;
  free_slots_.push_back(chunk->slot);
}

void RankedList::Renumber(std::size_t from) {
  for (std::size_t i = from; i < chunks_.size(); ++i) {
    chunks_[i]->pos = static_cast<std::uint32_t>(i);
  }
}

RankedList::Chunk* RankedList::ResolveHandle(Handle h) const {
  if (h.slot >= slots_.size()) return nullptr;
  Chunk* chunk = slots_[h.slot];
  if (chunk == nullptr || chunk->gen != h.gen) return nullptr;
  return chunk;
}

RankedList::Chunk* RankedList::Locate(ElementId id, double old_score,
                                      Handle handle,
                                      std::uint32_t* offset) const {
  const Key key{old_score, id};
  const auto find_in = [&key, offset](const Chunk* chunk) {
    const Key* const first = chunk->keys.data();
    const auto pos = static_cast<std::size_t>(
        std::lower_bound(first, first + chunk->size, key) - first);
    *offset = static_cast<std::uint32_t>(pos);
    return pos < chunk->size && first[pos] == key;
  };
  Chunk* chunk = ResolveHandle(handle);
  if (chunk != nullptr && find_in(chunk)) return chunk;
  // Handle miss: the carried key is self-locating — one binary search of
  // the chunk directory, then of the chunk.
  KSIR_CHECK(!chunks_.empty());
  chunk = chunks_[FindChunk(key)].get();
  KSIR_CHECK(find_in(chunk));
  return chunk;
}

RankedList::Chunk* RankedList::InsertKey(const Key& key) {
  if (chunks_.empty()) {
    chunks_.push_back(NewChunk());
    Chunk* chunk = chunks_[0].get();
    chunk->keys[0] = key;
    chunk->size = 1;
    chunk->pos = 0;
    chunk_last_.push_back(key);
    ++size_;
    return chunk;
  }
  std::size_t idx = FindChunk(key);
  Chunk* chunk = chunks_[idx].get();
  if (chunk->size == kChunkCapacity) {
    // Split into two halves, then re-aim at the half that owns `key`. The
    // lower half keeps its slot/generation (its elements' handles stay
    // valid); the upper half's elements change chunks, so their old
    // handles miss harmlessly.
    auto upper_owned = NewChunk();
    Chunk* upper = upper_owned.get();
    constexpr std::uint32_t kHalf = kChunkCapacity / 2;
    std::copy(chunk->keys.begin() + kHalf, chunk->keys.end(),
              upper->keys.begin());
    upper->size = kChunkCapacity - kHalf;
    chunk->size = kHalf;
    const auto offset = static_cast<std::ptrdiff_t>(idx);
    chunks_.insert(chunks_.begin() + offset + 1, std::move(upper_owned));
    chunk_last_.insert(chunk_last_.begin() + offset,
                       chunks_[idx]->keys[kHalf - 1]);
    Renumber(idx + 1);
    if (chunks_[idx + 1]->keys[0] < key) {
      ++idx;
    }
    chunk = chunks_[idx].get();
  }
  Key* const first = chunk->keys.data();
  Key* const last = first + chunk->size;
  Key* const pos = std::lower_bound(first, last, key);
  std::copy_backward(pos, last, last + 1);
  *pos = key;
  ++chunk->size;
  chunk_last_[idx] = chunk->keys[chunk->size - 1];
  ++size_;
  return chunk;
}

void RankedList::EraseKeyAt(Chunk* chunk, std::uint32_t offset) {
  const std::size_t idx = chunk->pos;
  KSIR_DCHECK(chunks_[idx].get() == chunk);
  Key* const first = chunk->keys.data();
  std::copy(first + offset + 1, first + chunk->size, first + offset);
  --chunk->size;
  --size_;
  if (chunk->size == 0) {
    FreeChunk(chunk);
    const auto pos = static_cast<std::ptrdiff_t>(idx);
    chunks_.erase(chunks_.begin() + pos);
    chunk_last_.erase(chunk_last_.begin() + pos);
    Renumber(idx);
  } else {
    chunk_last_[idx] = chunk->keys[chunk->size - 1];
    if (chunk->size < kChunkCapacity / 4) MaybeMerge(idx);
  }
}

void RankedList::MaybeMerge(std::size_t idx) {
  // Fold the sparse chunk into a neighbor when the pair stays under
  // capacity, bounding the chunk count under sustained churn. The moved
  // elements' handles go stale and miss.
  const auto merge_into = [this](std::size_t dst, std::size_t src) {
    Chunk* a = chunks_[dst].get();
    Chunk* b = chunks_[src].get();
    std::copy(b->keys.data(), b->keys.data() + b->size,
              a->keys.data() + a->size);
    a->size += b->size;
    chunk_last_[dst] = a->keys[a->size - 1];
    FreeChunk(b);
    const auto offset = static_cast<std::ptrdiff_t>(src);
    chunks_.erase(chunks_.begin() + offset);
    chunk_last_.erase(chunk_last_.begin() + offset);
    Renumber(src);
  };
  const std::uint32_t self = chunks_[idx]->size;
  if (idx + 1 < chunks_.size() &&
      self + chunks_[idx + 1]->size <= kChunkCapacity) {
    merge_into(idx, idx + 1);
  } else if (idx > 0 && chunks_[idx - 1]->size + self <= kChunkCapacity) {
    merge_into(idx - 1, idx);
  }
}

RankedList::Handle RankedList::Insert(ElementId id, double score) {
  // A NaN key would violate Key's strict weak ordering and silently corrupt
  // chunk order; reject it at the boundary instead.
  KSIR_CHECK(!std::isnan(score));
  Chunk* chunk = InsertKey(Key{score, id});
  return Handle{chunk->slot, chunk->gen};
}

RankedList::Chunk* RankedList::MoveAt(Chunk* chunk, std::uint32_t offset,
                                      const Key& new_key) {
  const std::size_t idx = chunk->pos;
  // The new key stays in this chunk iff it sorts at or before the chunk's
  // last key and at or after the previous chunk's last key (with the old
  // key still counted as present, which only widens the chunk's span).
  const bool within =
      !(chunk->keys[chunk->size - 1] < new_key) &&
      (idx == 0 || chunk_last_[idx - 1] < new_key);
  if (!within) {
    EraseKeyAt(chunk, offset);
    return InsertKey(new_key);
  }
  Key* const first = chunk->keys.data();
  Key* const old_pos = first + offset;
  Key* const new_pos = std::lower_bound(first, first + chunk->size, new_key);
  if (new_pos == old_pos || new_pos == old_pos + 1) {
    *old_pos = new_key;  // neighbors unchanged: overwrite in place
  } else if (new_pos < old_pos) {
    std::copy_backward(new_pos, old_pos, old_pos + 1);
    *new_pos = new_key;
  } else {
    std::copy(old_pos + 1, new_pos, old_pos);
    *(new_pos - 1) = new_key;
  }
  chunk_last_[idx] = chunk->keys[chunk->size - 1];
  return chunk;
}

void RankedList::UpdateHandle(const HandleUpdate& u) {
  KSIR_CHECK(!std::isnan(u.score));
  std::uint32_t offset = 0;
  Chunk* chunk = Locate(u.id, u.old_score, *u.handle, &offset);
  if (chunk->keys[offset].score == u.score) {
    *u.handle = Handle{chunk->slot, chunk->gen};
    return;
  }
  Chunk* dest = MoveAt(chunk, offset, Key{u.score, u.id});
  *u.handle = Handle{dest->slot, dest->gen};
}

void RankedList::EraseHandle(ElementId id, double score, Handle handle) {
  std::uint32_t offset = 0;
  Chunk* chunk = Locate(id, score, handle, &offset);
  EraseKeyAt(chunk, offset);
}

const RankedList::Key* RankedList::FindKeyOfId(ElementId id) const {
  for (const auto& chunk : chunks_) {
    const Key* const first = chunk->keys.data();
    const Key* const last = first + chunk->size;
    const Key* const key = std::find_if(
        first, last, [id](const Key& k) { return k.id == id; });
    if (key != last) return key;
  }
  return nullptr;
}

bool RankedList::Contains(ElementId id) const {
  return FindKeyOfId(id) != nullptr;
}

double RankedList::Get(ElementId id) const {
  const Key* key = FindKeyOfId(id);
  KSIR_CHECK(key != nullptr);
  return key->score;
}

std::size_t RankedList::DrainTop(const_iterator* pos, Key* out,
                                 std::size_t n) const {
  KSIR_DCHECK(pos->chunks_ == &chunks_);
  std::size_t copied = 0;
  while (copied < n && pos->chunk_ < chunks_.size()) {
    const Chunk* chunk = chunks_[pos->chunk_].get();
    const auto avail = static_cast<std::size_t>(chunk->size - pos->offset_);
    const std::size_t take = std::min(avail, n - copied);
    const Key* const from = chunk->keys.data() + pos->offset_;
    std::copy(from, from + take, out + copied);
    copied += take;
    pos->offset_ += static_cast<std::uint32_t>(take);
    if (pos->offset_ == chunk->size) {
      ++pos->chunk_;
      pos->offset_ = 0;
    }
  }
  return copied;
}

RankedList::HandleState RankedList::ProbeHandle(Handle handle, ElementId id,
                                                double score) const {
  const Chunk* chunk = ResolveHandle(handle);
  if (chunk == nullptr) return HandleState::kStale;
  const Key key{score, id};
  const Key* const first = chunk->keys.data();
  const Key* const last = first + chunk->size;
  const Key* const pos = std::lower_bound(first, last, key);
  return pos < last && *pos == key ? HandleState::kValid : HandleState::kStale;
}

RankedListIndex::RankedListIndex(std::size_t num_topics)
    : lists_(num_topics) {
  KSIR_CHECK(num_topics > 0);
}

void RankedListIndex::Insert(
    ElementId id, const std::vector<std::pair<TopicId, double>>& topic_scores,
    Timestamp te, RankedList::Handle* handles_out) {
  const auto [it, inserted] = membership_.try_emplace(id);
  KSIR_CHECK(inserted);
  Membership& member = it->second;
  member.te = te;
  member.topics.reserve(topic_scores.size());
  std::size_t i = 0;
  for (const auto& [topic, score] : topic_scores) {
    KSIR_CHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
    const RankedList::Handle handle =
        lists_[static_cast<std::size_t>(topic)].Insert(id, score);
    if (handles_out != nullptr) handles_out[i] = handle;
    member.topics.push_back(topic);
    ++total_entries_;
    ++i;
  }
}

void RankedListIndex::InsertMembership(ElementId id, const TopicId* topics,
                                       std::size_t n, Timestamp te) {
  const auto [it, inserted] = membership_.try_emplace(id);
  KSIR_CHECK(inserted);
  Membership& member = it->second;
  member.te = te;
  member.topics.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TopicId topic = topics[i];
    KSIR_CHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
    member.topics.push_back(topic);
  }
  total_entries_ += n;
}

RankedList::Handle RankedListIndex::InsertListEntry(TopicId topic,
                                                    ElementId id,
                                                    double score) {
  KSIR_DCHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
  return lists_[static_cast<std::size_t>(topic)].Insert(id, score);
}

void RankedListIndex::TouchTime(ElementId id, Timestamp te) {
  const auto it = membership_.find(id);
  KSIR_CHECK(it != membership_.end());
  it->second.te = te;
}

Timestamp RankedListIndex::TimeOf(ElementId id) const {
  const auto it = membership_.find(id);
  KSIR_CHECK(it != membership_.end());
  return it->second.te;
}

void RankedListIndex::RepositionHandles(
    TopicId topic, const RankedList::HandleUpdate* updates, std::size_t n) {
  KSIR_CHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
  RankedList& list = lists_[static_cast<std::size_t>(topic)];
  for (std::size_t i = 0; i < n; ++i) {
    KSIR_DCHECK(membership_.contains(updates[i].id));
    list.UpdateHandle(updates[i]);
  }
}

void RankedListIndex::EraseMembership(ElementId id,
                                      [[maybe_unused]] const TopicId* topics,
                                      std::size_t n) {
  const auto it = membership_.find(id);
  KSIR_CHECK(it != membership_.end());
  KSIR_CHECK(it->second.topics.size() == n);
  for (std::size_t i = 0; i < n; ++i) {
    KSIR_DCHECK(it->second.topics[i] == topics[i]);
  }
  total_entries_ -= n;
  membership_.erase(it);
}

void RankedListIndex::EraseListEntry(TopicId topic, ElementId id,
                                     double score,
                                     RankedList::Handle handle) {
  KSIR_DCHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
  lists_[static_cast<std::size_t>(topic)].EraseHandle(id, score, handle);
}

const RankedList& RankedListIndex::list(TopicId topic) const {
  KSIR_CHECK(topic >= 0 && static_cast<std::size_t>(topic) < lists_.size());
  return lists_[static_cast<std::size_t>(topic)];
}

}  // namespace ksir
