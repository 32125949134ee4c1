#include "window/active_window.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/flat_hash_map.h"

namespace ksir {

const ReferrerList ActiveWindow::kNoReferrers = {};

ActiveWindow::ActiveWindow(Timestamp window_length,
                           Timestamp archive_retention)
    : window_length_(window_length),
      archive_retention_(archive_retention > 0 ? archive_retention
                                               : window_length) {
  KSIR_CHECK(window_length > 0);
}

ActiveWindow::~ActiveWindow() {
  for (auto& [id, entry] : entries_) pool_.Destroy(entry);
}

void ActiveWindow::TouchStash(Entry* entry) {
  if (entry->stash_stamp != advance_epoch_) {
    entry->stash_stamp = advance_epoch_;
    entry->gained_stash.clear();
    entry->lost_stash.clear();
  }
}

ActiveWindow::Touched ActiveWindow::MakeTouched(ElementId id, Entry* entry,
                                                bool with_edges) const {
  Touched touched;
  touched.id = id;
  touched.element = &entry->element;
  touched.te = std::max(entry->element.ts, entry->last_ref_time);
  if (with_edges && entry->stash_stamp == advance_epoch_) {
    touched.gained_topics = entry->gained_stash.begin();
    touched.num_gained =
        static_cast<std::uint32_t>(entry->gained_stash.size());
    touched.lost_topics = entry->lost_stash.begin();
    touched.num_lost = static_cast<std::uint32_t>(entry->lost_stash.size());
  }
  touched.user_slot = &entry->user_data;
  return touched;
}

StatusOr<ActiveWindow::UpdateResult> ActiveWindow::Advance(
    Timestamp now, std::vector<SocialElement> bucket) {
  if (now < now_) {
    return Status::InvalidArgument("time must not move backwards");
  }
  UpdateResult result;
  ++advance_epoch_;
  // Deduplicated via the Entry stamps; may still contain ids that are later
  // reclassified (inserted / resurrected / expired), filtered at the end.
  // All scratch lives in members (capacity retained across buckets). The
  // scratch lists carry the entry pointer alongside the id so the report
  // can be assembled without re-probing the id table.
  std::vector<std::pair<ElementId, Entry*>>& inserted_list = inserted_scratch_;
  std::vector<std::pair<ElementId, Entry*>>& gained_list = gained_scratch_;
  std::vector<std::pair<ElementId, Entry*>>& lost_list = lost_scratch_;
  FlatHashSet<ElementId>& resurrected = resurrected_scratch_;
  inserted_list.clear();
  gained_list.clear();
  lost_list.clear();
  resurrected.clear();

  // --- Phase 1: insert the bucket and register its references. ---
  Timestamp prev_ts = now_;
  for (SocialElement& e : bucket) {
    if (e.ts <= now_) {
      return Status::InvalidArgument(
          "element ts " + std::to_string(e.ts) +
          " is not newer than the previous window time " +
          std::to_string(now_));
    }
    if (e.ts > now) {
      return Status::InvalidArgument("element ts beyond bucket end time");
    }
    if (e.ts < prev_ts) {
      return Status::InvalidArgument("bucket must be sorted by ts");
    }
    prev_ts = e.ts;
    if (entries_.contains(e.id)) {
      return Status::AlreadyExists("duplicate element id " +
                                   std::to_string(e.id));
    }
    const ElementId id = e.id;
    const Timestamp ts = e.ts;
    // Normalize the reference list: duplicate targets would double-count
    // influence edges (Eq. 4 is defined over the *set* e.ref), and a
    // self-reference is meaningless.
    std::sort(e.refs.begin(), e.refs.end());
    e.refs.erase(std::unique(e.refs.begin(), e.refs.end()), e.refs.end());
    std::erase(e.refs, id);
    // The entry is created BEFORE its references are registered so each
    // gained edge can stash a pointer to the (pool-stable) stored topic
    // vector of its referrer.
    Entry* entry =
        pool_.Create(Entry{std::move(e), {}, ts, true, kMinTimestamp});
    entries_.emplace(id, entry);
    ++num_active_;
    window_order_.push_back(id);
    inserted_list.emplace_back(id, entry);
    // Register references; archived targets are resurrected.
    for (ElementId target : entry->element.refs) {
      auto it = entries_.find(target);
      if (it == entries_.end()) {
        ++result.dangling_refs;
        continue;
      }
      Entry& target_entry = *it->second;
      target_entry.referrers.push_back(Referrer{id, ts});
      target_entry.last_ref_time = ts;
      entry->ref_targets.push_back(&target_entry);
      if (target_entry.active) {
        TouchStash(&target_entry);
        target_entry.gained_stash.push_back(&entry->element.topics);
        if (target_entry.gained_stamp != advance_epoch_) {
          target_entry.gained_stamp = advance_epoch_;
          gained_list.emplace_back(target, &target_entry);
        }
      } else {
        target_entry.active = true;
        target_entry.deactivated_at = kMinTimestamp;
        ++num_active_;
        resurrected.insert(target);
      }
    }
  }
  now_ = now;

  // --- Phase 2: expiry. Elements whose ts left W_t stop being referrers;
  // then every element that is out of window and referrer-free leaves A_t.
  // Lost edges are registered from the LEAVER side — the leaver's entry
  // (and topic vector) is already in hand, so the edge stash costs no
  // extra lookup, and each leaver removes exactly its OWN record from the
  // target's expired prefix (one erase per lost edge; a mass expiry of k
  // referrers of one hub costs k prefix erases rather than one wholesale
  // drop — the price of attributing every lost edge to its topic vector).
  const Timestamp cutoff = now_ - window_length_;  // in window iff ts > cutoff
  std::vector<std::pair<ElementId, Entry*>>& leavers = leavers_;
  leavers.clear();
  while (!window_order_.empty()) {
    const ElementId id = window_order_.front();
    const auto it = entries_.find(id);
    KSIR_CHECK(it != entries_.end());
    if (it->second->element.ts > cutoff) break;
    window_order_.pop_front();
    leavers.emplace_back(id, it->second);
  }
  for (const auto& [id, leaver] : leavers) {
    // The leaver no longer influences its reference targets, whose entries
    // were resolved once at insertion (dangling references left neither a
    // pointer nor a record). The leaver's record is guaranteed present —
    // its existence is what kept the target active — and sits in the
    // target's expired prefix (records are ts-ordered and the leaver's ts
    // is <= cutoff). Each expired record is removed by exactly the leaver
    // that owns it, so the prefix drains completely by the end of the
    // loop.
    for (Entry* target_entry : leaver->ref_targets) {
      KSIR_DCHECK(target_entry->active);
      auto& referrers = target_entry->referrers;
      // The leaver's record sits in the ts-expired prefix.
      const auto pos =
          std::find_if(referrers.begin(), referrers.end(),
                       [id](const Referrer& r) { return r.id == id; });
      KSIR_DCHECK(pos != referrers.end() && pos->ts <= cutoff);
      referrers.erase(pos);
      TouchStash(target_entry);
      target_entry->lost_stash.push_back(&leaver->element.topics);
      if (target_entry->lost_stamp != advance_epoch_) {
        target_entry->lost_stamp = advance_epoch_;
        lost_list.emplace_back(target_entry->element.id, target_entry);
      }
    }
  }
  for (const auto& [id, entry] : leavers) {
    MaybeDeactivate(id, entry, &result);
  }
  for (const auto& [id, entry] : lost_list) {
    MaybeDeactivate(id, entry, &result);
  }

  // --- Phase 3: garbage-collect the archive. Entries touched by THIS call
  // deactivated at `now_`, so none of the stashed or reported pointers can
  // be collected here (retention is always positive).
  while (!archive_queue_.empty() &&
         archive_queue_.front().second + archive_retention_ <= now_) {
    const auto [id, deactivated_at] = archive_queue_.front();
    archive_queue_.pop_front();
    const auto it = entries_.find(id);
    if (it == entries_.end()) continue;
    // Skip stale queue entries of elements that were resurrected (and
    // possibly re-deactivated, which re-enqueued them).
    if (it->second->active || it->second->deactivated_at != deactivated_at) {
      continue;
    }
    pool_.Destroy(it->second);
    entries_.erase(it);
  }

  FlatHashSet<ElementId>& inserted_set = inserted_set_;
  inserted_set.clear();
  inserted_set.reserve(inserted_list.size());
  for (const auto& [id, entry] : inserted_list) inserted_set.insert(id);
  FlatHashSet<ElementId>& expired_set = expired_set_;
  expired_set.clear();
  expired_set.reserve(result.expired.size());
  for (const Touched& t : result.expired) expired_set.insert(t.id);
  // Keep the report lists disjoint. An element that entered (or re-entered)
  // A_t and left it within this same call was never visible to the index
  // maintainer, so it must appear in NEITHER inserted/resurrected NOR
  // expired — a far time jump can expire a bucket's own elements.
  FlatHashSet<ElementId>& drop_from_expired = drop_from_expired_;
  drop_from_expired.clear();
  for (const Touched& t : result.expired) {
    if (resurrected.erase(t.id) > 0 || inserted_set.contains(t.id)) {
      drop_from_expired.insert(t.id);
    }
  }
  if (!drop_from_expired.empty()) {
    std::erase_if(result.expired, [&](const Touched& t) {
      return drop_from_expired.contains(t.id);
    });
  }
  for (const auto& [id, entry] : inserted_list) {
    if (expired_set.contains(id)) continue;  // same-call insert + expire
    result.inserted.push_back(MakeTouched(id, entry, /*with_edges=*/false));
  }
  for (ElementId id : resurrected) {
    const auto it = entries_.find(id);
    KSIR_CHECK(it != entries_.end());
    result.resurrected.push_back(
        MakeTouched(id, it->second, /*with_edges=*/false));
  }
  for (const auto& [id, entry] : gained_list) {
    if (inserted_set.contains(id) || resurrected.contains(id) ||
        expired_set.contains(id)) {
      continue;
    }
    result.gained_referrer.push_back(MakeTouched(id, entry,
                                                 /*with_edges=*/true));
  }
  for (const auto& [id, entry] : lost_list) {
    if (inserted_set.contains(id) || resurrected.contains(id) ||
        expired_set.contains(id)) {
      continue;
    }
    if (entry->gained_stamp == advance_epoch_) {
      continue;  // a net gain already triggers a reposition
    }
    result.lost_referrer.push_back(MakeTouched(id, entry,
                                               /*with_edges=*/true));
  }
  const auto by_id = [](const Touched& a, const Touched& b) {
    return a.id < b.id;
  };
  std::sort(result.resurrected.begin(), result.resurrected.end(), by_id);
  std::sort(result.gained_referrer.begin(), result.gained_referrer.end(),
            by_id);
  std::sort(result.lost_referrer.begin(), result.lost_referrer.end(), by_id);
  std::sort(result.expired.begin(), result.expired.end(), by_id);
  return result;
}

void ActiveWindow::MaybeDeactivate(ElementId id, Entry* entry_ptr,
                                   UpdateResult* result) {
  Entry& entry = *entry_ptr;
  if (!entry.active) return;
  if (entry.element.ts > now_ - window_length_) return;  // still in W_t
  if (!entry.referrers.empty()) return;                  // still referenced
  entry.active = false;
  entry.deactivated_at = now_;
  --num_active_;
  archive_queue_.emplace_back(id, now_);
  result->expired.push_back(MakeTouched(id, entry_ptr, /*with_edges=*/false));
}

const SocialElement* ActiveWindow::Find(ElementId id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end() || !it->second->active) return nullptr;
  return &it->second->element;
}

ActiveWindow::ActiveView ActiveWindow::ViewOf(const Entry* entry) {
  if (entry == nullptr || !entry->active) return {};
  return ActiveView{&entry->element, &entry->referrers, entry->user_data};
}

ActiveWindow::ActiveView ActiveWindow::FindActive(ElementId id) const {
  const auto it = entries_.find(id);
  return ViewOf(it == entries_.end() ? nullptr : it->second);
}

void ActiveWindow::FindActiveBatch(const ElementId* ids, std::size_t n,
                                   ActiveView* out) const {
  // Blocks bound the stack scratch and keep the prefetched lines resident
  // until they are read.
  constexpr std::size_t kBlock = 32;
  const Entry* found[kBlock] = {};
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = std::min(kBlock, n - base);
    const ElementId* block = ids + base;
    for (std::size_t i = 0; i < m; ++i) entries_.Prefetch(block[i]);
    for (std::size_t i = 0; i < m; ++i) {
      const auto it = entries_.find(block[i]);
      found[i] = it == entries_.end() ? nullptr : it->second;
      if (found[i] != nullptr) {
        // The view reads `active` and `user_data`, which sit on
        // different cache lines of the Entry.
        __builtin_prefetch(&found[i]->active);
        __builtin_prefetch(&found[i]->user_data);
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      out[base + i] = ViewOf(found[i]);
      if (out[base + i].user_slot != nullptr) {
        __builtin_prefetch(out[base + i].user_slot);
      }
    }
  }
}

bool ActiveWindow::IsActive(ElementId id) const {
  const auto it = entries_.find(id);
  return it != entries_.end() && it->second->active;
}

bool ActiveWindow::IsInWindow(ElementId id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end() || !it->second->active) return false;
  return it->second->element.ts > now_ - window_length_;
}

bool ActiveWindow::IsArchived(ElementId id) const {
  const auto it = entries_.find(id);
  return it != entries_.end() && !it->second->active;
}

const ReferrerList& ActiveWindow::ReferrersOf(ElementId id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end() || !it->second->active) return kNoReferrers;
  return it->second->referrers;
}

Timestamp ActiveWindow::LastReferredAt(ElementId id) const {
  const auto it = entries_.find(id);
  KSIR_CHECK(it != entries_.end() && it->second->active);
  return std::max(it->second->element.ts, it->second->last_ref_time);
}

void ActiveWindow::ForEachActive(
    const std::function<void(const SocialElement&)>& fn) const {
  for (const auto& [id, entry] : entries_) {
    if (entry->active) fn(entry->element);
  }
}

std::vector<ElementId> ActiveWindow::ActiveIds() const {
  std::vector<ElementId> ids;
  ids.reserve(num_active_);
  for (const auto& [id, entry] : entries_) {
    if (entry->active) ids.push_back(id);
  }
  return ids;
}

}  // namespace ksir
