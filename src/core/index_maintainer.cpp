#include "core/index_maintainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/check.h"
#include "runtime/worker_pool.h"

namespace ksir {

IndexMaintainer::IndexMaintainer(const ScoringContext* ctx,
                                 RankedListIndex* index, RefreshMode mode,
                                 ScoreMaintenance maintenance,
                                 bool carry_handles, WorkerPool* pool,
                                 std::size_t parallel_workers,
                                 Telemetry* telemetry)
    : ctx_(ctx),
      index_(index),
      mode_(mode),
      maintenance_(maintenance),
      use_handles_(carry_handles),
      owned_telemetry_(telemetry == nullptr ? std::make_unique<Telemetry>()
                                            : nullptr),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()),
      cache_(ctx) {
  KSIR_CHECK(ctx != nullptr);
  KSIR_CHECK(index != nullptr);
  MetricRegistry& reg = telemetry_->registry();
  stage_expiry_hist_ = reg.GetHistogram(
      "ksir_maintainer_stage_expiry_seconds",
      "Bucket-apply stage: expiry erases");
  stage_insert_hist_ = reg.GetHistogram(
      "ksir_maintainer_stage_insert_seconds",
      "Bucket-apply stage: cache-row, membership and arena layout of the "
      "bucket's touched elements");
  stage_score_hist_ = reg.GetHistogram(
      "ksir_maintainer_stage_score_seconds",
      "Bucket-apply stage: fresh scoring, edge folding, score composition");
  stage_gather_hist_ = reg.GetHistogram(
      "ksir_maintainer_stage_gather_seconds",
      "Bucket-apply stage: deterministic gather into per-topic runs");
  stage_list_apply_hist_ = reg.GetHistogram(
      "ksir_maintainer_stage_list_apply_seconds",
      "Bucket-apply stage: ranked-list inserts and reposition runs");
  bucket_apply_hist_ = reg.GetHistogram(
      "ksir_maintainer_bucket_apply_seconds",
      "Whole IndexMaintainer::Apply of one bucket");
  expired_counter_ = reg.GetCounter("ksir_maintainer_expired_total",
                                    "Elements erased on expiry");
  fresh_counter_ = reg.GetCounter(
      "ksir_maintainer_fresh_total",
      "Elements inserted fresh or resurrected into the ranked lists");
  touched_counter_ = reg.GetCounter(
      "ksir_maintainer_elements_touched_total",
      "Elements that gained or lost a referrer within a bucket");
  repositions_counter_ = reg.GetCounter(
      "ksir_maintainer_repositions_total",
      "Ranked-list reposition tuples actually applied");
  elisions_counter_ = reg.GetCounter(
      "ksir_maintainer_elisions_total",
      "Reposition tuples elided because the composed score equals the "
      "listed score");
  const std::size_t num_topics = index->num_topics();
  topic_counts_.resize(num_topics, 0);
  insert_counts_.resize(num_topics, 0);
  summary_movement_.resize(num_topics, 0.0);
  summary_seen_.resize(num_topics, 0);
  erase_seen_.resize(num_topics, 0);
  topic_shard_.resize(num_topics, 0);
  // The per-topic runs carry every position and listed key, so the
  // sharded stages need no shared lookups at all. One participant (no pool,
  // or fewer than two workers) runs every stage inline on the caller.
  if (pool != nullptr && parallel_workers >= 2) {
    pool_ = pool;
    workers_ = parallel_workers;
  }
  worker_acc_.resize(workers_);
  for (StampedAccumulator& acc : worker_acc_) acc.Resize(num_topics);
}

double IndexMaintainer::SourceScore(
    const SocialElement& e, const ScoreCache::TopicHalves& half) const {
  if (maintenance_ == ScoreMaintenance::kRecompute) {
    return ctx_->TopicScore(half.topic, e, half.topic_prob);
  }
  return ctx_->params().lambda * half.semantic +
         ctx_->influence_factor() * half.influence;
}

void IndexMaintainer::ScoreFresh(const SocialElement& e,
                                 ScoreCache::TopicList* halves) const {
  if (maintenance_ != ScoreMaintenance::kRecompute) return;
  for (ScoreCache::TopicHalves& half : *halves) {
    half.listed = SourceScore(e, half);
  }
}

void IndexMaintainer::TouchSummary(TopicId topic, double movement) {
  const auto slot = static_cast<std::size_t>(topic);
  if (summary_seen_[slot] == 0) {
    summary_seen_[slot] = 1;
    summary_topics_.push_back(topic);
  }
  if (movement > summary_movement_[slot]) summary_movement_[slot] = movement;
}

void IndexMaintainer::MaterializeSummary() {
  summary_.topics.clear();
  std::sort(summary_topics_.begin(), summary_topics_.end());
  summary_.topics.reserve(summary_topics_.size());
  for (const TopicId topic : summary_topics_) {
    const auto slot = static_cast<std::size_t>(topic);
    summary_.topics.push_back(AdvanceSummary::TopicTouch{
        topic, summary_movement_[slot]});
    summary_movement_[slot] = 0.0;
    summary_seen_[slot] = 0;
  }
  summary_topics_.clear();
}

void IndexMaintainer::FoldEdges(const ActiveWindow::Touched& t,
                                ScoreCache::TopicList* halves,
                                StampedAccumulator* acc) {
  // Scatter all of this element's edge deltas into a dense per-topic
  // accumulator (epoch-stamped, never cleared), then fold them into the
  // cached influence halves in one pass over the element's support —
  // O(sum of referrer supports + own support) instead of one sorted
  // merge per edge.
  acc->Begin();
  for (std::uint32_t i = 0; i < t.num_gained; ++i) {
    const auto& entries = t.gained_topics[i]->entries();
    acc->AddEntries(entries.data(), entries.size());
  }
  for (std::uint32_t i = 0; i < t.num_lost; ++i) {
    // Lost edges subtract; the bulk scatter adds entry values as-is, so
    // the negated fold stays on the per-entry path.
    for (const auto& [topic, prob] : t.lost_topics[i]->entries()) {
      acc->Add(static_cast<std::size_t>(topic), -prob);
    }
  }
  for (ScoreCache::TopicHalves& half : *halves) {
    const auto slot = static_cast<std::size_t>(half.topic);
    if (acc->Touched(slot)) {
      half.influence += half.topic_prob * acc->Get(slot);
    }
  }
}

void IndexMaintainer::ProcessTouched(TouchedItem* item,
                                     StampedAccumulator* acc) {
  // Everything this element's bucket work needs — edge topic vectors, t_e,
  // and (through the carried user slot) the cache entry with its listed
  // scores and list positions — arrived in the Touched record. The edge
  // spans are folded right before the scores are composed, so the cached
  // influence halves stay exact in *both* refresh modes (under kPaper the
  // lists may stay stale-high, but the cache always holds the true
  // I_{i,t}(e), so the next reposition lands exactly where a full
  // recompute would). Elements do not interact, so the composed doubles do
  // not depend on which participant claims the item.
  const ActiveWindow::Touched& t = *item->touched;
  ScoreCache::TopicList& halves = *item->halves;
  if (t.num_gained + t.num_lost > 0) FoldEdges(t, &halves, acc);
  if (!item->reposition) {
    // kPaper referrer loss: no list writes, but the true scores moved
    // wherever the lost referrers' supports overlapped this element's, and
    // subscriptions keyed on those topics must see the touch. The summary
    // touches are parked in the item's update buffer (topic + movement in
    // `score`; no handle) for the serial gather to fold — TouchSummary
    // state is single-threaded.
    std::uint32_t n = 0;
    if (t.num_gained + t.num_lost > 0) {
      const double factor = ctx_->influence_factor();
      for (const ScoreCache::TopicHalves& half : halves) {
        const auto slot = static_cast<std::size_t>(half.topic);
        if (acc->Touched(slot)) {
          item->updates[n++] = PendingHandle{
              half.topic,
              RankedList::HandleUpdate{
                  t.id, 0.0,
                  std::abs(factor * half.topic_prob * acc->Get(slot)),
                  nullptr}};
        }
      }
    }
    item->num_updates = n;
    return;
  }
  // The per-topic runs carry only score changes: a gained referrer sharing
  // none of a topic's support leaves that topic's list untouched.
  std::uint32_t n = 0;
  for (ScoreCache::TopicHalves& half : halves) {
    const double score = SourceScore(*t.element, half);
    if (score == half.listed) continue;
    item->updates[n++] = PendingHandle{
        half.topic,
        RankedList::HandleUpdate{t.id, half.listed, score, HintOf(&half)}};
    half.listed = score;
  }
  item->num_updates = n;
}

void IndexMaintainer::Apply(const ActiveWindow::UpdateResult& update) {
  // One bucket apply is one trace unit: every sample_period-th bucket gets
  // its stage spans recorded.
  telemetry_->tracer().SampleUnit();
  bucket_repositions_ = 0;
  bucket_elisions_ = 0;
  {
    StageScope bucket_scope(telemetry_, bucket_apply_hist_,
                            "maint.bucket_apply");
    {
      StageScope scope(telemetry_, stage_expiry_hist_, "maint.expiry");
      // Stage 1: topic-sharded expiry. Expired ids are no longer in the
      // window store, but the cache entry (reached through the carried
      // user slot) knows every list position and listed key of the dying
      // element. A serial prologue walks the expired elements in order —
      // summary touches, membership and cache erases are single-threaded
      // state — copying each carried hint OUT of the dying cache entry
      // (cache_.Erase frees the pool row the halves live in). The per-list
      // erases then fan out, each touched topic owned by one shard; a
      // shard replays its lists' erases in element order.
      erase_items_.clear();
      erase_topics_.clear();
      for (const ActiveWindow::Touched& t : update.expired) {
        // Every indexed element owns a cache entry for its whole lifetime,
        // so a missing entry here is a pipeline bug, not a recoverable
        // state.
        ScoreCache::TopicList* halves = ScoreCache::FromSlot(*t.user_slot);
        KSIR_CHECK(halves != nullptr);
        KSIR_DCHECK(halves == cache_.Find(t.id));
        topic_id_scratch_.clear();
        for (ScoreCache::TopicHalves& half : *halves) {
          TouchSummary(half.topic, std::abs(half.listed));
          erase_items_.push_back(
              PendingErase{half.topic, t.id, half.listed, *HintOf(&half)});
          topic_id_scratch_.push_back(half.topic);
          const auto slot = static_cast<std::size_t>(half.topic);
          if (erase_seen_[slot] == 0) {
            erase_seen_[slot] = 1;
            erase_topics_.push_back(half.topic);
          }
        }
        index_->EraseMembership(t.id, topic_id_scratch_.data(),
                                topic_id_scratch_.size());
        cache_.Erase(t.id);
        // The archived window entry outlives the pool row; a stray read of
        // its slot must hit the query path's null check, not freed memory.
        *t.user_slot = nullptr;
      }
      if (!erase_topics_.empty()) {
        const std::size_t shards = std::min(workers_, erase_topics_.size());
        for (std::size_t i = 0; i < erase_topics_.size(); ++i) {
          const auto slot = static_cast<std::size_t>(erase_topics_[i]);
          erase_seen_[slot] = 0;  // restored for the next bucket
          topic_shard_[slot] = static_cast<std::uint32_t>(i % shards);
        }
        ParallelRun(pool_, shards, [&](std::size_t shard) {
          // Each shard scans the full item sequence and executes only its
          // topics' erases: per-list element order is preserved by
          // construction, and the shards-many passes over the packed item
          // vector are cheap next to the chunk memmoves they feed.
          for (const PendingErase& e : erase_items_) {
            if (topic_shard_[static_cast<std::size_t>(e.topic)] != shard) {
              continue;
            }
            index_->EraseListEntry(e.topic, e.id, e.score, e.handle);
          }
        });
      }
    }
    {
      StageScope scope(telemetry_, stage_insert_hist_, "maint.insert");
      // Stage 2 (serial): lay out the bucket's work. Fresh elements get
      // their cache entry rows and membership record (hash maps and pools
      // are single-threaded state); gained/lost elements get an arena
      // buffer sized for their full support. No scores are computed yet.
      run_arena_.Reset();
      fresh_items_.clear();
      touched_items_.clear();
      for (const std::vector<ActiveWindow::Touched>* list :
           {&update.inserted, &update.resurrected}) {
        for (const ActiveWindow::Touched& t : *list) {
          ScoreCache::TopicList& halves = cache_.AllocateEntry(*t.element);
          *t.user_slot = &halves;  // carried to every later touch
          topic_id_scratch_.clear();
          for (const ScoreCache::TopicHalves& half : halves) {
            topic_id_scratch_.push_back(half.topic);
          }
          index_->InsertMembership(t.id, topic_id_scratch_.data(),
                                   topic_id_scratch_.size(), t.te);
          fresh_items_.push_back(FreshItem{t.element, &halves});
        }
      }
      const auto add_touched = [this](const ActiveWindow::Touched& t,
                                      bool reposition, bool te_changed) {
        ScoreCache::TopicList* halves = ScoreCache::FromSlot(*t.user_slot);
        KSIR_DCHECK(halves == cache_.Find(t.id));
        TouchedItem item;
        item.touched = &t;
        item.halves = halves;
        // Reposition items buffer their changed tuples here; kPaper loss
        // items (reposition off) reuse the buffer for their summary
        // touches.
        item.updates = run_arena_.AllocateArray<PendingHandle>(halves->size());
        item.num_updates = 0;
        item.reposition = reposition;
        item.te_changed = te_changed;
        touched_items_.push_back(item);
      };
      for (const ActiveWindow::Touched& t : update.gained_referrer) {
        add_touched(t, /*reposition=*/true, /*te_changed=*/true);
      }
      // A lost referral never moves t_e (it is a running max). Under kExact
      // the element is repositioned (topics the expired referrer did not
      // share are elided); under kPaper only the cache absorbs the loss.
      const bool reposition_losses = mode_ == RefreshMode::kExact;
      for (const ActiveWindow::Touched& t : update.lost_referrer) {
        add_touched(t, reposition_losses, /*te_changed=*/false);
      }
    }

    const std::size_t num_fresh = fresh_items_.size();
    {
      StageScope scope(telemetry_, stage_score_hist_, "maint.score");
      // Stage 3 (element-sharded): fresh-element scoring (the one full
      // word scan of the element's lifetime; the window's referrer sets
      // already reflect this bucket, so fresh elements carry no edge
      // spans), edge folding and score composition. Elements are disjoint
      // — each one owns its cache rows — and each participant folds
      // through its own dense accumulator, so the stage shares nothing
      // mutable and allocates nothing.
      const std::size_t total = num_fresh + touched_items_.size();
      if (total > 0) {
        std::atomic<std::size_t> cursor{0};
        ParallelRun(pool_, std::min(workers_, total), [&](std::size_t p) {
          StampedAccumulator& acc = worker_acc_[p];
          for (;;) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= total) return;
            if (i < num_fresh) {
              const FreshItem& item = fresh_items_[i];
              cache_.ComputeHalves(*item.element, item.halves, &acc);
              ScoreFresh(*item.element, item.halves);
            } else {
              ProcessTouched(&touched_items_[i - num_fresh], &acc);
            }
          }
        });
      }
    }

    PendingInsert* insert_runs = nullptr;
    RankedList::HandleUpdate* update_runs = nullptr;
    std::uint32_t* insert_off = nullptr;
    std::uint32_t* update_off = nullptr;
    {
      StageScope scope(telemetry_, stage_gather_hist_, "maint.gather");
      // Stage 4: deterministic gather. t_e lands first (one membership
      // write per gained element), then the per-element outputs are
      // scattered into per-topic runs in element order — fresh inserts in
      // element order, repositions in (element, support) order. Topic
      // order is sorted only for determinism of the arena layout and the
      // topic -> shard map; the runs are independent.
      std::size_t total_inserts = 0;
      std::size_t total_updates = 0;
      for (const FreshItem& item : fresh_items_) {
        for (const ScoreCache::TopicHalves& half : *item.halves) {
          const auto topic = static_cast<std::size_t>(half.topic);
          if (insert_counts_[topic]++ == 0 && topic_counts_[topic] == 0) {
            touched_.push_back(half.topic);
          }
          TouchSummary(half.topic, std::abs(half.listed));
          ++total_inserts;
        }
      }
      for (const TouchedItem& item : touched_items_) {
        if (!item.reposition) {
          // kPaper loss items carry summary touches, not repositions; fold
          // them here and keep them out of the per-topic runs.
          for (std::uint32_t i = 0; i < item.num_updates; ++i) {
            TouchSummary(item.updates[i].topic, item.updates[i].payload.score);
          }
          continue;
        }
        if (item.te_changed) {
          index_->TouchTime(item.touched->id, item.touched->te);
        }
        // num_updates tuples moved, the rest of the support was elided.
        bucket_repositions_ += item.num_updates;
        bucket_elisions_ += item.halves->size() - item.num_updates;
        for (std::uint32_t i = 0; i < item.num_updates; ++i) {
          const auto topic = static_cast<std::size_t>(item.updates[i].topic);
          if (topic_counts_[topic]++ == 0 && insert_counts_[topic] == 0) {
            touched_.push_back(item.updates[i].topic);
          }
          TouchSummary(item.updates[i].topic,
                       std::abs(item.updates[i].payload.score -
                                item.updates[i].payload.old_score));
          ++total_updates;
        }
      }
      // A bucket without list work skips the scatter, never the stage
      // scopes: every stage records once per bucket.
      if (!touched_.empty()) {
        std::sort(touched_.begin(), touched_.end());
        insert_runs = run_arena_.AllocateArray<PendingInsert>(total_inserts);
        update_runs =
            run_arena_.AllocateArray<RankedList::HandleUpdate>(total_updates);
        insert_off =
            run_arena_.AllocateArray<std::uint32_t>(touched_.size() + 1);
        update_off =
            run_arena_.AllocateArray<std::uint32_t>(touched_.size() + 1);
        std::uint32_t ins = 0;
        std::uint32_t upd = 0;
        for (std::size_t i = 0; i < touched_.size(); ++i) {
          const auto t = static_cast<std::size_t>(touched_[i]);
          insert_off[i] = ins;
          update_off[i] = upd;
          const std::uint32_t insert_count = insert_counts_[t];
          const std::uint32_t update_count = topic_counts_[t];
          insert_counts_[t] = ins;  // repurposed as the scatter cursors
          topic_counts_[t] = upd;
          ins += insert_count;
          upd += update_count;
        }
        insert_off[touched_.size()] = ins;
        update_off[touched_.size()] = upd;
        // Stage 4b (topic-sharded): the scatter itself. Each shard owns a
        // disjoint topic subset (the i % shards residue), scans the
        // element-ordered item lists and advances only its topics'
        // cursors, so the runs land byte-identically whatever the shard
        // count.
        const std::size_t shards = std::min(workers_, touched_.size());
        for (std::size_t i = 0; i < touched_.size(); ++i) {
          topic_shard_[static_cast<std::size_t>(touched_[i])] =
              static_cast<std::uint32_t>(i % shards);
        }
        ParallelRun(pool_, shards, [&](std::size_t shard) {
          for (const FreshItem& item : fresh_items_) {
            const ElementId id = item.element->id;
            for (ScoreCache::TopicHalves& half : *item.halves) {
              const auto topic = static_cast<std::size_t>(half.topic);
              if (topic_shard_[topic] != shard) continue;
              insert_runs[insert_counts_[topic]++] =
                  PendingInsert{id, half.listed, &half.handle};
            }
          }
          for (const TouchedItem& item : touched_items_) {
            if (!item.reposition) continue;  // summary-only, folded above
            for (std::uint32_t i = 0; i < item.num_updates; ++i) {
              const auto topic =
                  static_cast<std::size_t>(item.updates[i].topic);
              if (topic_shard_[topic] != shard) continue;
              update_runs[topic_counts_[topic]++] = item.updates[i].payload;
            }
          }
        });
      }
    }

    StageScope scope(telemetry_, stage_list_apply_hist_, "maint.list_apply");
    // Stage 5 (topic-sharded): apply each touched topic's fresh inserts,
    // then its reposition run, one RankedList::UpdateHandle per element.
    // A topic is executed by exactly one participant and no list state is
    // shared across topics, so there is no list-level locking, and handle
    // minting and the ScoreCache handle write-backs do not depend on the
    // participant count. Participants claim topics from a shared cursor,
    // capped at workers_ however large the pool is.
    const std::size_t units = touched_.size();
    std::atomic<std::size_t> cursor{0};
    ParallelRun(pool_, std::min(workers_, units), [&](std::size_t) {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= units) return;
        const TopicId topic = touched_[i];
        for (std::uint32_t k = insert_off[i]; k < insert_off[i + 1]; ++k) {
          *insert_runs[k].handle = index_->InsertListEntry(
              topic, insert_runs[k].id, insert_runs[k].score);
        }
        index_->RepositionHandles(topic, update_runs + update_off[i],
                                  update_off[i + 1] - update_off[i]);
      }
    });
    // Restore the lazily-zeroed counters for the next bucket.
    for (const TopicId topic : touched_) {
      insert_counts_[static_cast<std::size_t>(topic)] = 0;
      topic_counts_[static_cast<std::size_t>(topic)] = 0;
    }
    touched_.clear();
  }
  MaterializeSummary();
  // Counter flush: the hot loops above accumulate into plain members; one
  // sharded fetch_add per series per bucket lands them in the registry.
  if (!update.expired.empty()) {
    expired_counter_->Add(static_cast<std::int64_t>(update.expired.size()));
  }
  const std::size_t fresh = update.inserted.size() + update.resurrected.size();
  if (fresh > 0) fresh_counter_->Add(static_cast<std::int64_t>(fresh));
  const std::size_t touched =
      update.gained_referrer.size() + update.lost_referrer.size();
  if (touched > 0) touched_counter_->Add(static_cast<std::int64_t>(touched));
  if (bucket_repositions_ > 0) {
    repositions_counter_->Add(static_cast<std::int64_t>(bucket_repositions_));
  }
  if (bucket_elisions_ > 0) {
    elisions_counter_->Add(static_cast<std::int64_t>(bucket_elisions_));
  }
}

}  // namespace ksir
