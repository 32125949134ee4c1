// Algorithm 1: keeps the per-topic ranked lists consistent with the active
// window as buckets arrive and expire.
#ifndef KSIR_CORE_INDEX_MAINTAINER_H_
#define KSIR_CORE_INDEX_MAINTAINER_H_

#include <cstdint>
#include <vector>

#include <memory>

#include "common/arena.h"
#include "common/stamped_accumulator.h"
#include "core/advance_summary.h"
#include "core/ranked_list.h"
#include "core/score_cache.h"
#include "core/scoring.h"
#include "telemetry/telemetry.h"
#include "window/active_window.h"

namespace ksir {

class WorkerPool;

/// How ranked-list scores react to referrer expiry (README, Design notes).
enum class RefreshMode {
  /// Reposition elements whose referrers expired: list scores are always
  /// exactly delta_i(e). Default.
  kExact,
  /// Literal Algorithm 1: scores are only refreshed when an element gains a
  /// referrer. A score may stay stale-high after referrer expiry, which
  /// keeps upper-bound pruning sound but less tight.
  kPaper,
};

/// The score source of the maintenance pipeline: where the listed score
/// delta_i(e) of a fresh or repositioned element comes from. Both sources
/// drive the same pipeline (cache entries, handles, elision, summaries);
/// only the composed number differs.
enum class ScoreMaintenance {
  /// ScoreCache decomposition: the semantic half is computed once per
  /// element lifetime and the influence half updated per edge, so a
  /// reposition composes lambda * R + eta' * I in O(|shared topics|).
  /// Default.
  kIncremental,
  /// delta_i(e) from scratch (ScoringContext::TopicScore: full word scan
  /// plus a referrer-set scan) wherever the pipeline composes a score. The
  /// reference oracle for the equivalence tests; agrees with kIncremental
  /// within floating-point tolerance.
  kRecompute,
};

/// Applies window updates to the ranked lists (Algorithm 1 lines 4-13).
///
/// There is one pipeline and one apply. A bucket's repositions are built
/// entirely from state already carried by the pipeline — the window
/// report's Touched records (element pointer, final t_e, gained/lost
/// referrer topic spans, the user slot holding the element's ScoreCache
/// entry) and the entry itself (score halves, listed score, ranked-list
/// handle) — so a touched element costs no hash probe. The changed keys are
/// gathered into one run per topic, and each list applies its run as
/// per-element UpdateHandle calls. All per-bucket state is owned by this
/// maintainer — one engine's maintainer never shares mutable state with
/// another's, which is what lets the sharded service advance shards in
/// parallel.
///
/// The apply runs in five stages, each with its own histogram:
///   1. expiry — a serial prologue walks the expired elements (summary
///      touches, membership + cache erases: hash maps and pools are
///      single-threaded state) copying each carried per-topic hint out of
///      the dying cache entry, then the per-list erases run TOPIC-SHARDED
///      (each touched topic is owned by one participant, which replays
///      that list's erases in element order);
///   2. insert (layout, serial) — cache entry rows, membership records and
///      arena buffers for the bucket's touched elements;
///   3. score (element-sharded) — fresh-element scoring, edge folding,
///      score composition; each participant folds through its own dense
///      accumulator;
///   4. gather — a serial counting pass fixes the per-topic run layout,
///      summary touches and t_e writes, then the scatter into per-topic
///      runs is TOPIC-SHARDED: each participant owns a disjoint topic
///      subset and writes exactly its topics' runs, in element order;
///   5. list apply (topic-sharded) — each touched topic's RankedList
///      (fresh inserts then the reposition run) is claimed by exactly one
///      participant, so no list-level locking.
/// Every list sees the same operation sequence whatever the participant
/// count — erases, then inserts, then repositions, each in element order —
/// so lists, handles, t_e and ScoreCache state are BITWISE identical
/// across participant counts. The advancing thread is participant 0.
/// Without a pool, or with `parallel_workers < 2`, it is the only one: the
/// stages' ParallelRun calls then run inline and never touch a pool. With
/// a WorkerPool and `parallel_workers >= 2` the sharded stages fan out
/// through ParallelRun over at most `parallel_workers` participants: one
/// index per topic shard for the expiry erases and the gather scatter, and
/// participants claiming from a shared cursor for the score stage
/// (elements) and the list apply (topics). A larger shared pool never
/// raises the participant count.
///
/// `carry_handles = false` switches off one layer of the pipeline, never
/// selecting a different apply: list handles are not read (positions
/// resolve by the carried listed key, the fallback a stale handle already
/// takes).
class IndexMaintainer {
 public:
  /// `ctx` and `index` must outlive the maintainer; `ctx`'s window must be
  /// the window whose updates are applied. `maintenance` picks the score
  /// source. `carry_handles = false` resolves every list position by its
  /// carried key instead of its handle. `pool` + `parallel_workers >= 2`
  /// fan the stages out over `parallel_workers` participants (`pool` must
  /// outlive the maintainer and may be shared — the stages fan out through
  /// ParallelRun, whose caller participation tolerates a busy pool);
  /// otherwise the advancing thread runs every stage alone.
  /// `telemetry` (optional, must outlive the maintainer) receives the
  /// per-stage bucket-apply histograms (`ksir_maintainer_stage_*_seconds`)
  /// and touched/reposition/elision counters; null gives the maintainer a
  /// private kOff Telemetry so counters keep working in isolation.
  IndexMaintainer(const ScoringContext* ctx, RankedListIndex* index,
                  RefreshMode mode = RefreshMode::kExact,
                  ScoreMaintenance maintenance = ScoreMaintenance::kIncremental,
                  bool carry_handles = true, WorkerPool* pool = nullptr,
                  std::size_t parallel_workers = 0,
                  Telemetry* telemetry = nullptr);

  /// Applies one Advance() result. Must be called after every window
  /// advance, with no interleaved advances.
  void Apply(const ActiveWindow::UpdateResult& update);

  /// Touched-topic summary of the most recent Apply() (epoch unset; the
  /// engine stamps it). Valid until the next Apply.
  const AdvanceSummary& last_summary() const { return summary_; }

 private:
  /// One fresh (inserted / resurrected) element of the bucket: entry rows
  /// laid out by the insert stage, score halves computed by the score
  /// stage.
  struct FreshItem {
    const SocialElement* element;
    ScoreCache::TopicList* halves;
  };
  /// One pending ranked-list reposition of one topic; the payload points
  /// back into the ScoreCache entry so the list writes the refreshed
  /// position hint straight through.
  struct PendingHandle {
    TopicId topic;
    RankedList::HandleUpdate payload;
  };
  /// One gained-/lost-referrer element: the score stage folds its edge
  /// spans, composes scores and writes the changed tuples into `updates`
  /// (arena storage sized to the full support; `num_updates` filled by the
  /// one participant that claims the element).
  struct TouchedItem {
    const ActiveWindow::Touched* touched;
    ScoreCache::TopicList* halves;
    PendingHandle* updates;
    std::uint32_t num_updates;
    bool reposition;
    bool te_changed;
  };
  /// One fresh list insert of the list-apply stage (scattered per topic by
  /// the gather, applied by the topic's participant, handle written
  /// through).
  struct PendingInsert {
    ElementId id;
    double score;
    RankedList::Handle* handle;
  };
  /// One per-list erase of the topic-sharded expiry stage, in element
  /// order. The hint fields are copied OUT of the dying cache entry by the
  /// serial prologue: cache_.Erase frees the pool row the halves live in,
  /// so the fan-out must not read through the entry.
  struct PendingErase {
    TopicId topic;
    ElementId id;
    double score;
    RankedList::Handle handle;
  };

  /// The score source: delta_i(e) of one support topic, composed from the
  /// cached halves (kIncremental) or from scratch (kRecompute).
  double SourceScore(const SocialElement& e,
                     const ScoreCache::TopicHalves& half) const;

  /// Fills the listed scores of a fresh entry whose halves were just
  /// computed: ComputeHalves already composed them for kIncremental;
  /// kRecompute overwrites them from scratch.
  void ScoreFresh(const SocialElement& e, ScoreCache::TopicList* halves) const;

  /// The handle slot a list operation reads its position hint from. With
  /// handle carrying off the hint is cleared first, so the list resolves
  /// the position by the carried key.
  RankedList::Handle* HintOf(ScoreCache::TopicHalves* half) const {
    if (!use_handles_) half->handle = RankedList::Handle{};
    return &half->handle;
  }

  /// The score stage's kernel for one touched element: applies its carried
  /// edge spans to the cached influence halves through `acc`, then writes
  /// the topics whose score moved into the item's update buffer (unchanged
  /// topics are elided). A kPaper referrer-loss item (reposition off)
  /// parks its summary touches there instead.
  void ProcessTouched(TouchedItem* item, StampedAccumulator* acc);

  /// Scatters one element's carried edge spans into `acc` and folds them
  /// into the cached influence halves.
  static void FoldEdges(const ActiveWindow::Touched& t,
                        ScoreCache::TopicList* halves,
                        StampedAccumulator* acc);

  /// Records one score movement on `topic` into the bucket's summary
  /// accumulator (dense max, lazily cleared at materialization).
  void TouchSummary(TopicId topic, double movement);

  /// Sorts and publishes the bucket's summary accumulator into summary_,
  /// restoring the dense arrays for the next bucket.
  void MaterializeSummary();

  const ScoringContext* ctx_;
  RankedListIndex* index_;
  RefreshMode mode_;
  ScoreMaintenance maintenance_;
  /// Read list handles (false: resolve positions by the carried key).
  bool use_handles_;
  /// Stage participants: the advancing thread is participant 0 and the
  /// pool supplies the helpers. One participant never touches the pool,
  /// so pool_ is null then.
  WorkerPool* pool_ = nullptr;
  std::size_t workers_ = 1;
  /// Fallback Telemetry (kOff) owned when no shared one was passed, so the
  /// metric pointers below are always valid and the hot path never
  /// null-checks them.
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_;
  /// Stage histograms (recorded only when timing is enabled), one
  /// observation per stage per bucket.
  Histogram* stage_expiry_hist_;
  Histogram* stage_insert_hist_;
  Histogram* stage_score_hist_;
  Histogram* stage_gather_hist_;
  Histogram* stage_list_apply_hist_;
  Histogram* bucket_apply_hist_;
  /// Always-live counters, flushed once per Apply from the plain per-bucket
  /// accumulators below (the hot loops never touch an atomic).
  Counter* expired_counter_;
  Counter* fresh_counter_;
  Counter* touched_counter_;
  Counter* repositions_counter_;
  Counter* elisions_counter_;
  std::size_t bucket_repositions_ = 0;
  std::size_t bucket_elisions_ = 0;
  /// Published touched-topic summary of the last Apply, and its dense
  /// per-bucket accumulator (max movement + seen flag per topic, cleared
  /// lazily through summary_topics_ at materialization).
  AdvanceSummary summary_;
  std::vector<double> summary_movement_;
  std::vector<std::uint8_t> summary_seen_;
  std::vector<TopicId> summary_topics_;
  ScoreCache cache_;
  /// An element's support topics, in its topic-vector order (membership
  /// rows of fresh inserts and expiry erases).
  std::vector<TopicId> topic_id_scratch_;

  /// ---- per-bucket state (live only within one Apply call) ----
  /// Backs the touched items' update buffers and the per-topic runs; reset
  /// every bucket.
  Arena run_arena_;
  std::vector<PendingErase> erase_items_;
  /// Distinct topics with erases this bucket (deduped through erase_seen_,
  /// which is restored to zero during shard assignment).
  std::vector<TopicId> erase_topics_;
  std::vector<std::uint8_t> erase_seen_;
  /// Dense topic -> owning shard map for the bucket's topic-sharded stages
  /// (expiry erases, gather scatter). Never reset: a bucket only reads the
  /// topics it wrote first.
  std::vector<std::uint32_t> topic_shard_;
  std::vector<FreshItem> fresh_items_;
  std::vector<TouchedItem> touched_items_;
  /// Topics with list work this bucket, and their pending fresh inserts
  /// and repositions; the counts are zeroed lazily via touched_.
  std::vector<TopicId> touched_;
  std::vector<std::uint32_t> insert_counts_;
  std::vector<std::uint32_t> topic_counts_;
  /// Per-participant dense accumulators for the score stage, indexed by
  /// ParallelRun participant, so the stage allocates nothing and contends
  /// on nothing.
  std::vector<StampedAccumulator> worker_acc_;
};

}  // namespace ksir

#endif  // KSIR_CORE_INDEX_MAINTAINER_H_
