// Per-element decomposition of delta_i(e) into its immutable and mutable
// halves (Eq. 2):
//
//   delta_i(e) = lambda * R_i(e) + ((1 - lambda) / eta) * I_{i,t}(e)
//
// R_i(e) depends only on the element's own words and topic vector, both
// frozen at ingestion, so it is computed exactly once per (element, topic)
// when the element enters A_t (or re-enters it by resurrection). I_{i,t}(e)
// changes only by whole influence edges: when referrer r arrives,
// I_{i,t}(e) += p_i(e) * p_i(r) on every shared topic; when r expires the
// same term is subtracted. The cache therefore turns Algorithm 1's
// reposition step from a full O(|words| * |topics|) rescore plus an
// O(|I_t(e)|) referrer scan into an O(|shared topics|) update.
//
// Each TopicHalves row additionally carries the pipeline's position state:
// `listed`, the exact score currently sitting in the topic's ranked list
// (the old key of the next reposition), and `handle`, the RankedList
// position hint minted at insertion and refreshed by every reposition. The
// cache entry is thus the single per-(element, topic) record the whole
// window -> cache -> maintainer -> ranked-list data flow reads and writes —
// no layer re-derives position or listed score by hashing.
//
// The cache is an implementation detail of IndexMaintainer; it trusts the
// maintainer to feed it every window change exactly once and in order
// (erase expired, insert inserted/resurrected, then apply the edge spans
// carried by the window report).
#ifndef KSIR_CORE_SCORE_CACHE_H_
#define KSIR_CORE_SCORE_CACHE_H_

#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/flat_hash_map.h"
#include "common/small_vector.h"
#include "common/stamped_accumulator.h"
#include "common/types.h"
#include "core/ranked_list.h"
#include "core/scoring.h"
#include "stream/element.h"

namespace ksir {

/// Cached score halves of every indexed element.
class ScoreCache {
 public:
  /// One support topic of one element. `semantic` is immutable after
  /// ComputeHalves; `influence` tracks I_{i,t}(e) incrementally. Field
  /// order keeps the edge-application working set (topic, p_i(e),
  /// influence) in one contiguous span — the maintainer folds every
  /// bucket's edge deltas into these rows.
  struct TopicHalves {
    TopicId topic;
    double topic_prob;  // p_i(e), kept to avoid re-probing the element
    double influence;   // I_{i,t}(e)
    double semantic;    // R_i(e)
    /// The composed score currently sitting in this topic's ranked list:
    /// the exact old key of the next reposition, and the basis for eliding
    /// repositions whose tuple would not change (an expired referrer
    /// sharing no topics with the element moves nothing).
    double listed;
    /// Position hint into the topic's ranked list; minted at insertion,
    /// refreshed by every reposition that moves the element.
    RankedList::Handle handle;
  };
  using TopicList = SmallVector<TopicHalves, 4>;

  static TopicList* FromSlot(void* slot) {
    return static_cast<TopicList*>(slot);
  }
  static const TopicList* FromSlot(const void* slot) {
    return static_cast<const TopicList*>(slot);
  }

  /// The entry parked in an active element's window slot (the query
  /// path's one-probe route to the halves). CHECKs that the element is
  /// active and that its slot holds an entry.
  static const TopicList& OfActive(const ActiveWindow::ActiveView& view);

  /// delta(e, x) = sum_i x_i * (lambda * R_i(e) + influence_factor *
  /// I_{i,t}(e)) from an entry's halves: one sorted merge of the query's
  /// support against the entry's rows, no word scan and no window probe.
  /// Reads the exact halves, never `listed` (under RefreshMode::kPaper the
  /// listed key may be stale-high). Equals ScoringContext::ElementScore up
  /// to the rounding of the incrementally folded influence half.
  static double SingletonScore(const TopicList& topics, const SparseVector& x,
                               double lambda, double influence_factor);

  /// `ctx` must outlive the cache.
  explicit ScoreCache(const ScoringContext* ctx);

  /// Entries are pool-allocated; live ones are destroyed here.
  ~ScoreCache();

  ScoreCache(const ScoreCache&) = delete;
  ScoreCache& operator=(const ScoreCache&) = delete;

  /// Serial half of an insert: creates (or replaces, on resurrection) the
  /// entry and lays out one row per support topic with `topic` and
  /// `topic_prob` filled and the score halves zeroed. Touches the id table
  /// and the pool — the single-threaded part. Entries are pool-allocated,
  /// so the returned reference stays stable for the element's whole
  /// indexed lifetime (the maintainer parks it in the window's user slot
  /// and never probes for it again).
  TopicList& AllocateEntry(const SocialElement& e);

  /// Pure compute half: fills semantic / influence / listed of every row
  /// laid out by AllocateEntry — R_i(e) by the one-and-only full word scan,
  /// I_{i,t}(e) from the window's current referrer set — reading only
  /// state that is immutable during index maintenance (the element, the
  /// model, the window's referrer sets). `acc` is the caller's dense
  /// scratch — the maintainer's score stage runs this concurrently for
  /// DISJOINT elements, one accumulator per participant.
  void ComputeHalves(const SocialElement& e, TopicList* topics,
                     StampedAccumulator* acc) const;

  /// Drops an expired element. Missing ids are ignored (an element may
  /// expire and be garbage-collected across refresh modes).
  void Erase(ElementId id);

  bool Contains(ElementId id) const { return entries_.contains(id); }

  /// Entry of a present element, or nullptr. The maintainer reaches
  /// entries through the carried slot; this lookup backs its debug checks.
  const TopicList* Find(ElementId id) const;

  std::size_t size() const { return entries_.size(); }

 private:
  const ScoringContext* ctx_;
  /// id -> pool-stable entry. The map is consulted once per element
  /// lifetime on each end (insert / erase); the pipeline reaches entries
  /// through the carried slot in between.
  FlatHashMap<ElementId, TopicList*> entries_;
  ObjectPool<TopicList> pool_;
};

}  // namespace ksir

#endif  // KSIR_CORE_SCORE_CACHE_H_
