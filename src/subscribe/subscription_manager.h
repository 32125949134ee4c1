// SubscriptionManager: the standing-query engine.
//
// Registered queries are grouped by exact query equality (k, algorithm,
// epsilon, sparse vector x) and the groups are posted into an inverted
// topic index keyed on the query support. After each bucket the engine's
// AdvanceSummary (the topics whose rankings moved) activates only the
// groups whose support intersects the touched set:
//
//   touched topics --> InvertedTopicIndex --> activated groups
//                                               |  one evaluation per
//                                               |  group (the shared
//                                               v  ranked-list pass)
//                                     per-member delta diff + callback
//
// Untouched subscriptions are skipped — soundly: a subscription's result
// can only change when some element's delta_i(e) moved on a topic its
// query weights, because elements with zero query overlap score 0 and
// every cursor/greedy algorithm here admits only positive-gain elements
// with deterministic id tie-breaks. Two exceptions are always activated
// instead of indexed: kSieveStreaming (its sieve admits zero-gain
// elements once a candidate passes phi/2, so absent topics can still
// change the result) and kBruteForce (subset enumeration ties). Empty-
// support queries are also always activated (they surface their
// validation error every round, matching the naive baseline).
//
// Mutation during evaluation (a callback calling Subscribe/Unsubscribe)
// is safe: mutations are deferred and applied after the round. A
// subscription added mid-round is first evaluated in the next round; one
// removed mid-round stops receiving callbacks immediately.
#ifndef KSIR_SUBSCRIBE_SUBSCRIPTION_MANAGER_H_
#define KSIR_SUBSCRIBE_SUBSCRIPTION_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/flat_hash_map.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "core/advance_summary.h"
#include "core/query.h"
#include "subscribe/subscription.h"
#include "subscribe/subscription_index.h"
#include "telemetry/telemetry.h"

namespace ksir {

class SubscriptionManager {
 public:
  /// Answers one standing query against current state.
  using Evaluator = std::function<StatusOr<QueryResult>(const KsirQuery&)>;

  /// Mirror of the telemetry counters, cheap to read in tests/benches.
  struct Counters {
    std::int64_t registered = 0;
    std::int64_t activated = 0;
    std::int64_t skipped = 0;
    std::int64_t evaluations = 0;
    std::int64_t shared_hits = 0;
    std::int64_t deltas = 0;
  };

  /// `telemetry` (optional, must outlive the manager) receives the
  /// ksir_sub_* counters and the evaluation-round histogram; null gives
  /// the manager a private kOff Telemetry.
  explicit SubscriptionManager(
      Evaluator evaluator, SubscriptionMode mode = SubscriptionMode::kIndexed,
      Telemetry* telemetry = nullptr);
  ~SubscriptionManager();

  SubscriptionManager(const SubscriptionManager&) = delete;
  SubscriptionManager& operator=(const SubscriptionManager&) = delete;

  /// Registers a standing query; returns its id. Safe to call from a
  /// subscription callback (the new subscription joins the next round).
  std::int64_t Subscribe(KsirQuery query, SubscriptionCallback callback);

  /// Removes a subscription. Returns false for unknown ids. Safe to call
  /// from a subscription callback (no further callbacks are delivered,
  /// storage is reclaimed after the round).
  bool Unsubscribe(std::int64_t id);

  /// Evaluates EVERY live subscription, one evaluator call per
  /// subscription — the naive reference round, regardless of mode.
  /// Returns the first evaluation error (all subscriptions still run).
  Status EvaluateAll(std::uint64_t epoch);

  /// The same full round at the previous round's epoch (0 before any).
  Status EvaluateAll() { return EvaluateAll(last_epoch_); }

  /// Evaluates the subscriptions affected since the previous round: under
  /// kIndexed, groups posted on the summary's touched topics, always-
  /// active groups, and groups with never-evaluated members; under kNaive,
  /// everything (the knob's baseline). The round's epoch is
  /// `summary.epoch`.
  ///
  /// `summary` must cover every bucket since the previous round: a caller
  /// that runs a round less often than once per bucket folds the skipped
  /// buckets' summaries in with MergeAdvanceSummaries, or the groups they
  /// touched are skipped. A summary whose epoch is not newer than the
  /// previous round's touches no topic (nothing moved since that round),
  /// so re-submitting the last summary wakes only fresh registrations.
  Status EvaluateAffected(const AdvanceSummary& summary);

  std::size_t size() const { return subs_.size(); }
  SubscriptionMode mode() const { return mode_; }
  std::size_t num_groups() const { return groups_.size(); }
  const Counters& totals() const { return totals_; }

 private:
  struct Group;

  struct Subscription {
    std::int64_t id = 0;
    SubscriptionCallback callback;
    Group* group = nullptr;  // null while the attach is deferred
    std::uint32_t member_slot = 0;
    std::uint32_t order_slot = 0;
    std::vector<ElementId> last_result;  // delivered order
    bool evaluated_once = false;
    bool alive = true;
  };

  /// Subscriptions sharing one exact query: one evaluator call per round
  /// serves every member (the shared ranked-list pass). Non-identical
  /// queries fall back to per-group (= per-query) evaluation naturally.
  struct Group {
    KsirQuery query;
    std::vector<Subscription*> members;
    /// Posting back-pointers, owned by the inverted index.
    SmallVector<std::uint32_t, 2> slots;
    /// Round-stamp dedup for multi-topic activation.
    std::uint64_t round_stamp = 0;
    std::int32_t always_slot = -1;  // index in always_active_groups_
    std::uint32_t group_slot = 0;   // index in groups_
    bool always_active = false;
    /// True while some member has never been evaluated (tracked through
    /// fresh_groups_; such groups run next round even if untouched).
    bool has_fresh = false;

    const SparseVector& support() const { return query.x; }
    SmallVector<std::uint32_t, 2>& posting_slots() { return slots; }
  };

  struct PendingAdd {
    Subscription* sub;
    KsirQuery query;
  };

  static bool AlwaysActive(const KsirQuery& query);
  static bool SameQuery(const KsirQuery& a, const KsirQuery& b);
  static std::uint64_t HashQuery(const KsirQuery& query);

  /// Shared round body. `summary == nullptr` runs the naive full pass.
  Status RunRound(const AdvanceSummary* summary, std::uint64_t epoch);

  /// Diffs `result` against the subscription's last result, invokes the
  /// callback with the delta event, stores the new result. Returns the
  /// number of deltas emitted.
  std::size_t EmitUpdate(Subscription* sub, const QueryResult& result,
                         std::uint64_t epoch);

  /// Places a registered subscription into its (possibly new) group and
  /// the evaluation order.
  void Attach(Subscription* sub, KsirQuery query);
  Group* FindOrCreateGroup(KsirQuery query);
  /// Removes an attached (or never-attached pending) subscription and
  /// destroys emptied groups. Must not run mid-round.
  void Detach(Subscription* sub);
  void DestroyGroup(Group* group);
  /// Applies Subscribe/Unsubscribe calls deferred by a running round.
  void ApplyDeferred();

  Evaluator evaluator_;
  SubscriptionMode mode_;
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_;
  Counter* registered_counter_;
  Counter* activated_counter_;
  Counter* skipped_counter_;
  Counter* evaluations_counter_;
  Counter* shared_counter_;
  Counter* deltas_counter_;
  Histogram* evaluate_hist_;
  Counters totals_;

  /// Pool-stable storage (FlatHashMap moves values on rehash and on erase,
  /// so the maps hold pointers; same convention as ActiveWindow's entry
  /// pool).
  ObjectPool<Subscription> sub_pool_;
  ObjectPool<Group> group_pool_;
  FlatHashMap<std::int64_t, Subscription*> subs_;
  /// Live attached subscriptions (slot-backpatched swap-erase); the naive
  /// round's iteration set.
  std::vector<Subscription*> order_;
  /// Exact-equality group lookup: query hash -> colliding groups.
  FlatHashMap<std::uint64_t, std::vector<Group*>> groups_by_hash_;
  std::vector<Group*> groups_;
  InvertedTopicIndex<Group> index_;
  std::vector<Group*> always_active_groups_;
  /// Groups with never-evaluated members (invariant: on this list iff
  /// has_fresh), rebuilt every round.
  std::vector<Group*> fresh_groups_;
  std::uint64_t round_ = 0;
  /// Epoch of the most recent round (0 before any).
  std::uint64_t last_epoch_ = 0;
  std::int64_t next_id_ = 1;

  /// ---- round state (re-entrancy) ----
  bool evaluating_ = false;
  std::vector<PendingAdd> pending_adds_;
  std::vector<Subscription*> pending_removes_;

  /// ---- per-round scratch ----
  std::vector<Group*> activated_scratch_;
  std::vector<Group*> fresh_scratch_;
  std::vector<SubscriptionDelta> delta_scratch_;
  std::vector<SubscriptionDelta> reorder_scratch_;
};

}  // namespace ksir

#endif  // KSIR_SUBSCRIBE_SUBSCRIPTION_MANAGER_H_
