// Subscription engine types: standing-query activation modes and the
// incremental delta event stream.
//
// A standing query is a k-SIR query registered once and re-answered as the
// window slides. The subscription engine emits SubscriptionUpdate events
// carrying the full new result and its diff against the previous one —
// enter / leave / reorder deltas plus the epoch they were computed at — so
// downstream consumers (and remote-shard replication) can ship deltas, not
// full top-k sets.
#ifndef KSIR_SUBSCRIBE_SUBSCRIPTION_H_
#define KSIR_SUBSCRIBE_SUBSCRIPTION_H_

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "core/query.h"

namespace ksir {

/// How standing queries are evaluated after a bucket.
enum class SubscriptionMode {
  /// Re-evaluate every registered subscription on every round — the
  /// reference baseline (the pre-subscription-engine behavior), kept for
  /// equivalence testing and benchmarking, same pattern as kRecompute.
  kNaive,
  /// Inverted-index activation: only subscriptions whose query support
  /// intersects the bucket's touched topics are evaluated, identical
  /// queries share one evaluation, untouched subscriptions are skipped
  /// (with a counter proving it). Results are identical to kNaive.
  kIndexed,
};

/// One element-level change between a subscription's consecutive results.
/// Ranks are 0-based positions in the result's selection order; -1 marks
/// "absent" (old_rank of an enter, new_rank of a leave).
struct SubscriptionDelta {
  enum class Kind : std::uint8_t { kEnter, kLeave, kReorder };

  Kind kind;
  ElementId id;
  std::int32_t old_rank;
  std::int32_t new_rank;
};

/// One evaluation event delivered to a subscription's callback. Deltas are
/// ordered leaves first, then enters, then reorders (each by rank). The
/// result and delta pointers are valid only for the duration of the
/// callback.
struct SubscriptionUpdate {
  std::int64_t subscription_id;
  /// The evaluation round's epoch (engine bucket epoch / service epoch).
  std::uint64_t epoch;
  /// True on the subscription's first evaluation: every result member is
  /// reported as an enter.
  bool first;
  /// True when the result SET changed (some enter or leave emitted).
  /// Reorders alone leave it false; `first || set_changed` tells whether
  /// the delivered set differs from what the callback last saw.
  bool set_changed;
  /// The full new result (selection order), shared across a group.
  const QueryResult* result;
  const SubscriptionDelta* deltas;
  std::size_t num_deltas;
};

using SubscriptionCallback = std::function<void(const SubscriptionUpdate&)>;

}  // namespace ksir

#endif  // KSIR_SUBSCRIBE_SUBSCRIPTION_H_
