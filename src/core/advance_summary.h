// Per-bucket touched-topic summary exported by IndexMaintainer::Apply.
//
// The maintainer already knows exactly which topics' rankings a bucket
// moved — every reposition run, fresh insert and expiry erase is keyed by
// topic. Instead of discarding that knowledge after the list apply, the
// maintainer surfaces it as an AdvanceSummary so downstream consumers
// (the subscription engine's inverted topic index, see src/subscribe/)
// can activate only standing queries whose support intersects the touched
// set.
//
// Soundness contract: a topic appears in `topics` whenever ANY element's
// delta_i(e) changed on that topic this bucket — including kPaper-mode
// referrer losses, whose list tuples stay stale-high by design but whose
// true scores still moved. A topic ABSENT from the summary therefore
// guarantees that every element's score on that topic is unchanged, which
// is what makes skipping subscriptions keyed on absent topics exact (see
// SubscriptionManager for the per-algorithm caveats).
//
// `max_movement` is observational: max |new - old listed|, with
// inserts/erases contributing |listed|, under either score source.
// Activation decisions use topic membership only.
#ifndef KSIR_CORE_ADVANCE_SUMMARY_H_
#define KSIR_CORE_ADVANCE_SUMMARY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace ksir {

/// Touched-topic summary of one applied bucket.
struct AdvanceSummary {
  struct TopicTouch {
    TopicId topic;
    /// Max absolute listed-score movement seen on this topic this bucket.
    double max_movement;
  };

  /// Touched topics, sorted by topic id, deduplicated.
  std::vector<TopicTouch> topics;
  /// The engine's bucket epoch after this bucket was applied (0 straight
  /// out of the maintainer; KsirEngine stamps it).
  std::uint64_t epoch = 0;
};

/// Merges `summaries` into one summary stamped `epoch`: the union of their
/// touched topics, sorted by topic id, each keeping its max movement. The
/// service merges its shards' summaries of one bucket this way; a
/// single-engine caller whose standing rounds skip buckets folds the
/// summaries of every bucket since its previous round.
inline AdvanceSummary MergeAdvanceSummaries(
    const std::vector<AdvanceSummary>& summaries, std::uint64_t epoch) {
  AdvanceSummary merged;
  merged.epoch = epoch;
  for (const AdvanceSummary& summary : summaries) {
    merged.topics.insert(merged.topics.end(), summary.topics.begin(),
                         summary.topics.end());
  }
  std::sort(merged.topics.begin(), merged.topics.end(),
            [](const AdvanceSummary::TopicTouch& a,
               const AdvanceSummary::TopicTouch& b) {
              return a.topic < b.topic;
            });
  // Max-merge duplicates in place.
  std::size_t out = 0;
  for (const AdvanceSummary::TopicTouch& touch : merged.topics) {
    if (out > 0 && merged.topics[out - 1].topic == touch.topic) {
      merged.topics[out - 1].max_movement =
          std::max(merged.topics[out - 1].max_movement, touch.max_movement);
    } else {
      merged.topics[out++] = touch;
    }
  }
  merged.topics.resize(out);
  return merged;
}

}  // namespace ksir

#endif  // KSIR_CORE_ADVANCE_SUMMARY_H_
