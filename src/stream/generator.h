// Synthetic social stream generator.
//
// The paper evaluates on AMiner (papers + citations), Reddit (submissions +
// comments) and Twitter (tweets + hashtag propagation); the raw dumps are not
// redistributable, so the benchmarks generate streams that match the
// *post-preprocessing* statistics of Table 3 (average length, average
// references) and — more importantly — the structural properties the
// algorithms exploit (README, Design notes):
//   1. skewed element scores: Zipfian topic popularity and word frequencies;
//   2. sparse topic vectors: sparse Dirichlet document-topic mixtures
//      (< 2 topics per element on average);
//   3. recency/popularity-driven references: preferential attachment with
//      exponential recency decay and topic affinity.
//
// Text is sampled from the LDA generative process against a synthetic
// ground-truth topic model, so the generator also serves as the topic-model
// oracle (the paper's "topic vectors given in advance" setting) and as
// labeled data for testing topic-model recovery.
#ifndef KSIR_STREAM_GENERATOR_H_
#define KSIR_STREAM_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "stream/element.h"
#include "text/vocabulary.h"
#include "topic/topic_model.h"

namespace ksir {

/// Tunable description of a synthetic stream.
struct StreamProfile {
  std::string name = "custom";
  /// Number of elements to generate.
  std::size_t num_elements = 20000;
  /// Vocabulary size m (post stop-wording).
  std::size_t vocab_size = 20000;
  /// Number of ground-truth topics z.
  std::int32_t num_topics = 50;
  /// Mean document length in tokens (Poisson, min 1).
  double avg_length = 8.0;
  /// Mean number of outgoing references per element (Poisson, capped).
  double avg_references = 0.8;
  /// Stream duration in time units (timestamps span [1, duration]).
  Timestamp duration = 4 * 24 * 3600;
  /// Total Dirichlet concentration (sum of the per-topic alphas) of
  /// document-topic mixtures. Values well below 1 yield sparse mixtures
  /// (the paper observes < 2 topics per element on average).
  double doc_topic_concentration = 0.5;
  /// Zipf exponent of within-topic word ranks.
  double word_zipf_s = 1.05;
  /// Zipf exponent of topic popularity.
  double topic_zipf_s = 0.8;
  /// Fraction of each topic's word distribution spread over the shared
  /// background vocabulary (word overlap across topics).
  double background_mass = 0.15;
  /// Size of each topic's dedicated core-word block as a multiple of
  /// vocab_size / num_topics (>= 1 blocks may overlap when > 1).
  double core_block_factor = 1.0;
  /// References may only target elements at most this much older; keep
  /// <= the engine's window length T so the active-set semantics of
  /// Section 3.1 hold exactly (see README, Design notes).
  Timestamp ref_horizon = 24 * 3600;
  /// Exponential recency decay (time units) of reference target choice.
  double ref_recency_tau = 6 * 3600;
  /// Weight of current in-degree in reference target choice (preferential
  /// attachment strength).
  double ref_popularity_weight = 0.3;
  /// Maximum candidates considered per reference draw (bounds cost).
  std::size_t ref_candidate_pool = 512;
  /// Maximum outgoing references per element.
  std::int32_t max_references = 16;
  /// RNG seed; identical profiles generate identical streams.
  std::uint64_t seed = 42;
};

/// Profiles calibrated to Table 3 of the paper (post-preprocessing stats),
/// scaled down by default so the full benchmark suite runs on one machine.
/// `scale` multiplies the element count (1.0 = the scaled-down default).
StreamProfile AMinerSimProfile(double scale = 1.0);
StreamProfile RedditSimProfile(double scale = 1.0);
StreamProfile TwitterSimProfile(double scale = 1.0);

/// A generated stream plus its ground truth.
struct GeneratedStream {
  StreamProfile profile;
  /// Synthetic vocabulary ("w0", "w1", ...), WordId == index.
  Vocabulary vocab;
  /// Ground-truth topic model (the oracle handed to the engine).
  TopicModel model;
  /// Elements sorted by ts, each carrying its ground-truth sparse topic
  /// vector; ids are dense 0-based.
  std::vector<SocialElement> elements;
};

/// Generates a stream; fails on inconsistent profiles (zero sizes, etc.).
StatusOr<GeneratedStream> GenerateStream(const StreamProfile& profile);

}  // namespace ksir

#endif  // KSIR_STREAM_GENERATOR_H_
