// Topic-distribution inference for unseen documents against a fixed trained
// model ("the query and topic inferences become rather standard (e.g., Gibbs
// sampling)" — paper Section 4). Two rules are provided:
//  * kGibbs  — LDA-style collapsed Gibbs with the topic-word matrix frozen;
//  * kBiterm — BTM rule p(z|d) ∝ sum over biterms of p(z) p(w1|z) p(w2|z).
#ifndef KSIR_TOPIC_INFERENCE_H_
#define KSIR_TOPIC_INFERENCE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/sparse_vector.h"
#include "text/document.h"
#include "topic/topic_model.h"

namespace ksir {

/// Inference rule selector.
enum class InferenceMethod {
  kGibbs,
  kBiterm,
};

/// Inference configuration.
struct InferenceOptions {
  InferenceMethod method = InferenceMethod::kGibbs;
  /// Gibbs sweeps over the document (kGibbs only).
  std::int32_t iterations = 30;
  std::int32_t burn_in = 10;
  /// Document-topic smoothing for inference. Deliberately much smaller than
  /// the training prior 50/z: social texts are short, and a strong prior
  /// would drown the evidence of a 5-token tweet (theta would collapse
  /// toward uniform). <= 0 means "use 0.1".
  double alpha = -1.0;
  /// Biterm co-occurrence window (kBiterm only).
  std::int32_t biterm_window = 15;
  /// Entries below this probability are dropped from the sparse vector and
  /// the remainder renormalized (README, Design notes; keeps topic vectors
  /// sparse).
  double sparsity_threshold = 0.05;
  std::uint64_t seed = 11;
};

/// Stateless-per-call inferencer over a fixed TopicModel. Thread-safe for
/// concurrent InferDense/InferSparse calls (each call forks its own RNG from
/// the per-call seed parameter).
class TopicInferencer {
 public:
  /// `model` must outlive the inferencer.
  TopicInferencer(const TopicModel* model, InferenceOptions options = {});

  /// Dense topic distribution of `doc` (sums to 1). Empty or fully
  /// out-of-vocabulary documents get the model's topic prior.
  /// `salt` decorrelates the RNG across calls while staying deterministic.
  std::vector<double> InferDense(const Document& doc,
                                 std::uint64_t salt = 0) const;

  /// Sparse, thresholded and renormalized topic vector (p_i(e) of the paper).
  SparseVector InferSparse(const Document& doc, std::uint64_t salt = 0) const;

  const TopicModel& model() const { return *model_; }
  const InferenceOptions& options() const { return options_; }

 private:
  std::vector<double> InferGibbs(const Document& doc, Rng* rng) const;
  std::vector<double> InferBiterm(const Document& doc) const;

  const TopicModel* model_;
  InferenceOptions options_;
};

}  // namespace ksir

#endif  // KSIR_TOPIC_INFERENCE_H_
