// Shared infrastructure of the experiment harness: dataset construction
// (three Table 3 profiles), keyword-query workload generation (Section 5.1),
// engine feeding, per-algorithm measurement, and table printing.
//
// Every per-figure/table binary in this directory builds on these helpers;
// the sizes are controlled by KSIR_BENCH_SCALE = smoke | small | paper
// (default small; paper multiplies the stream sizes by ~8 and the query
// counts accordingly).
#ifndef KSIR_BENCH_BENCH_UTIL_H_
#define KSIR_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "stream/generator.h"
#include "topic/inference.h"

namespace ksir::bench {

/// Benchmark size preset.
enum class Scale { kSmoke, kSmall, kPaper };

/// Reads KSIR_BENCH_SCALE (defaults to kSmall).
Scale GetScale();

/// Multiplier applied to the profile element counts.
double ElementFactor(Scale scale);

/// Number of queries measured per configuration point.
std::size_t NumQueries(Scale scale);

/// One benchmark dataset: a generated stream plus a calibrated eta.
///
/// The paper fixes eta = 20 (AMiner/Reddit) and 200 (Twitter) because eta
/// "adjusts the ranges of R and I to the same scale" *on those corpora*,
/// where popular elements gather thousands of in-window references. The
/// synthetic streams have far smaller in-degrees, so the same role is
/// played by calibrating eta = mean singleton influence / mean singleton
/// semantic score over the stream (see CalibrateEta; README, Design notes).
struct Dataset {
  std::string name;
  GeneratedStream stream;
  double eta = 20.0;
};

/// eta such that, at lambda = 0.5, the average singleton influence term
/// matches the average singleton semantic term on a T-window of the stream.
double CalibrateEta(const GeneratedStream& stream,
                    Timestamp window_length = 24 * 3600);

/// Builds dataset `which` (0 = AMinerSim, 1 = RedditSim, 2 = TwitterSim)
/// with `num_topics` topics at the current scale.
Dataset MakeDataset(int which, int num_topics = 50);

/// All three datasets.
std::vector<Dataset> MakeAllDatasets(int num_topics = 50);

/// A generated k-SIR query: 1-5 frequency-weighted random keywords plus the
/// topic vector inferred from them (Section 5.1's workload).
struct QuerySpec {
  std::vector<WordId> keywords;
  SparseVector x;
};

/// Deterministic workload of `count` queries over the dataset vocabulary.
std::vector<QuerySpec> MakeWorkload(const Dataset& dataset, std::size_t count,
                                    std::uint64_t seed = 77);

/// Engine config with the paper defaults (lambda = 0.5, L = 15 min,
/// T = 24 h) and the dataset's eta.
EngineConfig MakeConfig(const Dataset& dataset,
                        Timestamp window_length = 24 * 3600,
                        RefreshMode mode = RefreshMode::kExact);

/// Builds an engine and feeds the dataset's whole stream.
std::unique_ptr<KsirEngine> BuildAndFeed(const Dataset& dataset,
                                         const EngineConfig& config);

/// Aggregated measurements of one (algorithm, configuration) cell.
struct CellStats {
  double mean_time_ms = 0.0;
  double mean_score = 0.0;
  /// Evaluated elements / active elements, averaged over queries.
  double mean_eval_ratio = 0.0;
  std::size_t queries = 0;
};

/// Runs the workload with one algorithm and aggregates.
CellStats RunWorkload(const KsirEngine& engine,
                      const std::vector<QuerySpec>& workload,
                      Algorithm algorithm, std::int32_t k, double epsilon);

/// ---- table printing -------------------------------------------------------

/// Prints the experiment banner with the current scale.
void PrintBanner(const std::string& title, const std::string& paper_ref);

/// Prints a header row: first column `axis`, then one column per label.
void PrintHeaderRow(const std::string& axis,
                    const std::vector<std::string>& labels);

/// Prints a data row: axis value then one numeric cell per value.
void PrintRow(const std::string& axis_value,
              const std::vector<double>& values, int precision = 3);

}  // namespace ksir::bench

#endif  // KSIR_BENCH_BENCH_UTIL_H_
