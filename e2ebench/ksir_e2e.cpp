// End-to-end k-SIR benchmark program.
//
//   ksir_e2e --workload <tweet_ingest|citation_query|service_subs>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--variant <name>] [--smoke] [--trace-out <file>]
//            [--fingerprint-dir <dir>]
//
// One client thread runs a closed loop over a seeded synthetic stream:
// ingest one bucket (AdvanceTo), then issue that bucket's ad-hoc queries in
// sequence. Only the steady phase (after the first window T is full) is
// timed; generating the stream and inferring the query vectors happen
// before any clock starts. The gated timings are process CPU time, scaled
// by a host-speed probe timed in the same run; wall times go to the
// self-report. Every answer is checked outside the timed
// calls and the last stdout line is one JSON object with the metrics (see
// README.md beside this file).
//
// --trace 1 runs two copies of the workload in lockstep, one with
// telemetry off and one at TelemetryLevel::kCounters with benchmark spans
// around every public call, and reports the per-layer metrics read from
// the traced copy's registry plus the tracing overhead between the two.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/kernels/kernels.h"
#include "common/math.h"
#include "common/rng.h"
#include "core/candidate_state.h"
#include "core/engine.h"
#include "service/service.h"
#include "stream/generator.h"
#include "bench_util.h"
#include "support.h"

namespace {

using ksir::Algorithm;
using ksir::ElementId;
using ksir::KsirQuery;
using ksir::QueryResult;
using ksir::SocialElement;
using ksir::SparseVector;
using ksir::Timestamp;

constexpr std::int32_t kK = 10;
constexpr double kEpsilon = 0.1;
constexpr Timestamp kWindow = 24 * 3600;  // T
constexpr Timestamp kBucket = 15 * 60;    // L
constexpr double kPaperScale = 8.0;
constexpr double kSmokeScale = 0.5;

// ---- workloads --------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  /// 0 = AMinerSim, 1 = RedditSim, 2 = TwitterSim.
  int dataset;
  int mttd_per_step;
  int mtts_per_step;
  bool service;
  /// Steady closed-loop steps per requested second. The step count is a
  /// pure function of --seconds (never of elapsed time), so the work of a
  /// run repeats exactly for a given seed; these rates size the timed phase
  /// to roughly --seconds on a 4-core x86-64 host.
  double steps_per_second;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"tweet_ingest", 2, 1, 1, false, 190.0},
    {"citation_query", 0, 4, 4, false, 44.0},
    {"service_subs", 1, 4, 4, true, 24.0},
};

/// Seed of every workload's stream and of the service's subscription set.
/// They are fixed, like the paper's corpora: a stream generated from another
/// seed has another topic model, which moves query cost by 10-15%, so
/// --seed varies only the ad-hoc query pool and which queries each step
/// issues.
constexpr std::uint64_t kDatasetSeed = 2019;

// Service workload shape.
constexpr std::size_t kNumShards = 2;
constexpr std::size_t kNumWorkers = 2;
constexpr double kShardImbalanceCap = 2.0;
constexpr std::size_t kDistinctStanding = 64;
constexpr std::size_t kNumSubscriptions = 320;
constexpr double kSubscriptionZipf = 1.0;
constexpr std::size_t kAdhocPool = 2048;
/// Query-vector grid of the service's result cache (ServiceConfig default).
constexpr double kCacheQuantum = 1e-4;

// Host-speed probe (e2e::HostProbe), walked before every set-up and every
// steady step. The gated timings are scaled by kProbeReferenceMs / (median
// walk time of the run), so they read as on a host where one walk takes
// kProbeReferenceMs (about its median on the 4-vCPU x86-64 VM the
// benchmark was tuned on).
constexpr std::size_t kProbeBytes = std::size_t{16} << 20;
constexpr int kProbeHops = 1000;
constexpr double kProbeReferenceMs = 0.17;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string variant = "base";
  bool smoke = false;
  std::string trace_out;
  std::string fingerprint_dir;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg == "--workload") {
      if (!value(&options->workload)) return false;
    } else if (arg == "--variant") {
      if (!value(&options->variant)) return false;
    } else if (arg == "--trace-out") {
      if (!value(&options->trace_out)) return false;
    } else if (arg == "--fingerprint-dir") {
      if (!value(&options->fingerprint_dir)) return false;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      options->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      options->seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) return false;
      options->trace = v == "1";
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0.0;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// Applies an ablation variant (ungated diagnostics) to the engine config.
bool ApplyVariant(const std::string& variant, ksir::EngineConfig* config) {
  if (variant == "base") return true;
  if (variant == "no_handles") {
    config->carry_handles = false;
  } else if (variant == "batch_min_0") {
    config->reposition_batch_min = 0;
  } else if (variant == "threads_4") {
    config->maintenance_threads = 4;
  } else if (variant == "recompute") {
    config->score_maintenance = ksir::ScoreMaintenance::kRecompute;
  } else if (variant == "scalar") {
    ksir::kernels::SetForceScalar(true);
  } else {
    return false;
  }
  return true;
}

// ---- inputs -----------------------------------------------------------------

/// Everything a run feeds the program, derived from kDatasetSeed and --seed.
struct Inputs {
  explicit Inputs(ksir::bench::Dataset d) : dataset(std::move(d)) {}

  /// The stream and its calibrated eta (the figure benches' definition).
  ksir::bench::Dataset dataset;
  /// Elements of base bucket j are [bucket_begin[j], bucket_begin[j + 1]).
  std::vector<std::size_t> bucket_begin;
  std::size_t buckets_per_pass = 0;
  std::vector<SparseVector> adhoc;
  std::vector<SparseVector> standing;
  /// Standing-vector index of each subscription (Zipf-skewed draws).
  std::vector<std::size_t> subscriptions;
};

/// Up to `count` topic vectors of the figure benches' Section 5.1 query
/// workload (1-5 keywords by sqrt word frequency, topic vector inferred from
/// them), no two equal on the result cache's grid, so each standing vector
/// is its own subscription group.
std::vector<SparseVector> QueryVectors(const ksir::bench::Dataset& dataset,
                                       std::size_t count, std::uint64_t seed) {
  std::vector<SparseVector> out;
  std::set<std::vector<std::pair<std::int32_t, std::int64_t>>> seen;
  for (ksir::bench::QuerySpec& q :
       ksir::bench::MakeWorkload(dataset, count + count / 4 + 16, seed)) {
    std::vector<std::pair<std::int32_t, std::int64_t>> key;
    for (const auto& [topic, weight] : q.x.entries()) {
      key.emplace_back(topic, std::llround(weight / kCacheQuantum));
    }
    if (q.x.empty() || !seen.insert(std::move(key)).second) continue;
    out.push_back(std::move(q.x));
    if (out.size() == count) break;
  }
  return out;
}

ksir::StatusOr<Inputs> MakeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                                  bool smoke) {
  const double scale = smoke ? kSmokeScale : kPaperScale;
  ksir::StreamProfile profile =
      spec.dataset == 0   ? ksir::AMinerSimProfile(scale)
      : spec.dataset == 1 ? ksir::RedditSimProfile(scale)
                          : ksir::TwitterSimProfile(scale);
  profile.num_topics = 50;
  profile.seed = kDatasetSeed;
  auto stream = ksir::GenerateStream(profile);
  if (!stream.ok()) return stream.status();
  ksir::bench::Dataset dataset{spec.name, std::move(stream).value(), 1.0};
  dataset.eta = ksir::bench::CalibrateEta(dataset.stream, kWindow);
  Inputs in(std::move(dataset));
  const auto& elements = in.dataset.stream.elements;
  in.buckets_per_pass =
      static_cast<std::size_t>((profile.duration + kBucket - 1) / kBucket);
  in.bucket_begin.assign(in.buckets_per_pass + 1, elements.size());
  std::size_t next = 0;
  for (std::size_t j = 0; j <= in.buckets_per_pass; ++j) {
    const Timestamp start = static_cast<Timestamp>(j) * kBucket;
    while (next < elements.size() && elements[next].ts <= start) {
      ++next;
    }
    in.bucket_begin[j] = next;
  }
  in.adhoc = QueryVectors(in.dataset, kAdhocPool, seed * 31 + 1);
  if (spec.service) {
    in.standing =
        QueryVectors(in.dataset, kDistinctStanding, kDatasetSeed * 31 + 2);
    // Every distinct vector is subscribed once; the rest are Zipf-skewed
    // repeats.
    const std::size_t distinct = in.standing.size();
    ksir::ZipfSampler zipf(distinct, kSubscriptionZipf);
    ksir::Rng rng(kDatasetSeed * 31 + 3);
    for (std::size_t i = 0; i < kNumSubscriptions; ++i) {
      in.subscriptions.push_back(i < distinct ? i : zipf.Sample(&rng) - 1);
    }
  }
  return in;
}

/// Bucket b of the replayed stream: base bucket b mod P of pass b / P, with
/// ids and timestamps shifted so every pass continues the previous one.
std::vector<SocialElement> MakeBucket(const Inputs& in, std::size_t b) {
  const std::size_t pass = b / in.buckets_per_pass;
  const std::size_t j = b % in.buckets_per_pass;
  const ElementId id_shift =
      static_cast<ElementId>(pass * in.dataset.stream.elements.size());
  const Timestamp ts_shift =
      static_cast<Timestamp>(pass * in.buckets_per_pass) * kBucket;
  const auto first = in.dataset.stream.elements.begin();
  std::vector<SocialElement> bucket(
      first + static_cast<std::ptrdiff_t>(in.bucket_begin[j]),
      first + static_cast<std::ptrdiff_t>(in.bucket_begin[j + 1]));
  for (SocialElement& e : bucket) {
    e.id += id_shift;
    e.ts += ts_shift;
    for (ElementId& r : e.refs) r += id_shift;
  }
  return bucket;
}

Timestamp BucketEnd(std::size_t b) {
  return static_cast<Timestamp>(b + 1) * kBucket;
}

// ---- the program under test -------------------------------------------------

/// Last result a standing query delivered (per distinct standing vector).
struct Delivery {
  std::uint64_t epoch = 0;
  std::vector<ElementId> ids;
  double score = 0.0;
};

/// One deployment the closed loop drives: a KsirEngine or a KsirService.
class Target {
 public:
  Target(const WorkloadSpec& spec, const Inputs& inputs,
         ksir::EngineConfig config, bool counters) {
    ksir::TelemetryConfig telemetry;
    telemetry.level =
        counters ? ksir::TelemetryLevel::kCounters : ksir::TelemetryLevel::kOff;
    if (spec.service) {
      ksir::ServiceConfig sc;
      sc.engine = config;
      sc.engine.max_shard_imbalance = kShardImbalanceCap;
      sc.num_shards = kNumShards;
      sc.num_workers = kNumWorkers;
      sc.subscription_mode = ksir::SubscriptionMode::kIndexed;
      sc.cache_quantum = kCacheQuantum;
      sc.telemetry = telemetry;
      auto service =
          ksir::KsirService::Create(sc, &inputs.dataset.stream.model);
      if (service.ok()) service_ = std::move(service).value();
    } else {
      config.telemetry = telemetry;
      auto engine =
          ksir::KsirEngine::Create(config, &inputs.dataset.stream.model);
      if (engine.ok()) engine_ = std::move(engine).value();
    }
  }

  // Subscription callbacks capture `this`.
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  bool ok() const { return engine_ != nullptr || service_ != nullptr; }
  bool is_service() const { return service_ != nullptr; }

  ksir::Status AdvanceTo(Timestamp end, std::vector<SocialElement> bucket) {
    return engine_ ? engine_->AdvanceTo(end, std::move(bucket))
                   : service_->AdvanceTo(end, std::move(bucket));
  }

  ksir::StatusOr<QueryResult> Query(const KsirQuery& query) const {
    return engine_ ? engine_->Query(query) : service_->Query(query);
  }

  /// Registers the standing queries and runs the first standing round.
  ksir::Status Subscribe(const Inputs& inputs) {
    deliveries_.assign(inputs.standing.size(), Delivery{});
    for (std::size_t v : inputs.subscriptions) {
      service_->standing_queries().Subscribe(
          MakeQuery(inputs.standing[v], Algorithm::kMttd),
          [this, v](const ksir::SubscriptionUpdate& update) {
            Delivery& d = deliveries_[v];
            d.epoch = update.epoch;
            d.ids = update.result->element_ids;
            d.score = update.result->score;
          });
    }
    return service_->standing_queries().EvaluateAll();
  }

  std::size_t NumActive() const {
    if (engine_) return engine_->num_active();
    std::size_t n = 0;
    for (std::size_t i = 0; i < service_->num_shards(); ++i) {
      n += service_->shard(i).num_active();
    }
    return n;
  }

  /// max / mean shard |A_t| (1 for a single engine).
  double ActiveSkew() const {
    if (engine_) return 1.0;
    std::size_t max = 0;
    std::size_t sum = 0;
    for (std::size_t i = 0; i < service_->num_shards(); ++i) {
      const std::size_t n = service_->shard(i).num_active();
      max = std::max(max, n);
      sum += n;
    }
    if (sum == 0) return 1.0;
    const double shards = static_cast<double>(service_->num_shards());
    return static_cast<double>(max) * shards / static_cast<double>(sum);
  }

  bool IsActive(ElementId id) const {
    if (engine_) return engine_->window().IsActive(id);
    for (std::size_t i = 0; i < service_->num_shards(); ++i) {
      if (service_->shard(i).window().IsActive(id)) return true;
    }
    return false;
  }

  /// f(S, x) of `ids` recomputed from scratch with CandidateState (single
  /// engine only).
  double RecomputeScore(const SparseVector& x,
                        const std::vector<ElementId>& ids) const {
    ksir::CandidateState state(&engine_->scoring(), &x);
    for (ElementId id : ids) {
      const SocialElement* e = engine_->window().Find(id);
      if (e != nullptr) state.Add(*e);
    }
    return state.score();
  }

  /// Lower bound of a returned f(S, x) as a multiple of CELF's f(S, x).
  /// CELF <= OPT, so Theorems 4.2/4.4 give (1 - 1/e - eps) for MTTD and
  /// (1/2 - eps) for MTTS on one engine. Through the service the merged
  /// answer is never worse than the best shard's, whose OPT is at least
  /// 1/num_shards of any merged set's f (submodularity), so the bound is
  /// divided by the shard count.
  double ApproximationFloor(Algorithm algorithm) const {
    const double floor = algorithm == Algorithm::kMttd
                             ? 1.0 - 1.0 / std::exp(1.0) - kEpsilon
                             : 0.5 - kEpsilon;
    return engine_ ? floor
                   : floor / static_cast<double>(service_->num_shards());
  }

  std::uint64_t epoch() const {
    return engine_ ? engine_->bucket_epoch() : service_->epoch();
  }

  std::int64_t StandingErrors() const {
    return service_ ? service_->stats().standing_errors : 0;
  }

  const Delivery& delivery(std::size_t v) const { return deliveries_[v]; }

  const ksir::MetricRegistry& registry() const {
    return engine_ ? engine_->telemetry().registry()
                   : service_->telemetry().registry();
  }

  static KsirQuery MakeQuery(const SparseVector& x, Algorithm algorithm) {
    KsirQuery q;
    q.k = kK;
    q.x = x;
    q.algorithm = algorithm;
    q.epsilon = kEpsilon;
    return q;
  }

 private:
  std::unique_ptr<ksir::KsirEngine> engine_;
  std::unique_ptr<ksir::KsirService> service_;
  std::vector<Delivery> deliveries_;
};

// ---- bookkeeping ------------------------------------------------------------

/// Operation and correctness tally of a run.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t violations = 0;

  void Violation(const std::string& what) {
    if (violations < 10) std::fprintf(stderr, "VIOLATION: %s\n", what.c_str());
    ++violations;
  }
  /// Records an operation; a non-ok status is a failure.
  bool Op(const ksir::Status& status, const char* what) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    Violation(std::string(what) + ": " + status.ToString());
    return false;
  }
};

/// Sums of QueryStats over the answers of one algorithm.
struct QueryWork {
  double count = 0, evaluated = 0, retrieved = 0, gain_evals = 0, rounds = 0,
         eval_ratio = 0;
  void Add(const ksir::QueryStats& s, std::size_t active) {
    count += 1;
    evaluated += static_cast<double>(s.num_evaluated);
    retrieved += static_cast<double>(s.num_retrieved);
    gain_evals += static_cast<double>(s.num_gain_evaluations);
    rounds += static_cast<double>(s.num_candidates_or_rounds);
    if (active > 0) {
      eval_ratio += static_cast<double>(s.num_evaluated) /
                    static_cast<double>(active);
    }
  }
  double MeanOf(double total) const { return count > 0 ? total / count : 0.0; }
};

/// Timings and work of one arm over the steady phase. The gated timings are
/// process CPU time; the wall times go to the self-report.
struct Samples {
  std::vector<double> bucket_ms, mttd_ms, mtts_ms;
  std::vector<double> bucket_cpu_ms, mttd_cpu_ms, mtts_cpu_ms, step_cpu_ms;
  std::vector<double> mttd_ratio, mtts_ratio;
  double advance_s = 0.0;
  double advance_cpu_s = 0.0;
  std::int64_t elements = 0;
  double active_sum = 0.0, skew_sum = 0.0;
  std::int64_t standing_rounds = 0;
  std::int64_t sub_repeat_checks = 0;
  QueryWork mttd_work, mtts_work;
  e2e::Fingerprint results;
};

/// The queries of one closed-loop step.
struct StepQueries {
  std::vector<std::size_t> mttd;  // indices into Inputs::adhoc
  std::vector<std::size_t> mtts;
  /// Service only: standing vector repeated by the first MTTD slot.
  std::int64_t standing = -1;
};

StepQueries DrawStep(const WorkloadSpec& spec, const Inputs& in,
                     ksir::Rng* rng) {
  StepQueries q;
  auto fresh = [&](std::vector<std::size_t>* out) {
    for (;;) {
      const std::size_t i = rng->NextUint64(in.adhoc.size());
      if (std::find(out->begin(), out->end(), i) == out->end()) {
        out->push_back(i);
        return;
      }
    }
  };
  int mttd = spec.mttd_per_step;
  if (spec.service) {
    // About a quarter of the MTTD queries repeat a subscribed vector (so
    // they hit the epoch cache); popular subscriptions repeat more often.
    q.standing = static_cast<std::int64_t>(
        in.subscriptions[rng->NextUint64(in.subscriptions.size())]);
    --mttd;
  }
  for (int i = 0; i < mttd; ++i) fresh(&q.mttd);
  for (int i = 0; i < spec.mtts_per_step; ++i) fresh(&q.mtts);
  return q;
}

/// Checks one answer (outside the timed call).
void CheckAnswer(const Target& target, const KsirQuery& query,
                 const QueryResult& result, Tally* tally) {
  const auto& ids = result.element_ids;
  if (ids.size() > static_cast<std::size_t>(query.k)) {
    tally->Violation("result larger than k");
  }
  std::vector<ElementId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    tally->Violation("duplicate ids in a result");
  }
  for (ElementId id : ids) {
    if (!target.IsActive(id)) {
      tally->Violation("result holds inactive id " + std::to_string(id));
      break;
    }
  }
  if (!std::isfinite(result.score) || result.score < 0.0) {
    tally->Violation("non-finite or negative score");
  }
  if (!target.is_service()) {
    const double f = target.RecomputeScore(query.x, ids);
    if (std::fabs(f - result.score) > 1e-9 * std::max(1.0, std::fabs(f))) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "returned score %.17g != recomputed f(S,x) %.17g",
                    result.score, f);
      tally->Violation(buf);
    }
  }
}

bool SameAnswer(const QueryResult& a, const QueryResult& b) {
  return a.element_ids == b.element_ids && a.score == b.score;
}

/// Drives one arm through one steady step. `spans` records the calls when
/// this is the traced arm; `checks` runs the correctness checks (the traced
/// arm instead compares its answers to the untraced arm's via `answers`).
class StepRunner {
 public:
  StepRunner(const Inputs& inputs, Target* target, Samples* samples,
             Tally* tally, e2e::SpanRecorder* spans)
      : in_(inputs), target_(target), samples_(samples),
        tally_(tally), spans_(spans) {}

  /// Runs step `b` (bucket b of the replayed stream). `checkpoint` adds the
  /// CELF quality checks. Appends this arm's answers to `answers`.
  void Run(std::size_t b, const StepQueries& step, bool checkpoint,
           bool checks, std::vector<QueryResult>* answers) {
    std::vector<SocialElement> bucket = MakeBucket(in_, b);
    const std::int64_t n = static_cast<std::int64_t>(bucket.size());
    const e2e::SpanScope root(spans_, "step", -1, static_cast<std::int64_t>(b));
    ksir::Status status;
    {
      const e2e::SpanScope span(spans_, target_->is_service()
                                            ? "KsirService::AdvanceTo"
                                            : "KsirEngine::AdvanceTo",
                                root.index(), static_cast<std::int64_t>(b));
      const e2e::Stamp t0 = e2e::Stamp::Now();
      status = target_->AdvanceTo(BucketEnd(b), std::move(bucket));
      const e2e::Elapsed t = e2e::Between(t0, e2e::Stamp::Now());
      samples_->bucket_ms.push_back(t.wall_ms);
      samples_->bucket_cpu_ms.push_back(t.cpu_ms);
      samples_->advance_s += t.wall_ms / 1000.0;
      samples_->advance_cpu_s += t.cpu_ms / 1000.0;
    }
    double step_cpu_ms = samples_->bucket_cpu_ms.back();
    tally_->Op(status, "AdvanceTo");
    samples_->elements += n;
    if (target_->is_service()) {
      ++samples_->standing_rounds;
      ++tally_->attempted;
      const std::int64_t errors = target_->StandingErrors();
      if (errors != standing_errors_) {
        tally_->failed += errors - standing_errors_;
        tally_->Violation("standing-query round failed");
        standing_errors_ = errors;
      }
    }
    const std::size_t active = target_->NumActive();
    samples_->active_sum += static_cast<double>(active);
    samples_->skew_sum += target_->ActiveSkew();

    auto issue = [&](const SparseVector& x, Algorithm algorithm,
                     std::int64_t standing) {
      const KsirQuery query = Target::MakeQuery(x, algorithm);
      const bool mttd = algorithm == Algorithm::kMttd;
      std::optional<ksir::StatusOr<QueryResult>> answer;
      {
        const e2e::SpanScope span(
            spans_,
            target_->is_service()
                ? (mttd ? "KsirService::Query/MTTD" : "KsirService::Query/MTTS")
                : (mttd ? "KsirEngine::Query/MTTD" : "KsirEngine::Query/MTTS"),
            root.index(), static_cast<std::int64_t>(b));
        const e2e::Stamp t0 = e2e::Stamp::Now();
        answer.emplace(target_->Query(query));
        const e2e::Elapsed t = e2e::Between(t0, e2e::Stamp::Now());
        (mttd ? samples_->mttd_ms : samples_->mtts_ms).push_back(t.wall_ms);
        (mttd ? samples_->mttd_cpu_ms : samples_->mtts_cpu_ms)
            .push_back(t.cpu_ms);
        step_cpu_ms += t.cpu_ms;
      }
      ksir::StatusOr<QueryResult>& result = *answer;
      if (!tally_->Op(result.status(), "Query")) {
        answers->push_back(QueryResult{});
        return;
      }
      (mttd ? samples_->mttd_work : samples_->mtts_work)
          .Add(result->stats, active);
      for (ElementId id : result->element_ids) {
        samples_->results.Add(static_cast<std::uint64_t>(id));
      }
      samples_->results.AddDouble(result->score);
      if (checks) {
        CheckAnswer(*target_, query, *result, tally_);
        if (standing >= 0) {
          const Delivery& d =
              target_->delivery(static_cast<std::size_t>(standing));
          if (d.epoch == target_->epoch()) {
            ++samples_->sub_repeat_checks;
            if (d.ids != result->element_ids || d.score != result->score) {
              tally_->Violation(
                  "ad-hoc answer differs from the standing answer of the "
                  "same epoch");
            }
          }
        }
        if (checkpoint) Checkpoint(query, *result);
      }
      answers->push_back(*std::move(result));
    };
    if (step.standing >= 0) {
      issue(in_.standing[static_cast<std::size_t>(step.standing)],
            Algorithm::kMttd, step.standing);
    }
    for (std::size_t i : step.mttd) issue(in_.adhoc[i], Algorithm::kMttd, -1);
    for (std::size_t i : step.mtts) issue(in_.adhoc[i], Algorithm::kMtts, -1);
    samples_->step_cpu_ms.push_back(step_cpu_ms);
  }

 private:
  /// CELF quality check plus, on the service, the same-epoch repeat check.
  void Checkpoint(const KsirQuery& query, const QueryResult& result) {
    KsirQuery celf = query;
    celf.algorithm = Algorithm::kCelf;
    const auto reference = target_->Query(celf);
    if (!tally_->Op(reference.status(), "CELF query")) return;
    const double floor = target_->ApproximationFloor(query.algorithm);
    if (reference->score > 0.0) {
      const double ratio = result.score / reference->score;
      (query.algorithm == Algorithm::kMttd ? samples_->mttd_ratio
                                           : samples_->mtts_ratio)
          .push_back(ratio);
      if (result.score < floor * reference->score * (1.0 - 1e-12)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s f(S,x)=%.9g below %.4f x CELF f(S,x)=%.9g",
                      query.algorithm == Algorithm::kMttd ? "MTTD" : "MTTS",
                      result.score, floor, reference->score);
        tally_->Violation(buf);
      }
    }
    if (target_->is_service()) {
      const auto again = target_->Query(query);
      if (tally_->Op(again.status(), "repeated Query") &&
          !SameAnswer(*again, result)) {
        tally_->Violation("repeated query within one epoch changed its answer");
      }
    }
  }

  const Inputs& in_;
  Target* target_;
  Samples* samples_;
  Tally* tally_;
  e2e::SpanRecorder* spans_;
  std::int64_t standing_errors_ = 0;
};

// ---- registry reading -------------------------------------------------------

/// Difference of two registry snapshots (steady phase only).
class RegistryDelta {
 public:
  RegistryDelta(ksir::RegistrySnapshot before, ksir::RegistrySnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}

  std::int64_t Count(const std::string& name) const {
    return Value(after_, name) - Value(before_, name);
  }

  /// Mean of a latency histogram over the phase, in ms (0 when empty).
  double MeanMs(const std::string& name) const {
    double sum = 0.0;
    std::int64_t count = 0;
    Accumulate(name, &sum, &count);
    return count > 0 ? 1000.0 * sum / static_cast<double>(count) : 0.0;
  }

  /// Pooled mean over every histogram whose name starts with `prefix`.
  double PooledMeanMs(const std::string& prefix) const {
    double sum = 0.0;
    std::int64_t count = 0;
    for (const auto& m : after_.metrics) {
      if (m.type == ksir::MetricType::kHistogram &&
          m.name.rfind(prefix, 0) == 0) {
        Accumulate(m.name, &sum, &count);
      }
    }
    return count > 0 ? 1000.0 * sum / static_cast<double>(count) : 0.0;
  }

 private:
  static std::int64_t Value(const ksir::RegistrySnapshot& s,
                            const std::string& name) {
    const ksir::MetricSnapshot* m = s.Find(name);
    return m == nullptr ? 0 : m->value;
  }

  void Accumulate(const std::string& name, double* sum,
                  std::int64_t* count) const {
    const ksir::MetricSnapshot* a = after_.Find(name);
    if (a == nullptr) return;
    const ksir::MetricSnapshot* b = before_.Find(name);
    *sum += a->histogram.sum - (b ? b->histogram.sum : 0.0);
    *count += a->histogram.count - (b ? b->histogram.count : 0);
  }

  ksir::RegistrySnapshot before_;
  ksir::RegistrySnapshot after_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<e2e::Metric> PerLayerMetrics(const RegistryDelta& d,
                                         const Samples& s,
                                         double overhead_pct) {
  const double steps =
      static_cast<double>(std::max<std::size_t>(s.bucket_ms.size(), 1));
  const double rounds =
      static_cast<double>(std::max<std::int64_t>(s.standing_rounds, 1));
  auto total = [&](const char* name) {
    return static_cast<double>(d.Count(name));
  };
  auto per_step = [&](const char* name) { return total(name) / steps; };
  auto per_round = [&](const char* name) { return total(name) / rounds; };
  auto ms = [&](const char* name) { return d.MeanMs(name); };
  const double repositions = total("ksir_maintainer_repositions_total");
  const double elisions = total("ksir_maintainer_elisions_total");
  const double activated = total("ksir_sub_activated_total");
  const double skipped = total("ksir_sub_skipped_total");
  const double hits = total("ksir_cache_hits_total");
  const double misses = total("ksir_cache_misses_total");
  const QueryWork& td = s.mttd_work;
  const QueryWork& ts = s.mtts_work;
  return {
      {"window.active_elements", s.active_sum / steps, "count"},
      {"maintain.advance_ms", ms("ksir_engine_advance_seconds"), "ms"},
      {"maintain.expiry_ms", ms("ksir_maintainer_stage_expiry_seconds"), "ms"},
      {"maintain.score_ms", ms("ksir_maintainer_stage_score_seconds"), "ms"},
      {"maintain.gather_ms", ms("ksir_maintainer_stage_gather_seconds"), "ms"},
      {"maintain.list_apply_ms",
       ms("ksir_maintainer_stage_list_apply_seconds"), "ms"},
      {"maintain.repositions", repositions / steps, "count"},
      {"maintain.fresh", per_step("ksir_maintainer_fresh_total"), "count"},
      {"maintain.expired", per_step("ksir_maintainer_expired_total"), "count"},
      {"maintain.touched",
       per_step("ksir_maintainer_elements_touched_total"), "count"},
      {"maintain.elisions", elisions / steps, "count"},
      {"maintain.elision_ratio", Ratio(elisions, repositions + elisions),
       "ratio"},
      {"query.mttd_evaluated", td.MeanOf(td.evaluated), "count"},
      {"query.mttd_retrieved", td.MeanOf(td.retrieved), "count"},
      {"query.mttd_gain_evals", td.MeanOf(td.gain_evals), "count"},
      {"query.mttd_rounds", td.MeanOf(td.rounds), "count"},
      {"query.mttd_eval_ratio", td.MeanOf(td.eval_ratio), "ratio"},
      {"query.mtts_evaluated", ts.MeanOf(ts.evaluated), "count"},
      {"query.mtts_retrieved", ts.MeanOf(ts.retrieved), "count"},
      {"query.mtts_gain_evals", ts.MeanOf(ts.gain_evals), "count"},
      {"query.mtts_candidates", ts.MeanOf(ts.rounds), "count"},
      {"query.mtts_eval_ratio", ts.MeanOf(ts.eval_ratio), "ratio"},
      {"sub.round_ms", ms("ksir_sub_evaluate_seconds"), "ms"},
      {"sub.activated", activated / rounds, "count"},
      {"sub.skipped", skipped / rounds, "count"},
      {"sub.evaluations", per_round("ksir_sub_evaluations_total"), "count"},
      {"sub.shared_hits", per_round("ksir_sub_shared_hits_total"), "count"},
      {"sub.deltas", per_round("ksir_sub_deltas_total"), "count"},
      {"sub.skip_ratio", Ratio(skipped, activated + skipped), "ratio"},
      {"sub.share_ratio",
       Ratio(total("ksir_sub_shared_hits_total"), activated), "ratio"},
      {"ingest.shard_advance_ms", ms("ksir_ingest_bucket_seconds"), "ms"},
      {"ingest.cross_shard_refs",
       per_step("ksir_ingest_cross_shard_refs_total"), "count"},
      {"router.active_skew", s.skew_sum / steps, "ratio"},
      {"planner.plan_ms", ms("ksir_planner_plan_seconds"), "ms"},
      {"planner.fanout_ms",
       d.PooledMeanMs("ksir_planner_shard_fanout_seconds_"), "ms"},
      {"planner.merge_ms", ms("ksir_planner_merge_seconds"), "ms"},
      {"planner.epoch_retries", total("ksir_planner_epoch_retries_total"),
       "count"},
      {"planner.merge_win_ratio",
       Ratio(total("ksir_planner_merge_wins_total"),
             total("ksir_planner_plans_total")),
       "ratio"},
      {"cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"cache.lookup_ms", ms("ksir_service_cache_lookup_seconds"), "ms"},
      {"cache.evictions", total("ksir_cache_evictions_total"), "count"},
      {"pool.tasks", per_step("ksir_pool_tasks_total"), "count"},
      {"pool.task_ms", ms("ksir_pool_task_seconds"), "ms"},
      {"pool.steals", total("ksir_pool_steals_total"), "count"},
      {"telemetry.overhead_pct", overhead_pct, "%"},
  };
}

// ---- the run ----------------------------------------------------------------

struct WarmupWork {
  std::size_t active = 0;
  std::int64_t repositions = 0;
  std::uint64_t epoch = 0;
  bool operator==(const WarmupWork&) const = default;
};

/// The buckets of the first window T, ingested by every set-up.
std::vector<std::vector<SocialElement>> WarmupBuckets(const Inputs& inputs) {
  std::vector<std::vector<SocialElement>> warmup;
  for (std::size_t b = 0; b < static_cast<std::size_t>(kWindow / kBucket);
       ++b) {
    warmup.push_back(MakeBucket(inputs, b));
  }
  return warmup;
}

/// Constructs a target and ingests the first window (plus, for the service,
/// registers the subscriptions and runs the first standing round). The
/// warm-up buckets are materialized by the caller, outside the clock, and
/// consumed here.
std::unique_ptr<Target> SetUp(const WorkloadSpec& spec, const Inputs& inputs,
                              const ksir::EngineConfig& config, bool counters,
                              std::vector<std::vector<SocialElement>> warmup,
                              Tally* tally) {
  auto target = std::make_unique<Target>(spec, inputs, config, counters);
  if (!target->ok()) {
    tally->Op(ksir::Status::InvalidArgument("engine/service config rejected"),
              "Create");
    return nullptr;
  }
  for (std::size_t b = 0; b < warmup.size(); ++b) {
    tally->Op(target->AdvanceTo(BucketEnd(b), std::move(warmup[b])),
              "warm-up AdvanceTo");
  }
  if (spec.service) {
    tally->Op(target->Subscribe(inputs), "first standing round");
  }
  return target;
}

WarmupWork WarmupOf(const Target& target) {
  WarmupWork w;
  w.active = target.NumActive();
  const auto snap = target.registry().Snapshot();
  const auto* rep = snap.Find("ksir_maintainer_repositions_total");
  w.repositions = rep ? rep->value : 0;
  w.epoch = target.epoch();
  return w;
}

/// Compares this run's work fingerprint with an earlier run of the same
/// seed and settings (stored under `dir`); stores it on the first run.
void CheckFingerprint(const Options& options, std::size_t steps,
                      const std::string& line, Tally* tally) {
  if (options.fingerprint_dir.empty()) return;
  char name[512];
  std::snprintf(name, sizeof(name), "%s/%s-%s-seed%llu-steps%zu%s.txt",
                options.fingerprint_dir.c_str(), options.workload.c_str(),
                options.variant.c_str(),
                static_cast<unsigned long long>(options.seed), steps,
                options.smoke ? "-smoke" : "");
  std::ifstream in(name);
  std::string previous;
  if (std::getline(in, previous)) {
    if (previous != line) {
      tally->Violation("work counts differ from an earlier run with this "
                       "seed: " + previous + " vs " + line);
    } else {
      std::printf("# work counts match the earlier run with this seed\n");
    }
    return;
  }
  std::ofstream out(name);
  out << line << "\n";
}

int Run(const Options& options) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  ksir::EngineConfig config;
  config.window_length = kWindow;
  config.bucket_length = kBucket;
  config.scoring.lambda = 0.5;
  if (!ApplyVariant(options.variant, &config)) {
    std::fprintf(stderr, "unknown variant '%s'\n", options.variant.c_str());
    return 2;
  }

  // Inputs: outside every metric.
  auto made = MakeInputs(*spec, options.seed, options.smoke);
  if (!made.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 made.status().ToString().c_str());
    return 2;
  }
  const Inputs& inputs = *made;
  config.scoring.eta = inputs.dataset.eta;
  // The benchmark's own share of peak_rss_mb: the generated inputs.
  const double inputs_rss_mb = e2e::RssMb();
  e2e::HostProbe probe(kProbeBytes, kProbeHops);
  const std::size_t warmup_buckets =
      static_cast<std::size_t>(kWindow / kBucket);
  // The traced run drives two copies, so each runs half the steps.
  const std::size_t full_steps =
      options.smoke ? 24
                    : std::max<std::size_t>(
                          220, static_cast<std::size_t>(std::llround(
                                   options.seconds * spec->steps_per_second)));
  const std::size_t steps = options.trace ? full_steps / 2 : full_steps;
  const std::size_t checkpoints = options.smoke ? 2 : 6;
  ksir::Rng step_rng(options.seed * 7919 + 5);
  std::vector<StepQueries> step_queries;
  for (std::size_t i = 0; i < steps; ++i) {
    step_queries.push_back(DrawStep(*spec, inputs, &step_rng));
  }

  Tally tally;
  const bool trace = options.trace;
  // Untraced runs set up 1 + `timed_setups` times and report the median CPU
  // time of the timed ones. The untimed first set-up takes the process's
  // first page faults, so every timed one starts from the same state: the
  // previous target freed. The last target is kept for the steady phase.
  const int timed_setups = trace ? 0 : (options.smoke ? 2 : 9);
  std::vector<double> setup_s, setup_wall_s;
  std::unique_ptr<Target> target;
  WarmupWork first_warmup;
  for (int rep = 0; rep <= timed_setups; ++rep) {
    target.reset();
    auto warmup = WarmupBuckets(inputs);
    probe.Walk();
    const e2e::Stamp t0 = e2e::Stamp::Now();
    target = SetUp(*spec, inputs, config, false, std::move(warmup), &tally);
    const e2e::Elapsed t = e2e::Between(t0, e2e::Stamp::Now());
    if (target == nullptr) return 1;
    if (rep > 0) {
      setup_s.push_back(t.cpu_ms / 1000.0);
      setup_wall_s.push_back(t.wall_ms / 1000.0);
    }
    const WarmupWork w = WarmupOf(*target);
    if (rep == 0) {
      first_warmup = w;
    } else if (!(w == first_warmup)) {
      tally.Violation("warm-up work differs between set-ups of one run");
    }
  }
  std::unique_ptr<Target> traced;
  e2e::SpanRecorder spans(trace);
  e2e::SpanRecorder no_spans(false);
  if (trace) {
    traced =
        SetUp(*spec, inputs, config, true, WarmupBuckets(inputs), &tally);
    if (traced == nullptr) return 1;
    if (!(WarmupOf(*traced) == first_warmup)) {
      tally.Violation("traced warm-up work differs from the untraced one");
    }
  }

  Samples samples;
  Samples traced_samples;
  StepRunner runner(inputs, target.get(), &samples, &tally, &no_spans);
  std::unique_ptr<StepRunner> traced_runner;
  if (trace) {
    traced_runner = std::make_unique<StepRunner>(
        inputs, traced.get(), &traced_samples, &tally, &spans);
  }
  const ksir::RegistrySnapshot before = target->registry().Snapshot();
  const ksir::RegistrySnapshot traced_before =
      trace ? traced->registry().Snapshot() : ksir::RegistrySnapshot{};
  const e2e::CpuTimes cpu_before = e2e::ReadCpuTimes();
  rusage usage_before{};
  getrusage(RUSAGE_SELF, &usage_before);
  const auto phase_start = e2e::Clock::now();
  std::vector<QueryResult> answers;
  std::vector<QueryResult> traced_answers;
  for (std::size_t i = 0; i < steps; ++i) {
    probe.Walk();
    const std::size_t b = warmup_buckets + i;
    const bool checkpoint = (i + 1) % (steps / checkpoints) == 0;
    answers.clear();
    traced_answers.clear();
    // Alternate which arm goes first so neither is favoured by order.
    if (trace && i % 2 == 1) {
      traced_runner->Run(b, step_queries[i], false, false, &traced_answers);
    }
    runner.Run(b, step_queries[i], checkpoint, true, &answers);
    if (trace && i % 2 == 0) {
      traced_runner->Run(b, step_queries[i], false, false, &traced_answers);
    }
    if (trace) {
      for (std::size_t q = 0; q < answers.size(); ++q) {
        if (!SameAnswer(answers[q], traced_answers[q])) {
          tally.Violation("traced answer differs from the untraced answer");
        }
      }
    }
  }
  const auto phase_end = e2e::Clock::now();
  const e2e::CpuTimes cpu_after = e2e::ReadCpuTimes();
  rusage usage_after{};
  getrusage(RUSAGE_SELF, &usage_after);
  const RegistryDelta delta(before, target->registry().Snapshot());

  // Work counts that must repeat exactly for a seed.
  const std::int64_t repositions =
      delta.Count("ksir_maintainer_repositions_total");
  const std::int64_t sub_evals = delta.Count("ksir_sub_evaluations_total");
  const std::int64_t cache_hits = delta.Count("ksir_cache_hits_total");
  // One client thread never ingests while a query runs, so a planner retry
  // would mean the epoch check misfires.
  if (delta.Count("ksir_planner_epoch_retries_total") != 0) {
    tally.Violation("planner epoch retries with a single client thread");
  }
  char work[512];
  std::snprintf(
      work, sizeof(work),
      "elements=%lld repositions=%lld fresh=%lld expired=%lld "
      "mttd_evaluated=%.0f mttd_retrieved=%.0f mtts_evaluated=%.0f "
      "mtts_retrieved=%.0f sub_evaluations=%lld cache_hits=%lld "
      "results=%016llx",
      static_cast<long long>(samples.elements),
      static_cast<long long>(repositions),
      static_cast<long long>(delta.Count("ksir_maintainer_fresh_total")),
      static_cast<long long>(delta.Count("ksir_maintainer_expired_total")),
      samples.mttd_work.evaluated, samples.mttd_work.retrieved,
      samples.mtts_work.evaluated, samples.mtts_work.retrieved,
      static_cast<long long>(sub_evals), static_cast<long long>(cache_hits),
      static_cast<unsigned long long>(samples.results.value()));

  // Steadiness self-report.
  const double phase_s = e2e::SecondsBetween(phase_start, phase_end);
  std::printf("# workload=%s seed=%llu seconds=%g variant=%s trace=%d%s\n",
              spec->name, static_cast<unsigned long long>(options.seed),
              options.seconds, options.variant.c_str(), trace ? 1 : 0,
              options.smoke ? " smoke" : "");
  std::printf("# host: nproc=%ld hardware_concurrency=%u steal_share=%.4f "
              "minor_faults=%ld involuntary_switches=%ld\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(),
              e2e::StealShare(cpu_before, cpu_after),
              usage_after.ru_minflt - usage_before.ru_minflt,
              usage_after.ru_nivcsw - usage_before.ru_nivcsw);
  std::printf("# timed phase: %.3f s wall, %zu steps after a %zu-bucket "
              "window; timed setups=%d\n",
              phase_s, steps, warmup_buckets, timed_setups);
  std::printf("# memory: rss after input generation %.1f MB (the "
              "benchmark's own inputs), peak %.1f MB\n",
              inputs_rss_mb, e2e::PeakRssMb());
  // Wall-clock figures: what a client waits, including time the host did
  // not run the process. Reported, not gated (see README.md).
  std::printf("# wall: setup_s=%.5g ingest_elements_per_s=%.6g "
              "bucket_p50_ms=%.5g bucket_p95_ms=%.5g mttd_p50_ms=%.5g "
              "mttd_p95_ms=%.5g mtts_p50_ms=%.5g mtts_p95_ms=%.5g\n",
              e2e::Quantile(setup_wall_s, 0.5),
              Ratio(static_cast<double>(samples.elements), samples.advance_s),
              e2e::Quantile(samples.bucket_ms, 0.5),
              e2e::Quantile(samples.bucket_ms, 0.95),
              e2e::Quantile(samples.mttd_ms, 0.5),
              e2e::Quantile(samples.mttd_ms, 0.95),
              e2e::Quantile(samples.mtts_ms, 0.5),
              e2e::Quantile(samples.mtts_ms, 0.95));
  std::printf("# samples: bucket=%zu mttd=%zu mtts=%zu (p95 has %zu/%zu/%zu "
              "beyond it); celf checkpoints: mttd=%zu mtts=%zu; standing "
              "repeat checks=%lld\n",
              samples.bucket_ms.size(), samples.mttd_ms.size(),
              samples.mtts_ms.size(), samples.bucket_ms.size() / 20,
              samples.mttd_ms.size() / 20, samples.mtts_ms.size() / 20,
              samples.mttd_ratio.size(), samples.mtts_ratio.size(),
              static_cast<long long>(samples.sub_repeat_checks));
  std::printf("# work: %s\n", work);
  CheckFingerprint(options, steps, work, &tally);

  const double probe_ms = e2e::Quantile(probe.samples_ms(), 0.5);
  const double host_scale = probe_ms > 0.0 ? kProbeReferenceMs / probe_ms : 1.0;
  std::printf("# host speed: probe walk median %.5f ms over %zu walks "
              "(reference %.3f ms); CPU timings scaled by %.4f\n",
              probe_ms, probe.samples_ms().size(), kProbeReferenceMs,
              host_scale);

  std::vector<e2e::Metric> metrics;
  if (!trace) {
    const std::vector<e2e::Metric> cpu = {
        {"setup_s", e2e::Quantile(setup_s, 0.5), "s"},
        {"ingest_elements_per_cpu_s",
         Ratio(static_cast<double>(samples.elements), samples.advance_cpu_s),
         "1/s"},
        {"bucket_cpu_p50_ms", e2e::Quantile(samples.bucket_cpu_ms, 0.5), "ms"},
        {"bucket_cpu_p95_ms", e2e::Quantile(samples.bucket_cpu_ms, 0.95),
         "ms"},
        {"mttd_cpu_p50_ms", e2e::Quantile(samples.mttd_cpu_ms, 0.5), "ms"},
        {"mttd_cpu_p95_ms", e2e::Quantile(samples.mttd_cpu_ms, 0.95), "ms"},
        {"mtts_cpu_p50_ms", e2e::Quantile(samples.mtts_cpu_ms, 0.5), "ms"},
        {"mtts_cpu_p95_ms", e2e::Quantile(samples.mtts_cpu_ms, 0.95), "ms"},
    };
    std::printf("# cpu (unscaled):");
    for (const e2e::Metric& m : cpu) {
      std::printf(" %s=%.6g", m.name.c_str(), m.value);
      // A rate scales inversely to a time.
      metrics.push_back({m.name,
                         m.unit == "1/s" ? m.value / host_scale
                                         : m.value * host_scale,
                         m.unit});
    }
    std::printf("\n");
    metrics.push_back({"peak_rss_mb", e2e::PeakRssMb(), "MB"});
    metrics.push_back(
        {"mttd_score_ratio", e2e::Mean(samples.mttd_ratio), "ratio"});
    metrics.push_back(
        {"mtts_score_ratio", e2e::Mean(samples.mtts_ratio), "ratio"});
    if (samples.mttd_ratio.empty() || samples.mtts_ratio.empty()) {
      tally.Violation("no CELF checkpoint produced a score ratio");
    }
  } else {
    const RegistryDelta traced_delta(traced_before,
                                     traced->registry().Snapshot());
    const double untraced_step = e2e::Quantile(samples.step_cpu_ms, 0.5);
    const double traced_step = e2e::Quantile(traced_samples.step_cpu_ms, 0.5);
    const double overhead_pct =
        untraced_step > 0.0 ? 100.0 * (traced_step / untraced_step - 1.0) : 0.0;
    metrics = PerLayerMetrics(traced_delta, traced_samples, overhead_pct);
    std::printf("# per-layer (traced arm, steady phase):\n");
    for (const e2e::Metric& m : metrics) {
      std::printf("#   %-26s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("# spans (count, total ms, self ms):\n");
    for (const auto& s : spans.Summarize()) {
      std::printf("#   %-26s %8zu %12.3f %12.3f\n", s.name.c_str(), s.count,
                  s.total_ms, s.self_ms);
    }
    if (!options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      out << spans.ChromeTraceJson();
      if (!out) tally.Violation("could not write " + options.trace_out);
      std::printf("# chrome trace: %s (%zu spans)\n", options.trace_out.c_str(),
                  spans.spans().size());
    }
  }

  const bool correct = tally.violations == 0 && tally.failed == 0;
  std::printf("%s\n",
              e2e::ResultJson(correct, tally.attempted, tally.failed, metrics)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: ksir_e2e --workload <tweet_ingest|citation_query|"
                 "service_subs> --seed <n> --seconds <s> --trace <0|1> "
                 "[--variant <base|no_handles|batch_min_0|threads_4|"
                 "recompute|scalar>] [--smoke] [--trace-out <file>] "
                 "[--fingerprint-dir <dir>]\n");
    return 2;
  }
  return Run(options);
}
