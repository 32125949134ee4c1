// KsirEngine: the top-level query-processing system of Figure 4.
//
// Owns the active window, the per-topic ranked lists and the scoring
// context; ingests the stream in buckets (Algorithm 1) and answers ad-hoc
// k-SIR queries with any of the implemented algorithms. Concurrent queries
// are allowed (shared lock); bucket ingestion is exclusive.
#ifndef KSIR_CORE_ENGINE_H_
#define KSIR_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "core/candidate_state.h"
#include "core/index_maintainer.h"
#include "core/query.h"
#include "core/ranked_list.h"
#include "core/scoring.h"
#include "stream/element.h"
#include "telemetry/telemetry.h"
#include "topic/topic_model.h"
#include "window/active_window.h"

namespace ksir {

/// Engine configuration (paper defaults: T = 24 h, L = 15 min,
/// lambda = 0.5, eta = 20 or 200).
struct EngineConfig {
  ScoringParams scoring;
  /// Window length T in stream time units.
  Timestamp window_length = 24 * 3600;
  /// Bucket length L in stream time units; must divide evenly into the
  /// ingestion pattern (buckets end at multiples of L).
  Timestamp bucket_length = 15 * 60;
  /// How long deactivated elements stay resurrectable by late references;
  /// <= 0 means "same as window_length" (see ActiveWindow).
  Timestamp archive_retention = 0;
  RefreshMode refresh_mode = RefreshMode::kExact;
  /// Score source of the one maintenance pipeline: kIncremental composes
  /// cached score halves (production), kRecompute computes delta_i(e) from
  /// scratch (the reference oracle; see IndexMaintainer).
  ScoreMaintenance score_maintenance = ScoreMaintenance::kIncremental;
  /// No-op kept for source compatibility: every ranked-list reposition is
  /// one RankedList::UpdateHandle, so there is no merge-sweep threshold to
  /// set. The field no longer reaches the maintainer.
  std::size_t reposition_batch_min = 0;
  /// Read the ranked-list position handles carried through the pipeline
  /// (window -> score cache -> maintainer -> ranked lists). false switches
  /// the handle layer off: every list position resolves by its carried
  /// listed key, the fallback a stale handle takes anyway.
  bool carry_handles = true;
  /// Participants in the staged bucket apply (the element-sharded
  /// scoring/folding stage and the topic-sharded expiry, gather and list
  /// stages; see IndexMaintainer). The advancing thread is one participant;
  /// 0/1 = it runs every stage alone, with no pool. From 2 on the engine
  /// spawns (or shares; see KsirEngine's pool parameter and ServiceConfig)
  /// a runtime WorkerPool for the remaining maintenance_threads - 1.
  /// Determinism contract: the apply is bitwise-identical at every
  /// participant count, so this knob trades threads for latency only.
  std::size_t maintenance_threads = 0;
  /// Balance cap of the service's chain-affinity shard router: routing an
  /// element onto a shard whose RECENT load (placements within the
  /// trailing window) would exceed `max_shard_imbalance * (least-loaded
  /// shard + 1)` falls back to the least-loaded shard instead (costing
  /// that element's chain edges). 0 disables the cap (pure chain
  /// affinity); values >= 1 enable it. The router enforces the cap with
  /// 10% headroom on its load proxy (floored at exact balance), so the
  /// configured value is the bound intended to hold on the OBSERVED
  /// active-set spread — see ShardRouter. Lives in the engine config so
  /// every deployment seam (service, benches, tests) shares one knob next
  /// to the window/bucket geometry.
  double max_shard_imbalance = 0.0;
  /// Telemetry level and tracing knobs for the engine-owned Telemetry.
  /// Ignored when a shared Telemetry is passed to the constructor (the
  /// sharing owner's config governs); see telemetry.h for the cost model.
  TelemetryConfig telemetry;
};

/// Cumulative ingestion statistics.
struct MaintenanceStats {
  std::int64_t elements_ingested = 0;
  std::int64_t buckets_processed = 0;
  std::int64_t elements_expired = 0;
  std::int64_t dangling_refs = 0;
  /// Total wall time spent in AdvanceTo (window + ranked-list updates).
  double total_update_ms = 0.0;
};

/// Splits `elements` (sorted by ts) into buckets ending at multiples of
/// `bucket_length` (the final open chunk ends at its last element's ts) and
/// feeds each through `advance`. The bucket-splitting rule shared by
/// KsirEngine::Append and the sharded service's Append.
Status AppendInBuckets(
    std::vector<SocialElement> elements, Timestamp bucket_length,
    const std::function<Timestamp()>& now,
    const std::function<Status(Timestamp, std::vector<SocialElement>)>&
        advance);

/// Validates an EngineConfig (positive bucket length, window covering at
/// least one bucket). Returned as Status so services can reject bad configs
/// without dying; the KsirEngine constructor still CHECK-fails on them.
Status ValidateEngineConfig(const EngineConfig& config);

/// Rejects a bucket the maintenance pipeline cannot index: an element with
/// a non-finite or negative topic weight, or a topic id outside
/// [0, num_topics). Checked before the window moves, so a rejected bucket
/// leaves the engine untouched.
Status ValidateBucket(const std::vector<SocialElement>& bucket,
                      std::size_t num_topics);

/// Rejects a malformed query: k < 1, an empty query vector, a non-finite
/// or negative query weight, or epsilon outside (0, 1) for the
/// epsilon-parameterized algorithms.
Status ValidateQuery(const KsirQuery& query);

/// True when `config` fans the staged bucket apply out over a pool
/// (maintenance_threads >= 2).
bool UsesParallelMaintenance(const EngineConfig& config);

class WorkerPool;

/// Streaming k-SIR query engine.
class KsirEngine {
 public:
  /// `model` must outlive the engine. Elements handed to the engine must
  /// already carry their sparse topic vectors (use TopicInferencer or a
  /// generator's ground truth). When the config enables parallel
  /// maintenance, `maintenance_pool` is the shared runtime pool the staged
  /// apply fans out on (it must outlive the engine — the seam the sharded
  /// service uses to run every shard on ONE process-wide pool); nullptr
  /// makes the engine own a pool built by the runtime factory. `telemetry`
  /// is the shared registry/tracer the engine and its maintainer record
  /// into (the sharded service hands every shard the service-wide one, so
  /// N shards aggregate into one series set); nullptr makes the engine own
  /// one configured by `config.telemetry`.
  KsirEngine(EngineConfig config, const TopicModel* model,
             WorkerPool* maintenance_pool = nullptr,
             Telemetry* telemetry = nullptr);

  ~KsirEngine();

  /// Validating factory for long-running callers that must not abort.
  static StatusOr<std::unique_ptr<KsirEngine>> Create(
      EngineConfig config, const TopicModel* model,
      WorkerPool* maintenance_pool = nullptr, Telemetry* telemetry = nullptr);

  /// Advances the clock to `bucket_end` and ingests `bucket` (elements with
  /// ts in (previous time, bucket_end], sorted by ts). Thread-exclusive.
  /// Rejects out-of-order bucket ends and malformed elements (see
  /// ValidateBucket) with InvalidArgument, and no-op calls that would
  /// neither move the clock nor ingest anything with FailedPrecondition.
  /// A rejected call changes nothing.
  Status AdvanceTo(Timestamp bucket_end, std::vector<SocialElement> bucket);

  /// Convenience: splits `elements` (sorted by ts) into buckets of
  /// `config.bucket_length` and ingests them all, ending at the bucket
  /// boundary that covers the last element.
  Status Append(std::vector<SocialElement> elements);

  /// Answers one k-SIR query at the current time. Thread-safe with other
  /// queries; blocks AdvanceTo.
  StatusOr<QueryResult> Query(const KsirQuery& query) const;

  /// Query, plus the gain terms of every result member against `query.x`,
  /// resolved under the same shared lock: (*member_terms)[i] belongs to
  /// element_ids[i]. The terms hold no pointer into this engine, so a
  /// caller may merge them with other engines' after the lock is released
  /// (the sharded planner's merge step).
  StatusOr<QueryResult> QueryWithTerms(
      const KsirQuery& query, std::vector<GainTerms>* member_terms) const;

  /// Gain terms of the active elements among `ids` against `x`, in `ids`
  /// order, under the query (shared) lock; ids that are not active are
  /// skipped.
  std::vector<GainTerms> ExportTerms(const SparseVector& x,
                                     const std::vector<ElementId>& ids) const;

  /// Current engine clock.
  Timestamp now() const;

  /// Monotone counter of successful AdvanceTo calls. Two equal epochs
  /// bracket a quiescent window: any query answered between them would see
  /// identical state, which is what makes epoch-keyed result caching sound.
  std::uint64_t bucket_epoch() const;

  /// Touched-topic summary of the most recent successful AdvanceTo, with
  /// `epoch` stamped to the bucket epoch it produced (see
  /// advance_summary.h). Empty with epoch 0 before the first bucket.
  /// Returns a copy under the query (shared) lock, so it is safe to call
  /// while another thread ingests.
  AdvanceSummary last_advance_summary() const;

  /// Current active-set size under the query (shared) lock — the accessor
  /// concurrent readers must use while another thread ingests (window() is
  /// unsynchronized by design).
  std::size_t num_active() const;

  /// The telemetry this engine records into (the shared one when passed,
  /// else the engine-owned one).
  Telemetry& telemetry() const { return *telemetry_; }

  /// Read access for tests / benches (not thread-safe against AdvanceTo).
  const ActiveWindow& window() const { return window_; }
  const RankedListIndex& index() const { return index_; }
  const ScoringContext& scoring() const { return scoring_; }
  const EngineConfig& config() const { return config_; }
  MaintenanceStats maintenance_stats() const;

 private:
  /// Runs `query`'s algorithm; the caller holds mutex_ (shared).
  StatusOr<QueryResult> RunLocked(const KsirQuery& query) const;

  /// ExportTerms' body; the caller holds mutex_ (shared).
  void ExportTermsLocked(const SparseVector& x,
                         const std::vector<ElementId>& ids,
                         std::vector<GainTerms>* out) const;

  EngineConfig config_;
  ActiveWindow window_;
  RankedListIndex index_;
  ScoringContext scoring_;
  /// Engine-owned telemetry (only when no shared one was passed); declared
  /// before the pool and the maintainer, which hold the raw pointer.
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_;
  Histogram* advance_hist_;
  /// Engine-owned maintenance pool (only when parallel maintenance is on
  /// and no shared pool was passed); declared before the maintainer, which
  /// holds the raw pointer.
  std::unique_ptr<WorkerPool> owned_pool_;
  IndexMaintainer maintainer_;
  MaintenanceStats stats_;
  std::uint64_t bucket_epoch_ = 0;
  /// Copy of the maintainer's last bucket summary, epoch-stamped (the
  /// maintainer's own is only valid until its next Apply).
  AdvanceSummary last_summary_;
  mutable std::shared_mutex mutex_;
};

}  // namespace ksir

#endif  // KSIR_CORE_ENGINE_H_
