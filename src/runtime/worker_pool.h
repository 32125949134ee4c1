// Shared runtime layer: the fixed-size thread pool used by the whole
// system — the sharded service advances shards and fans queries out on it,
// and the core engine's maintainer executes its staged bucket work on it.
// It lives below both so the engine can parallelize without depending on
// the service. Deliberately minimal: tasks are std::function<void()>,
// results travel through captured state, and WaitIdle() gives the caller a
// barrier. The ksir library itself is exception-free (errors travel as
// Status through captured state), but the pool must not be: a task that
// throws — user callbacks, std::bad_alloc — would otherwise leave the
// in-flight counters permanently elevated and deadlock every waiter. The
// first exception of a batch is captured and rethrown to the waiter; the
// counters are decremented on every exit path.
//
// Scheduling is SHARD-AFFINE: every worker owns a task deque, Submit
// round-robins across them, SubmitTo targets one worker, and an idle
// worker steals from its neighbors (oldest task first) so affinity is a
// preference, never a stall. The point is cache locality for the
// maintainer's topic-sharded stages: ParallelRunAffine places participant
// p's helper on worker p - 1 every bucket, so the same topic shard keeps
// landing on the same OS thread (and, with PoolOptions::pin_threads, the
// same CPU) while work conservation is preserved by the steal path.
#ifndef KSIR_RUNTIME_WORKER_POOL_H_
#define KSIR_RUNTIME_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/telemetry.h"

namespace ksir {

/// Construction-time pool knobs (see MakeWorkerPool).
struct PoolOptions {
  /// Pin worker i to the i-th CPU of the process's allowed set
  /// (pthread_setaffinity_np over sched_getaffinity). Best-effort: a pin
  /// the kernel refuses (cgroup cpuset shrank, CPU went offline) or a
  /// non-Linux platform counts into `ksir_pool_pin_failures_total` and the
  /// worker runs unpinned — affinity is a performance hint, never a
  /// correctness dependency.
  bool pin_threads = false;
};

/// Shared worker pool. Thread-safe; Submit may be called from any thread,
/// including from inside a task (tasks must not WaitIdle, though — that
/// would deadlock the barrier they are part of; use ParallelRun /
/// ParallelRunAffine for nested fan-out, their caller participation never
/// blocks pool progress).
class WorkerPool {
 public:
  /// Spawns `num_threads` workers (>= 1; 0 is clamped to 1). Prefer
  /// MakeWorkerPool — the one factory every deployment seam constructs
  /// pools through. `telemetry` (optional, must outlive the pool) receives
  /// the per-worker queue-depth gauges, task/steal/pin counters and the
  /// task-latency histogram; null gives the pool a private kOff Telemetry.
  explicit WorkerPool(std::size_t num_threads, Telemetry* telemetry = nullptr,
                      PoolOptions options = {});

  /// Drains the queues, then joins all workers. An exception captured
  /// after the last WaitIdle is discarded.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues `task` for execution on some worker (round-robin home queue;
  /// any idle worker may steal it). A throwing task does not kill the
  /// worker: the first exception since the last WaitIdle is captured and
  /// rethrown there.
  void Submit(std::function<void()> task);

  /// Enqueues `task` with `worker` (mod num_threads) as its home queue:
  /// the affinity seam ParallelRunAffine schedules through. Still
  /// work-conserving — an idle worker steals it if the home worker is
  /// busy.
  void SubmitTo(std::size_t worker, std::function<void()> task);

  /// Blocks until every submitted task has finished executing, then
  /// rethrows the first exception any of them raised (clearing it).
  void WaitIdle();

  std::size_t num_threads() const { return threads_.size(); }

  /// Workers successfully pinned to a CPU (0 unless
  /// PoolOptions::pin_threads; may be < num_threads on pin failure).
  std::size_t pinned_threads() const { return pinned_threads_; }

 private:
  void WorkerLoop(std::size_t worker);
  void PinThreads();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  /// One deque per worker. Guarded by the one pool mutex: pool tasks are
  /// coarse (a maintenance stage, a shard advance), so queue ops are not
  /// the contention point and per-queue locks would buy nothing — the
  /// per-worker split exists for AFFINITY (a worker pops its own queue
  /// first), not for lock sharding.
  std::vector<std::deque<std::function<void()>>> queues_;
  std::size_t pending_ = 0;    // tasks queued across all deques
  std::size_t in_flight_ = 0;  // tasks currently executing
  std::size_t next_worker_ = 0;  // round-robin cursor for plain Submit
  /// First exception thrown by a directly submitted task (TaskGroup tasks
  /// capture into their group instead); rethrown by WaitIdle.
  std::exception_ptr first_exception_;
  bool shutdown_ = false;
  std::size_t pinned_threads_ = 0;
  /// Fallback Telemetry (kOff) owned when none was passed; keeps the
  /// metric pointers below always valid.
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_;
  /// Per-worker instantaneous queue depth (set under mutex_ at every
  /// push/pop, so plain last-value gauges are exact) plus the aggregate
  /// depth existing dashboards watch. The registry is name-keyed (no
  /// labels), so the per-worker series are suffixed _worker_<i>.
  Gauge* queue_depth_gauge_;
  std::vector<Gauge*> worker_depth_gauges_;
  Counter* tasks_counter_;
  /// Tasks a worker popped from another worker's queue (starvation /
  /// imbalance visibility for the affine scheduling).
  Counter* steals_counter_;
  /// Pin attempts the platform or kernel refused.
  Counter* pin_failures_counter_;
  Histogram* task_hist_;
  std::vector<std::thread> threads_;
};

/// The one pool-construction seam (service, engine-owned maintenance
/// pools, benches, tests): resolves `requested` threads — 0 falls back to
/// `fallback` — and builds the pool. Keeping every call site on this
/// factory is what makes "no stray thread spawns" checkable.
std::unique_ptr<WorkerPool> MakeWorkerPool(std::size_t requested,
                                           std::size_t fallback = 1,
                                           Telemetry* telemetry = nullptr,
                                           PoolOptions options = {});

/// Completion barrier for one batch of tasks on a shared pool. Unlike
/// WorkerPool::WaitIdle, Wait() only blocks on tasks submitted through THIS
/// group, so concurrent queries and ingestion can share one pool without
/// waiting on each other's work. Exceptions thrown by group tasks belong to
/// the group: Wait() rethrows the first one, the pool never sees them.
class TaskGroup {
 public:
  /// `pool` must outlive the group.
  explicit TaskGroup(WorkerPool* pool) : pool_(pool) {}

  /// Drains the group without rethrowing (an exception never surfaced by a
  /// Wait() call is discarded; destructors must not throw).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task` on the pool and tracks it in this group. The pending
  /// count is decremented whether the task returns or throws.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted through this group has finished,
  /// then rethrows the first exception any of them raised (clearing it).
  void Wait();

 private:
  /// The barrier without the rethrow (shared by Wait and the destructor).
  void WaitDrained();

  WorkerPool* pool_;
  std::mutex mutex_;
  std::condition_variable done_;
  std::size_t pending_ = 0;
  std::exception_ptr first_exception_;
};

/// Runs `fn(i)` for every i in [0, n) with CALLER PARTICIPATION: up to
/// n - 1 helper tasks are enqueued on the pool, every participant claims
/// indices from a shared cursor, and the caller keeps claiming and running
/// work itself until none is left — so the call makes progress even when
/// every pool worker is busy (or when the caller IS a pool worker, as with
/// per-shard maintenance fanning out on the service's shared pool).
/// Helpers never block: one that finds the cursor exhausted simply
/// returns. That is what makes nested fan-out deadlock-free where a
/// TaskGroup::Wait inside a pool task is not. Each index is executed by
/// exactly one participant; the call returns after every claimed index has
/// finished, rethrowing the first exception any fn raised.
///
/// One-participant contract: with n == 1 the call runs fn(0) inline on
/// the calling thread and never touches `pool`, which may then be null
/// (the maintainer's one-participant bucket apply relies on this). With
/// n >= 2 a null `pool` fails a KSIR_CHECK.
void ParallelRun(WorkerPool* pool, std::size_t n,
                 std::function<void(std::size_t)> fn);

/// ParallelRun with SHARD AFFINITY: runs `fn(p, u)` for every unit
/// u in [0, units), executed by exactly one of `participants` participants
/// (p = the executing participant's stable index — safe to key per-
/// participant scratch on). Participant p claims its strided share
/// (u = p, p + P, ...) first, then sweeps the whole range stealing
/// whatever is still unclaimed; its helper task is placed on worker p - 1
/// through SubmitTo, so the SAME unit residues keep landing on the SAME
/// worker across calls — the cache-affinity contract of the maintainer's
/// topic-sharded stages. The caller is participant 0 and, like
/// ParallelRun, can complete every unit itself: it never waits on a task
/// that has not started, which keeps nested fan-out on a busy shared pool
/// deadlock-free. Rethrows the first exception any fn raised.
///
/// One-participant contract: when min(participants, units) <= 1 the call
/// runs fn(0, u) for u = 0, 1, ... inline on the calling thread and never
/// touches `pool`, which may then be null. With two or more effective
/// participants a null `pool` fails a KSIR_CHECK.
void ParallelRunAffine(WorkerPool* pool, std::size_t participants,
                       std::size_t units,
                       std::function<void(std::size_t, std::size_t)> fn);

}  // namespace ksir

#endif  // KSIR_RUNTIME_WORKER_POOL_H_
