// Shared runtime layer: the fixed-size thread pool used by the whole
// system — the sharded service advances shards and fans queries out on it,
// and the core engine's maintainer executes its staged bucket work on it.
// It lives below both so the engine can parallelize without depending on
// the service. Deliberately minimal: one FIFO queue, tasks are
// std::function<void()>, results travel through captured state, and
// ParallelRun is the one fan-out primitive. The ksir library itself is
// exception-free (errors travel as Status through captured state), but the
// pool must not be: a task that throws — user callbacks, std::bad_alloc —
// would otherwise leave the in-flight counters permanently elevated and
// deadlock every waiter. The first exception is captured and rethrown to
// the waiter; the counters are decremented on every exit path.
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

/// Shared worker pool. Thread-safe; Submit may be called from any thread,
/// including from inside a task (tasks must not WaitIdle, though — that
/// would deadlock the barrier they are part of; use ParallelRun for nested
/// fan-out, its caller participation never blocks pool progress).
class WorkerPool {
 public:
  /// Spawns `num_threads` workers (>= 1; 0 is clamped to 1). Prefer
  /// MakeWorkerPool — the one factory every deployment seam constructs
  /// pools through. `telemetry` (optional, must outlive the pool) receives
  /// the queue-depth gauge, the task counter and the task-latency
  /// histogram; null gives the pool a private kOff Telemetry.
  explicit WorkerPool(std::size_t num_threads, Telemetry* telemetry = nullptr);

  /// Drains the queue, then joins all workers. An exception captured
  /// after the last WaitIdle is discarded.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues `task` for execution on some worker, in FIFO order. A
  /// throwing task does not kill the worker: the first exception since the
  /// last WaitIdle is captured and rethrown there.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing, then
  /// rethrows the first exception any of them raised (clearing it).
  void WaitIdle();

  std::size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // tasks currently executing
  /// First exception thrown by a directly submitted task (ParallelRun
  /// helpers capture into their call instead); rethrown by WaitIdle.
  std::exception_ptr first_exception_;
  bool shutdown_ = false;
  /// Fallback Telemetry (kOff) owned when none was passed; keeps the
  /// metric pointers below always valid.
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_;
  /// Instantaneous queue depth, set under mutex_ at every push/pop.
  Gauge* queue_depth_gauge_;
  Counter* tasks_counter_;
  Histogram* task_hist_;
  std::vector<std::thread> threads_;
};

/// The one pool-construction seam (service, engine-owned maintenance
/// pools, benches, tests): resolves `requested` threads — 0 falls back to
/// `fallback` — and builds the pool. Keeping every call site on this
/// factory is what makes "no stray thread spawns" checkable.
std::unique_ptr<WorkerPool> MakeWorkerPool(std::size_t requested,
                                           std::size_t fallback = 1,
                                           Telemetry* telemetry = nullptr);

/// Runs `fn(i)` for every i in [0, n) with CALLER PARTICIPATION: up to
/// n - 1 helper tasks are enqueued on the pool, every participant claims
/// indices from a shared cursor, and the caller keeps claiming and running
/// work itself until none is left — so the call makes progress even when
/// every pool worker is busy (or when the caller IS a pool worker, as with
/// per-shard maintenance fanning out on the service's pool). Helpers never
/// block: one that finds the cursor exhausted simply returns, which is what
/// makes nested fan-out deadlock-free. Concurrent calls on one pool wait
/// only on their own indices. Each index is executed by exactly one
/// participant; the call returns after every index has finished,
/// rethrowing the first exception any fn raised.
///
/// One-participant contract: with n == 1 the call runs fn(0) inline on
/// the calling thread and never touches `pool`, which may then be null
/// (the maintainer's one-participant bucket apply relies on this). With
/// n >= 2 a null `pool` fails a KSIR_CHECK.
void ParallelRun(WorkerPool* pool, std::size_t n,
                 std::function<void(std::size_t)> fn);

}  // namespace ksir

#endif  // KSIR_RUNTIME_WORKER_POOL_H_
