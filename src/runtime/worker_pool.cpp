#include "runtime/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "common/check.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace ksir {

WorkerPool::WorkerPool(std::size_t num_threads, Telemetry* telemetry,
                       PoolOptions options)
    : owned_telemetry_(telemetry == nullptr ? std::make_unique<Telemetry>()
                                            : nullptr),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()) {
  MetricRegistry& reg = telemetry_->registry();
  queue_depth_gauge_ = reg.GetGauge("ksir_pool_queue_depth",
                                    "Tasks waiting across all pool queues");
  tasks_counter_ =
      reg.GetCounter("ksir_pool_tasks_total", "Tasks submitted to the pool");
  steals_counter_ = reg.GetCounter(
      "ksir_pool_steals_total",
      "Tasks a worker popped from another worker's queue");
  pin_failures_counter_ = reg.GetCounter(
      "ksir_pool_pin_failures_total",
      "Worker CPU-pin attempts the platform or kernel refused");
  task_hist_ = reg.GetHistogram("ksir_pool_task_seconds",
                                "Execution time of one pool task");
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  queues_.resize(n);
  worker_depth_gauges_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    worker_depth_gauges_.push_back(reg.GetGauge(
        "ksir_pool_queue_depth_worker_" + std::to_string(i),
        "Tasks waiting in this worker's home queue"));
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i]() { WorkerLoop(i); });
  }
  if (options.pin_threads) PinThreads();
}

void WorkerPool::PinThreads() {
#if defined(__linux__)
  // Pin within the ALLOWED set (cgroup cpusets shrink it below the
  // machine's CPU count in containers); worker i gets the i-th allowed
  // CPU, wrapping when workers outnumber CPUs.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) {
    pin_failures_counter_->Add(static_cast<std::int64_t>(threads_.size()));
    return;
  }
  std::size_t pinned = 0;
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i % cpus.size()], &one);
    if (pthread_setaffinity_np(threads_[i].native_handle(), sizeof(one),
                               &one) == 0) {
      ++pinned;
    } else {
      pin_failures_counter_->Add(1);
    }
  }
  pinned_threads_ = pinned;
#else
  // No portable pinning; the workers run unpinned and the failure counter
  // makes that visible instead of silently dropping the request.
  pin_failures_counter_->Add(static_cast<std::int64_t>(threads_.size()));
#endif
}

WorkerPool::~WorkerPool() {
  {
    std::unique_lock lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

std::unique_ptr<WorkerPool> MakeWorkerPool(std::size_t requested,
                                           std::size_t fallback,
                                           Telemetry* telemetry,
                                           PoolOptions options) {
  return std::make_unique<WorkerPool>(requested > 0 ? requested : fallback,
                                      telemetry, options);
}

void WorkerPool::Submit(std::function<void()> task) {
  {
    std::unique_lock lock(mutex_);
    const std::size_t worker = next_worker_++ % queues_.size();
    queues_[worker].push_back(std::move(task));
    ++pending_;
    worker_depth_gauges_[worker]->Set(
        static_cast<std::int64_t>(queues_[worker].size()));
    queue_depth_gauge_->Set(static_cast<std::int64_t>(pending_));
  }
  tasks_counter_->Add(1);
  work_available_.notify_one();
}

void WorkerPool::SubmitTo(std::size_t worker, std::function<void()> task) {
  {
    std::unique_lock lock(mutex_);
    worker %= queues_.size();
    queues_[worker].push_back(std::move(task));
    ++pending_;
    worker_depth_gauges_[worker]->Set(
        static_cast<std::int64_t>(queues_[worker].size()));
    queue_depth_gauge_->Set(static_cast<std::int64_t>(pending_));
  }
  tasks_counter_->Add(1);
  // Any worker can run any task (steal path), so waking one is enough
  // even when the home worker is mid-task.
  work_available_.notify_one();
}

void WorkerPool::WaitIdle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this]() { return pending_ == 0 && in_flight_ == 0; });
  if (first_exception_) {
    std::rethrow_exception(std::exchange(first_exception_, nullptr));
  }
}

void TaskGroup::Submit(std::function<void()> task) {
  {
    std::unique_lock lock(mutex_);
    ++pending_;
  }
  pool_->Submit([this, task = std::move(task)]() {
    // The pending count must come back down on every exit path, or Wait()
    // deadlocks forever; the group's first exception travels to its waiter.
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    std::unique_lock lock(mutex_);
    if (error && !first_exception_) first_exception_ = std::move(error);
    if (--pending_ == 0) done_.notify_all();
  });
}

void TaskGroup::WaitDrained() {
  std::unique_lock lock(mutex_);
  done_.wait(lock, [this]() { return pending_ == 0; });
}

void TaskGroup::Wait() {
  WaitDrained();
  std::unique_lock lock(mutex_);
  if (first_exception_) {
    std::rethrow_exception(std::exchange(first_exception_, nullptr));
  }
}

TaskGroup::~TaskGroup() { WaitDrained(); }

void ParallelRun(WorkerPool* pool, std::size_t n,
                 std::function<void(std::size_t)> fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  KSIR_CHECK(pool != nullptr);
  // Shared by the caller and the helper tasks. Helpers may still be queued
  // when the call returns (every index already claimed elsewhere); they
  // find the cursor exhausted, touch nothing but the state block, and
  // return — hence the shared_ptr and the fn copy inside it.
  struct State {
    std::function<void(std::size_t)> fn;
    std::size_t n;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable all_done;
    std::size_t finished = 0;
    std::exception_ptr first_exception;
  };
  auto state = std::make_shared<State>();
  state->fn = std::move(fn);
  state->n = n;
  const auto run_claimed = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const std::size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->n) return;
      std::exception_ptr error;
      try {
        s->fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::unique_lock lock(s->mutex);
      if (error && !s->first_exception) s->first_exception = std::move(error);
      if (++s->finished == s->n) s->all_done.notify_all();
    }
  };
  const std::size_t helpers =
      std::min<std::size_t>(n - 1, pool->num_threads());
  for (std::size_t i = 0; i < helpers; ++i) {
    pool->Submit([state, run_claimed]() { run_claimed(state); });
  }
  run_claimed(state);
  std::unique_lock lock(state->mutex);
  state->all_done.wait(lock, [&]() { return state->finished == state->n; });
  if (state->first_exception) {
    std::rethrow_exception(
        std::exchange(state->first_exception, nullptr));
  }
}

void ParallelRunAffine(WorkerPool* pool, std::size_t participants,
                       std::size_t units,
                       std::function<void(std::size_t, std::size_t)> fn) {
  if (units == 0) return;
  participants = std::max<std::size_t>(
      1, std::min(participants, units));
  if (participants == 1) {
    for (std::size_t u = 0; u < units; ++u) fn(0, u);
    return;
  }
  KSIR_CHECK(pool != nullptr);
  // Per-unit claim flags replace ParallelRun's shared cursor: participant
  // p claims its strided residue class first (the affinity), then sweeps
  // everything still unclaimed (the steal). A unit is claimed immediately
  // before it runs, so a helper that never gets scheduled never claims
  // anything and the caller's sweep picks its share up — the same
  // caller-completes-all-work property that makes ParallelRun safe on a
  // busy shared pool.
  struct State {
    std::function<void(std::size_t, std::size_t)> fn;
    std::size_t units;
    std::size_t participants;
    std::unique_ptr<std::atomic<std::uint8_t>[]> claimed;
    std::mutex mutex;
    std::condition_variable all_done;
    std::size_t finished = 0;
    std::exception_ptr first_exception;
  };
  auto state = std::make_shared<State>();
  state->fn = std::move(fn);
  state->units = units;
  state->participants = participants;
  state->claimed = std::make_unique<std::atomic<std::uint8_t>[]>(units);
  for (std::size_t u = 0; u < units; ++u) {
    state->claimed[u].store(0, std::memory_order_relaxed);
  }
  const auto run_unit = [](const std::shared_ptr<State>& s, std::size_t p,
                           std::size_t u) {
    std::exception_ptr error;
    try {
      s->fn(p, u);
    } catch (...) {
      error = std::current_exception();
    }
    std::unique_lock lock(s->mutex);
    if (error && !s->first_exception) s->first_exception = std::move(error);
    if (++s->finished == s->units) s->all_done.notify_all();
  };
  const auto run_participant = [run_unit](const std::shared_ptr<State>& s,
                                          std::size_t p) {
    for (std::size_t u = p; u < s->units; u += s->participants) {
      if (s->claimed[u].exchange(1, std::memory_order_acq_rel) == 0) {
        run_unit(s, p, u);
      }
    }
    for (std::size_t u = 0; u < s->units; ++u) {
      if (s->claimed[u].exchange(1, std::memory_order_acq_rel) == 0) {
        run_unit(s, p, u);
      }
    }
  };
  for (std::size_t p = 1; p < participants; ++p) {
    // Helper p homes on worker p - 1 every call, which is what keeps a
    // unit residue on the same OS thread across buckets.
    pool->SubmitTo(p - 1,
                   [state, run_participant, p]() { run_participant(state, p); });
  }
  run_participant(state, 0);
  std::unique_lock lock(state->mutex);
  state->all_done.wait(lock,
                       [&]() { return state->finished == state->units; });
  if (state->first_exception) {
    std::rethrow_exception(std::exchange(state->first_exception, nullptr));
  }
}

void WorkerPool::WorkerLoop(std::size_t worker) {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_available_.wait(lock,
                         [this]() { return shutdown_ || pending_ > 0; });
    if (pending_ == 0) {
      if (shutdown_) return;
      continue;
    }
    // Own queue first (the affinity), then sweep the others from the next
    // neighbor up (the steal) — oldest task first in either case, so
    // starvation is bounded and FIFO fairness survives the split.
    std::size_t source = worker;
    if (queues_[worker].empty()) {
      for (std::size_t step = 1; step < queues_.size(); ++step) {
        const std::size_t candidate = (worker + step) % queues_.size();
        if (!queues_[candidate].empty()) {
          source = candidate;
          break;
        }
      }
    }
    std::function<void()> task = std::move(queues_[source].front());
    queues_[source].pop_front();
    --pending_;
    worker_depth_gauges_[source]->Set(
        static_cast<std::int64_t>(queues_[source].size()));
    queue_depth_gauge_->Set(static_cast<std::int64_t>(pending_));
    ++in_flight_;
    lock.unlock();
    if (source != worker) steals_counter_->Add(1);
    // in_flight_ must come back down whether the task returns or throws;
    // TaskGroup tasks never leak exceptions here (their wrapper captures
    // into the group), so first_exception_ is the direct-Submit channel.
    std::exception_ptr error;
    try {
      StageScope scope(telemetry_, task_hist_, "pool.task");
      task();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !first_exception_) first_exception_ = std::move(error);
    --in_flight_;
    if (pending_ == 0 && in_flight_ == 0) idle_.notify_all();
  }
}

}  // namespace ksir
