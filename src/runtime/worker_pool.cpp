#include "runtime/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.h"

namespace ksir {

WorkerPool::WorkerPool(std::size_t num_threads, Telemetry* telemetry)
    : owned_telemetry_(telemetry == nullptr ? std::make_unique<Telemetry>()
                                            : nullptr),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()) {
  MetricRegistry& reg = telemetry_->registry();
  queue_depth_gauge_ =
      reg.GetGauge("ksir_pool_queue_depth", "Tasks waiting in the pool queue");
  tasks_counter_ =
      reg.GetCounter("ksir_pool_tasks_total", "Tasks submitted to the pool");
  task_hist_ = reg.GetHistogram("ksir_pool_task_seconds",
                                "Execution time of one pool task");
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
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
                                           Telemetry* telemetry) {
  return std::make_unique<WorkerPool>(requested > 0 ? requested : fallback,
                                      telemetry);
}

void WorkerPool::Submit(std::function<void()> task) {
  {
    std::unique_lock lock(mutex_);
    queue_.push_back(std::move(task));
    queue_depth_gauge_->Set(static_cast<std::int64_t>(queue_.size()));
  }
  tasks_counter_->Add(1);
  work_available_.notify_one();
}

void WorkerPool::WaitIdle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this]() { return queue_.empty() && in_flight_ == 0; });
  if (first_exception_) {
    std::rethrow_exception(std::exchange(first_exception_, nullptr));
  }
}

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

void WorkerPool::WorkerLoop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_available_.wait(lock,
                         [this]() { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutdown with nothing left to drain
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    queue_depth_gauge_->Set(static_cast<std::int64_t>(queue_.size()));
    ++in_flight_;
    lock.unlock();
    // in_flight_ must come back down whether the task returns or throws;
    // ParallelRun helpers never leak exceptions here (they capture into
    // their call), so first_exception_ is the direct-Submit channel.
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
    if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
  }
}

}  // namespace ksir
