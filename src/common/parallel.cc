#include "common/parallel.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"

namespace dbsherlock::common {

namespace {

/// Set for the lifetime of every pool worker thread (see OnWorkerThread).
thread_local bool tls_on_pool_worker = false;

}  // namespace

size_t EffectiveParallelism(size_t requested) {
  if (requested != 0) return requested;
  // The CPUs this thread may run on (taskset, cpuset cgroups), not the
  // machine's: lanes beyond the mask only queue behind each other.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0 && CPU_COUNT(&mask) > 0) {
    return static_cast<size_t>(CPU_COUNT(&mask));
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t num_threads) { EnsureAtLeast(num_threads); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

size_t ThreadPool::num_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::EnsureAtLeast(size_t num_threads) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < num_threads && !stop_) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::WorkerLoop() {
  tls_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(EffectiveParallelism(0));
  return pool;
}

bool ThreadPool::OnWorkerThread() { return tls_on_pool_worker; }

ParallelRunner::ParallelRunner(size_t parallelism)
    : lanes_(EffectiveParallelism(parallelism)) {
  // Grow the pool once, up front: Run() then never spawns a thread, which
  // keeps a daemon's steady-state hot path free of thread creation.
  if (lanes_ > 1) ThreadPool::Global().EnsureAtLeast(lanes_ - 1);
}

void ParallelRunner::Run(size_t n,
                         const std::function<void(size_t)>& fn) const {
  if (n == 0) return;
  size_t lanes = std::min(lanes_, n);
  // Serial path: explicit request, trivial range, or already inside a pool
  // worker (running nested work inline avoids pool-saturation deadlock).
  if (lanes <= 1 || ThreadPool::OnWorkerThread()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Lanes claim fixed-size index chunks off a shared counter. Small chunks
  // (several per lane) absorb per-index cost skew without a scheduler.
  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    size_t n = 0;
    size_t chunk = 1;
    const std::function<void(size_t)>* fn = nullptr;

    std::mutex mu;
    std::condition_variable done_cv;
    size_t pending_helpers = 0;
    // Lowest failing index seen, with its exception: rethrowing the
    // scheduling-independent minimum keeps error surfacing deterministic.
    size_t error_index = std::numeric_limits<size_t>::max();
    std::exception_ptr error;
  } shared;
  shared.n = n;
  shared.chunk = std::max<size_t>(1, n / (lanes * 4));
  shared.fn = &fn;

  auto work = [&shared] {
    while (!shared.failed.load(std::memory_order_relaxed)) {
      size_t begin = shared.next.fetch_add(shared.chunk);
      if (begin >= shared.n) return;
      size_t end = std::min(begin + shared.chunk, shared.n);
      for (size_t i = begin; i < end; ++i) {
        try {
          (*shared.fn)(i);
        } catch (...) {
          shared.failed.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(shared.mu);
          if (i < shared.error_index) {
            shared.error_index = i;
            shared.error = std::current_exception();
          }
          return;
        }
      }
    }
  };

  // Per-task observability: how long helper tasks sit in the pool queue
  // before a worker picks them up (the backpressure signal for future
  // sharding/batching work) and how long each lane actually runs.
  static LatencyHistogram* queue_wait =
      MetricsRegistry::Global().GetHistogram("parallel.task_queue_wait_us");
  static LatencyHistogram* task_exec =
      MetricsRegistry::Global().GetHistogram("parallel.task_exec_us");
  static Counter* submitted =
      MetricsRegistry::Global().GetCounter("parallel.tasks_submitted");
  TRACE_SPAN("parallel.for");

  // Workers were provisioned in the constructor; no growth here.
  ThreadPool& pool = ThreadPool::Global();
  {
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.pending_helpers = lanes - 1;
  }
  submitted->Increment(lanes - 1);
  for (size_t h = 0; h + 1 < lanes; ++h) {
    const double submit_us = Tracer::NowMicros();
    pool.Submit([&shared, work, submit_us] {
      const double dequeued_us = Tracer::NowMicros();
      queue_wait->Record(dequeued_us - submit_us);
      work();
      task_exec->Record(Tracer::NowMicros() - dequeued_us);
      std::lock_guard<std::mutex> lock(shared.mu);
      if (--shared.pending_helpers == 0) shared.done_cv.notify_all();
    });
  }
  {
    // The calling thread is always a lane (never queued: wait is 0 by
    // construction, so only its execution time is recorded).
    const double inline_start_us = Tracer::NowMicros();
    work();
    task_exec->Record(Tracer::NowMicros() - inline_start_us);
  }
  std::unique_lock<std::mutex> lock(shared.mu);
  shared.done_cv.wait(lock, [&shared] { return shared.pending_helpers == 0; });
  if (shared.error) std::rethrow_exception(shared.error);
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 size_t parallelism) {
  ParallelRunner(parallelism).Run(n, fn);
}

}  // namespace dbsherlock::common
