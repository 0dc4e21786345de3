#ifndef DBSHERLOCK_COMMON_PARALLEL_H_
#define DBSHERLOCK_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dbsherlock::common {

/// Resolves a parallelism request: 0 means "one lane per CPU in the calling
/// thread's affinity mask" (sched_getaffinity, so `taskset` and cpuset
/// limits count; never less than 1); any other value is taken literally. 1
/// selects the exact serial path (no pool involvement at all).
size_t EffectiveParallelism(size_t requested);

/// A small shared worker pool. Diagnosis code never uses it directly —
/// ParallelFor/ParallelMap below schedule onto the process-wide instance —
/// but tests construct private pools to probe lifecycle behavior.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 is allowed: tasks then only run when
  /// a caller drains them through ParallelFor's calling thread).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const;

  /// Enqueues `task` for execution on some worker.
  void Submit(std::function<void()> task);

  /// Grows the pool to at least `num_threads` workers (never shrinks).
  void EnsureAtLeast(size_t num_threads);

  /// The process-wide pool, created on first use and sized to
  /// EffectiveParallelism(0); grown on demand when a caller requests a higher
  /// explicit parallelism (benchmarks probe oversubscription this way).
  static ThreadPool& Global();

  /// True when the calling thread is one of this process's pool workers.
  /// Nested ParallelFor calls use this to degrade to the serial path
  /// instead of deadlocking on a saturated pool.
  static bool OnWorkerThread();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// A reusable, long-lived parallel-execution handle. Constructing one
/// resolves the requested parallelism and grows the process-wide pool to
/// that size once; every Run() after that schedules onto the already-warm
/// workers, so a steady-state caller (e.g. the dbsherlockd append path)
/// performs zero thread creation and zero pool-growth locking per call.
/// ParallelFor/ParallelMap below are thin wrappers over a transient
/// runner, so both entry points share one fan-out implementation.
class ParallelRunner {
 public:
  /// `parallelism`: 0 = EffectiveParallelism(0) lanes, 1 = always serial.
  explicit ParallelRunner(size_t parallelism = 0);

  /// Lanes this runner fans out over (>= 1).
  size_t lanes() const { return lanes_; }

  /// Runs fn(0) .. fn(n-1) over min(lanes(), n) lanes. The calling thread
  /// always participates, so forward progress never depends on pool
  /// capacity. Blocks until every index has run. Distinct indices may
  /// touch shared state only through distinct slots (write fn results
  /// into per-index storage; see ParallelMap).
  ///
  /// If any fn(i) throws, remaining unclaimed work is abandoned and the
  /// recorded exception with the lowest index is rethrown here, so the
  /// error surfaced does not depend on thread scheduling.
  void Run(size_t n, const std::function<void(size_t)>& fn) const;

 private:
  size_t lanes_;
};

/// One-shot convenience over ParallelRunner (see Run for the contract).
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 size_t parallelism = 0);

/// Ordered parallel map: returns {fn(0), ..., fn(n-1)} with results in
/// index order regardless of execution order, so parallel and serial runs
/// are bit-identical. R must be default-constructible.
template <typename Fn>
auto ParallelMap(size_t n, Fn&& fn, size_t parallelism = 0)
    -> std::vector<decltype(fn(size_t{0}))> {
  std::vector<decltype(fn(size_t{0}))> out(n);
  ParallelFor(
      n, [&](size_t i) { out[i] = fn(i); }, parallelism);
  return out;
}

}  // namespace dbsherlock::common

#endif  // DBSHERLOCK_COMMON_PARALLEL_H_
