#ifndef FIELDREP_COMMON_THREAD_POOL_H_
#define FIELDREP_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"
#include "telemetry/metrics.h"

namespace fieldrep {

/// \brief A fixed-size pool of worker threads with a blocking batch
/// primitive.
///
/// The query executor's unit of parallelism is a *stage*: it splits a
/// sorted OID vector into page-aligned ranges, runs one task per range,
/// and needs every range finished before the merge step. RunBatch models
/// exactly that — submit all tasks, block until the last one completes —
/// so the pool needs no futures, no task handles, and no shutdown
/// coordination beyond the destructor.
///
/// Tasks must not call RunBatch themselves (a worker waiting on a nested
/// batch could deadlock the pool); the executor only ever submits from
/// the query thread. Multiple query threads may share one pool: batches
/// interleave at task granularity.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return threads_.size(); }

  /// Enqueues every task and blocks until all of them have run. The
  /// calling thread participates: it drains queued tasks alongside the
  /// workers before waiting, so an N-task batch reaches N-wide
  /// parallelism with only N-1 free workers and degrades to plain serial
  /// execution on a single core. Tasks must not throw; they report
  /// failure through captured state (the executor gives each task a
  /// Status slot).
  void RunBatch(std::vector<std::function<void()>> tasks);

  /// Enqueues one fire-and-forget task. Unlike RunBatch the caller does
  /// not wait (the network server's dispatch primitive); the destructor
  /// still drains every queued task before joining, so a Submit issued
  /// before shutdown always runs.
  void Submit(std::function<void()> task);

  /// Tasks executed so far (workers + caller participation).
  uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }
  /// Batches submitted through RunBatch (including single-task ones).
  uint64_t batches_run() const {
    return batches_run_.load(std::memory_order_relaxed);
  }
  /// Tasks currently queued (sampled under the pool mutex).
  size_t queue_depth() const {
    MutexLock lock(mu_);
    return queue_.size();
  }

  /// Appends this pool's metric samples (task/batch counters, queue-depth
  /// and size gauges, task-latency histogram) to `out`.
  void CollectMetrics(std::vector<MetricSample>* out) const;

 private:
  void WorkerLoop();
  /// Runs one task, timing it into task_ns_ and counting it.
  void RunTask(std::function<void()>& task);

  /// kThreadPool ranks above the engine locks: RunBatch/Submit callers
  /// may hold a set's X lock (db.setlock) or the server lock while
  /// enqueuing, and tasks take pool/WAL locks only after mu_ is released.
  mutable Mutex mu_{LockRank::kThreadPool, "thread_pool.mu"};
  CondVar work_cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;

  /// Always-on telemetry (relaxed atomics; tasks are page-range scans,
  /// so two clock reads per task are noise).
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> batches_run_{0};
  Histogram task_ns_{Histogram::LatencyBoundsNs()};
};

}  // namespace fieldrep

#endif  // FIELDREP_COMMON_THREAD_POOL_H_
