#include "common/thread_pool.h"

#include "common/clock.h"

namespace fieldrep {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      UniqueMutexLock lock(mu_);
      work_cv_.wait(lock, [this]() REQUIRES(mu_) {
        return stop_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTask(task);
  }
}

void ThreadPool::RunTask(std::function<void()>& task) {
  const uint64_t start_ns = NowNs();
  task();
  task_ns_.Observe(NowNs() - start_ns);
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::RunBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  batches_run_.fetch_add(1, std::memory_order_relaxed);
  if (tasks.size() == 1) {
    // Nothing to fan out; skip the queue entirely.
    RunTask(tasks[0]);
    return;
  }
  struct BatchState {
    /// kLeaf: task wrappers take it with no other lock held, and the
    /// caller's completion wait holds nothing else either.
    Mutex mu{LockRank::kLeaf, "thread_pool.batch.mu"};
    CondVar done_cv;
    size_t remaining GUARDED_BY(mu);
  };
  BatchState state;
  {
    MutexLock init_lock(state.mu);
    state.remaining = tasks.size();
  }
  {
    MutexLock lock(mu_);
    for (auto& task : tasks) {
      queue_.emplace_back([&state, fn = std::move(task)] {
        fn();
        MutexLock done_lock(state.mu);
        if (--state.remaining == 0) state.done_cv.notify_one();
      });
    }
  }
  // One wakeup per task the workers could take beyond the one the caller
  // runs itself; notify_all would stampede the whole pool for small
  // batches.
  for (size_t i = 1; i < tasks.size() && i <= threads_.size(); ++i) {
    work_cv_.notify_one();
  }
  // The caller is a full batch participant: it drains queued tasks
  // alongside the workers instead of sleeping, so a batch of N tasks
  // needs only N-1 free cores to run N-wide — and on a single-core
  // machine the fan-out degrades to nearly free serial execution instead
  // of a context-switch ping-pong. The queue is shared, so the caller may
  // execute a concurrent batch's task; that only speeds the other batch
  // up (its wrapper decrements its own BatchState).
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      if (queue_.empty()) break;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTask(task);
  }
  UniqueMutexLock lock(state.mu);
  state.done_cv.wait(lock,
                     [&state]() REQUIRES(state.mu) { return state.remaining == 0; });
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.emplace_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::CollectMetrics(std::vector<MetricSample>* out) const {
  auto add = [out](const char* name, const char* help, MetricKind kind,
                   double value) {
    MetricSample s;
    s.name = name;
    s.help = help;
    s.kind = kind;
    s.value = value;
    out->push_back(std::move(s));
  };
  add("fieldrep_threadpool_tasks_total", "Tasks executed by the pool.",
      MetricKind::kCounter, static_cast<double>(tasks_run()));
  add("fieldrep_threadpool_batches_total", "Batches submitted via RunBatch.",
      MetricKind::kCounter, static_cast<double>(batches_run()));
  add("fieldrep_threadpool_threads", "Worker threads in the pool.",
      MetricKind::kGauge, static_cast<double>(threads_.size()));
  add("fieldrep_threadpool_queue_depth", "Tasks currently queued.",
      MetricKind::kGauge, static_cast<double>(queue_depth()));
  MetricSample lat;
  lat.name = "fieldrep_threadpool_task_ns";
  lat.help = "Per-task execution latency, nanoseconds.";
  lat.kind = MetricKind::kHistogram;
  lat.histogram = task_ns_.TakeSnapshot();
  out->push_back(std::move(lat));
}

}  // namespace fieldrep
