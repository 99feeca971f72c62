// Admission control for query execution.
//
// The paper's aggregated queries each want the whole machine (they scale
// to 64 cores, Fig 12), but a service answering many users cannot let
// every request claim it. This scheduler bounds concurrency two ways: a
// bounded request queue (overflow is rejected up front as `overloaded`
// instead of building unbounded latency) and a fixed pool of worker
// threads. The workers share the machine through the one work-stealing
// pool (parallel::MorselPool) that runs every parallel loop: each
// admitted request carries a priority class, workers execute it under
// parallel::ScopedPriority, and the two-lane queue below dequeues
// interactive requests ahead of batch ones — so a cheap query admitted
// behind a saturating co-reporting scan passes it both at dequeue and
// inside the pool.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "parallel/morsel.hpp"
#include "util/sync.hpp"

namespace gdelt::serve {

class Scheduler {
 public:
  struct Options {
    int workers = 2;                 ///< fixed worker pool size (>= 1)
    std::size_t queue_capacity = 64; ///< pending requests beyond the pool
  };

  /// Starts the worker pool.
  explicit Scheduler(const Options& options);
  /// Drains (runs everything already admitted) and joins.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  using Task = std::function<void()>;

  /// Admission control: enqueues the task, or returns false when the
  /// bounded queue is full or the scheduler is draining. Every admitted
  /// task is guaranteed to run, even during drain. Interactive tasks
  /// dequeue ahead of batch tasks regardless of arrival order; the
  /// priority also rides into the morsel pool while the task runs.
  bool Submit(Task task,
              parallel::Priority priority = parallel::Priority::kInteractive);

  /// Stops admission, runs all queued tasks to completion, joins the
  /// workers. Idempotent.
  void Drain();

  std::size_t QueueDepth() const;
  std::size_t queue_capacity() const noexcept { return opt_.queue_capacity; }
  int workers() const noexcept { return opt_.workers; }

 private:
  struct Entry {
    Task task;
    parallel::Priority priority;
  };

  void WorkerLoop();

  Options opt_;

  /// Serializes Drain callers: without it two concurrent drains both see
  /// the workers still present and double-join the same std::threads.
  sync::Mutex drain_mu_;

  mutable sync::Mutex mu_;
  sync::CondVar cv_;
  /// One lane per parallel::Priority value; interactive (0) drains first.
  std::deque<Entry> queues_[2] GDELT_GUARDED_BY(mu_);
  bool draining_ GDELT_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ GDELT_GUARDED_BY(drain_mu_);
};

}  // namespace gdelt::serve
