#include "serve/scheduler.hpp"

#include <algorithm>

namespace gdelt::serve {

Scheduler::Scheduler(const Options& options) : opt_(options) {
  opt_.workers = std::max(1, opt_.workers);
  opt_.queue_capacity = std::max<std::size_t>(1, opt_.queue_capacity);
  sync::MutexLock lock(drain_mu_);
  workers_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int w = 0; w < opt_.workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Scheduler::~Scheduler() { Drain(); }

bool Scheduler::Submit(Task task, parallel::Priority priority) {
  {
    sync::MutexLock lock(mu_);
    if (draining_ ||
        queues_[0].size() + queues_[1].size() >= opt_.queue_capacity) {
      return false;
    }
    queues_[static_cast<std::size_t>(priority)].push_back(
        {std::move(task), priority});
  }
  cv_.NotifyOne();
  return true;
}

void Scheduler::Drain() {
  // drain_mu_ makes concurrent drains safe: the second caller blocks here
  // until the first has joined and cleared the pool, then sees an empty
  // workers_ and returns. Checking a flag under mu_ instead (the previous
  // scheme) let both callers reach the join loop and double-join.
  sync::MutexLock drain_lock(drain_mu_);
  {
    sync::MutexLock lock(mu_);
    draining_ = true;
  }
  cv_.NotifyAll();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

std::size_t Scheduler::QueueDepth() const {
  sync::MutexLock lock(mu_);
  return queues_[0].size() + queues_[1].size();
}

void Scheduler::WorkerLoop() {
  while (true) {
    Entry entry;
    {
      sync::MutexLock lock(mu_);
      // An explicit loop, not a predicate lambda: lambdas are analyzed as
      // separate functions and could not see that mu_ is held.
      while (!draining_ && queues_[0].empty() && queues_[1].empty()) {
        cv_.Wait(mu_);
      }
      // Interactive lane first: a cheap query admitted behind a batch
      // scan does not wait for it.
      auto& lane = !queues_[0].empty() ? queues_[0] : queues_[1];
      if (lane.empty()) return;  // draining and nothing left
      entry = std::move(lane.front());
      lane.pop_front();
    }
    // Morsels this task submits inherit the request's priority class.
    parallel::ScopedPriority priority(entry.priority);
    entry.task();
  }
}

}  // namespace gdelt::serve
