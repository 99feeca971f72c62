#include "parallel/morsel.hpp"

#include <algorithm>
#include <cstdlib>

namespace gdelt::parallel {
namespace {

std::size_t ReadMorselRowsEnv() {
  const char* env = std::getenv("GDELT_MORSEL_ROWS");
  if (env == nullptr || *env == '\0') return kDefaultMorselRows;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || v <= 0) return kDefaultMorselRows;
  return std::clamp<std::size_t>(static_cast<std::size_t>(v), 64,
                                 std::size_t{1} << 22);
}

/// Submission priority of the calling thread (ScopedPriority).
thread_local Priority tls_priority = Priority::kBatch;

/// The interactive-query count a batch loop of this thread yields to
/// (ScopedYieldToInteractive), if any.
thread_local const std::atomic<std::uint32_t>* tls_interactive = nullptr;

/// True when a loop this thread starts now should run on it alone: the
/// thread submits batch work and interactive queries are in progress.
bool YieldsPool() noexcept {
  return tls_priority == Priority::kBatch && tls_interactive != nullptr &&
         tls_interactive->load(std::memory_order_relaxed) != 0;
}

/// Pool this thread is currently executing a morsel for (worker thread,
/// or a caller draining its own job), and the scratch slot it holds.
/// A ParallelFor re-entered from inside a body of the *same* pool runs
/// inline on this slot instead of deadlocking on its own job.
thread_local MorselPool* tls_pool = nullptr;
thread_local std::size_t tls_slot = 0;

/// The innermost ScopedPool of this thread, if any.
thread_local MorselPool* tls_scoped_pool = nullptr;

/// Worker count of a default-sized pool: the leading number of
/// OMP_NUM_THREADS when it is set (the variable the deployment scripts
/// already use to give each server its share of the host), else the
/// hardware thread count.
std::size_t DefaultWorkers() {
  if (const char* env = std::getenv("OMP_NUM_THREADS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && v > 0) {
      return static_cast<std::size_t>(std::min<long long>(v, 1024));
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

/// Bench override; 0 = none (use the latched env value).
std::atomic<std::size_t> g_morsel_rows_override{0};

std::size_t MorselRows() noexcept {
  const std::size_t override_rows =
      g_morsel_rows_override.load(std::memory_order_relaxed);
  if (override_rows != 0) return override_rows;
  static const std::size_t rows = ReadMorselRowsEnv();
  return rows;
}

void SetMorselRows(std::size_t rows) noexcept {
  g_morsel_rows_override.store(
      rows == 0 ? 0
                : std::clamp<std::size_t>(rows, 64, std::size_t{1} << 22),
      std::memory_order_relaxed);
}

ScopedPriority::ScopedPriority(Priority p) noexcept : previous_(tls_priority) {
  tls_priority = p;
}

ScopedPriority::~ScopedPriority() { tls_priority = previous_; }

Priority ScopedPriority::Current() noexcept { return tls_priority; }

ScopedYieldToInteractive::ScopedYieldToInteractive(
    const std::atomic<std::uint32_t>& interactive_in_progress) noexcept
    : previous_(tls_interactive) {
  tls_interactive = &interactive_in_progress;
}

ScopedYieldToInteractive::~ScopedYieldToInteractive() {
  tls_interactive = previous_;
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// One submitted ParallelFor: the body plus completion accounting.
struct MorselPool::Job {
  std::function<void(IndexRange, std::size_t)> body;
  Priority priority = Priority::kBatch;
  /// Polled before each morsel body; cancelled jobs drain their queued
  /// morsels as skips so `remaining` always reaches zero exactly once.
  const util::CancelToken* cancel = nullptr;
  sync::Mutex mu;
  sync::CondVar done_cv;
  std::size_t remaining GDELT_GUARDED_BY(mu) = 0;
};

/// One morsel of one job: a contiguous row range.
struct MorselPool::Run {
  std::shared_ptr<Job> job;
  IndexRange range;
};

/// Per-worker state. Lock order: a deque lock may be held while taking
/// the pool-wide mu_ (take accounting), never the reverse, and no two
/// deque locks are ever held at once (steal-half releases the victim's
/// before touching the thief's).
struct MorselPool::Worker {
  sync::Mutex mu;
  /// One deque per priority class; index = static_cast<size_t>(Priority).
  std::deque<Run> deques[2] GDELT_GUARDED_BY(mu);
};

MorselPool::MorselPool(int workers) {
  const std::size_t w =
      workers > 0 ? static_cast<std::size_t>(workers) : DefaultWorkers();
  workers_.reserve(w);
  for (std::size_t i = 0; i < w; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Non-worker callers drain their own jobs, so they need scratch slots
  // too; a small fixed pool bounds partial-array sizes while letting a
  // few concurrent queries overlap. Slot ids: [0, w) workers, the rest
  // callers.
  const std::size_t caller_slots = std::max<std::size_t>(2, w);
  slots_ = w + caller_slots;
  {
    sync::MutexLock lock(mu_);
    for (std::size_t s = w; s < slots_; ++s) caller_slots_.push_back(s);
  }
  threads_.reserve(w);
  for (std::size_t i = 0; i < w; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

MorselPool::~MorselPool() { Shutdown(); }

MorselPool& MorselPool::Shared() {
  static MorselPool* pool = new MorselPool(0);  // leaked: outlives exit paths
  return *pool;
}

ScopedPool::ScopedPool(MorselPool& pool) noexcept
    : previous_(tls_scoped_pool) {
  tls_scoped_pool = &pool;
}

ScopedPool::~ScopedPool() { tls_scoped_pool = previous_; }

MorselPool& CurrentPool() {
  if (tls_pool != nullptr) return *tls_pool;
  if (tls_scoped_pool != nullptr) return *tls_scoped_pool;
  return MorselPool::Shared();
}

void PoolParallelFor(std::size_t n,
                     const std::function<void(IndexRange, std::size_t)>& body,
                     std::size_t morsel_rows, const util::CancelToken* cancel) {
  CurrentPool().ParallelFor(n, body, morsel_rows, cancel);
}

std::size_t PoolSlots() noexcept { return CurrentPool().num_slots(); }

bool MorselPool::ParallelFor(
    std::size_t n, const std::function<void(IndexRange, std::size_t)>& body,
    std::size_t morsel_rows, const util::CancelToken* cancel) {
  if (n == 0) return true;
  const std::size_t rows = morsel_rows > 0 ? morsel_rows : MorselRows();

  // Nested call from inside a morsel of this very pool: run serially on
  // the slot the thread already holds. Queuing instead would deadlock a
  // 1-worker pool (the worker would wait on work only it can execute).
  if (tls_pool == this) {
    RunInline(n, body, rows, tls_slot, cancel);
    sync::MutexLock lock(mu_);
    ++inline_jobs_;
    return true;
  }

  const std::size_t num_morsels = (n + rows - 1) / rows;
  const std::size_t W = workers_.size();

  // Single-morsel jobs skip distribution entirely: the caller runs the
  // one range itself (a point query must not wait behind deque traffic).
  // So does a batch loop while interactive queries are in progress: it
  // leaves the workers to them.
  if (num_morsels == 1 || W == 0 || YieldsPool()) {
    const std::size_t slot = AcquireCallerSlot();
    RunInline(n, body, rows, slot, cancel);
    ReleaseCallerSlot(slot);
    sync::MutexLock lock(mu_);
    ++jobs_;
    return true;
  }

  auto job = std::make_shared<Job>();
  job->body = body;
  job->priority = ScopedPriority::Current();
  job->cancel = cancel;
  {
    sync::MutexLock lock(job->mu);
    job->remaining = num_morsels;
  }

  bool admitted = false;
  {
    sync::MutexLock lock(mu_);
    if (shutting_down_) {
      ++inline_jobs_;
    } else {
      ++jobs_;
      admitted = true;
    }
  }
  if (!admitted) {
    // Pool is going away; honor the call anyway (all-or-nothing: the
    // job still runs to completion, just not on the pool).
    const std::size_t slot = AcquireCallerSlot();
    RunInline(n, body, rows, slot, cancel);
    ReleaseCallerSlot(slot);
    return false;
  }

  // Distribute morsels round-robin across worker deques (contiguous
  // ranges; determinism comes from slot-ordered merges, not placement).
  const std::size_t pri = static_cast<std::size_t>(job->priority);
  for (std::size_t m = 0; m < num_morsels; ++m) {
    const std::size_t begin = m * rows;
    const std::size_t end = std::min(n, begin + rows);
    Worker& worker = *workers_[m % W];
    sync::MutexLock lock(worker.mu);
    worker.deques[pri].push_back(Run{job, IndexRange{begin, end}});
  }
  {
    sync::MutexLock lock(mu_);
    queued_ += static_cast<std::int64_t>(num_morsels);
    if (sleepers_ > 0) work_cv_.NotifyAll();
  }

  // The caller participates: it drains queued runs of its own job (any
  // deque), then waits for in-flight morsels to finish on the workers.
  const std::size_t slot = AcquireCallerSlot();
  MorselPool* saved_pool = tls_pool;
  const std::size_t saved_slot = tls_slot;
  tls_pool = this;
  tls_slot = slot;
  Run run;
  while (TakeJobRun(job.get(), run)) Execute(run, slot);
  tls_pool = saved_pool;
  tls_slot = saved_slot;
  ReleaseCallerSlot(slot);
  {
    sync::MutexLock lock(job->mu);
    while (job->remaining > 0) job->done_cv.Wait(job->mu);
  }
  return true;
}

void MorselPool::RunInline(
    std::size_t n, const std::function<void(IndexRange, std::size_t)>& body,
    std::size_t morsel_rows, std::size_t slot,
    const util::CancelToken* cancel) {
  MorselPool* saved_pool = tls_pool;
  const std::size_t saved_slot = tls_slot;
  tls_pool = this;
  tls_slot = slot;
  for (std::size_t begin = 0; begin < n; begin += morsel_rows) {
    if (util::Cancelled(cancel)) {
      morsels_skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;  // keep counting skips so stats reflect the saved work
    }
    body(IndexRange{begin, std::min(n, begin + morsel_rows)}, slot);
    morsels_.fetch_add(1, std::memory_order_relaxed);
  }
  tls_pool = saved_pool;
  tls_slot = saved_slot;
}

void MorselPool::Execute(const Run& run, std::size_t slot) {
  // A cancelled job's queued morsels become skips; `remaining` still
  // counts down so the job completes exactly once, and the enforcement
  // boundary above the pool discards the (partial) result.
  if (util::Cancelled(run.job->cancel)) {
    morsels_skipped_.fetch_add(1, std::memory_order_relaxed);
  } else {
    run.job->body(run.range, slot);
    morsels_.fetch_add(1, std::memory_order_relaxed);
  }
  sync::MutexLock lock(run.job->mu);
  if (--run.job->remaining == 0) run.job->done_cv.NotifyAll();
}

bool MorselPool::TakeRun(std::size_t w, Run& out) {
  Worker& self = *workers_[w];
  {
    // Own deques: newest first (LIFO keeps the working set warm),
    // interactive before batch.
    sync::MutexLock lock(self.mu);
    for (auto& dq : self.deques) {
      if (!dq.empty()) {
        out = std::move(dq.back());
        dq.pop_back();
        sync::MutexLock pool_lock(mu_);
        --queued_;
        return true;
      }
    }
  }
  return StealInto(w, out);
}

bool MorselPool::StealInto(std::size_t thief, Run& out) {
  const std::size_t W = workers_.size();
  // Interactive work anywhere beats batch work anywhere.
  for (std::size_t pri = 0; pri < 2; ++pri) {
    for (std::size_t k = 1; k < W; ++k) {
      Worker& victim = *workers_[(thief + k) % W];
      std::vector<Run> loot;
      {
        sync::MutexLock lock(victim.mu);
        auto& dq = victim.deques[pri];
        if (dq.empty()) continue;
        // Steal the front half (oldest morsels; the victim keeps the
        // back, which is what it pops next — minimal interference).
        const std::size_t take = (dq.size() + 1) / 2;
        loot.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
          loot.push_back(std::move(dq.front()));
          dq.pop_front();
        }
      }
      steals_.fetch_add(loot.size(), std::memory_order_relaxed);
      // Thief executes the first stolen run; the rest go to its deque.
      out = std::move(loot.front());
      if (loot.size() > 1) {
        Worker& self = *workers_[thief];
        sync::MutexLock lock(self.mu);
        for (std::size_t i = 1; i < loot.size(); ++i) {
          self.deques[pri].push_back(std::move(loot[i]));
        }
      }
      sync::MutexLock pool_lock(mu_);
      --queued_;
      return true;
    }
  }
  return false;
}

bool MorselPool::TakeJobRun(const Job* job, Run& out) {
  for (auto& worker : workers_) {
    sync::MutexLock lock(worker->mu);
    auto& dq = worker->deques[static_cast<std::size_t>(job->priority)];
    for (auto it = dq.begin(); it != dq.end(); ++it) {
      if (it->job.get() != job) continue;
      out = std::move(*it);
      dq.erase(it);
      sync::MutexLock pool_lock(mu_);
      --queued_;
      return true;
    }
  }
  return false;
}

void MorselPool::WorkerLoop(std::size_t w) {
  tls_pool = this;
  tls_slot = w;  // worker w owns scratch slot w for its whole life
  Run run;
  for (;;) {
    if (TakeRun(w, run)) {
      Execute(run, w);
      run = Run{};  // drop the job reference promptly
      continue;
    }
    {
      sync::MutexLock lock(mu_);
      if (queued_ > 0) {
        // Work was pushed between the failed take and this lock, or a
        // take by another thread has not yet posted its decrement;
        // retry (briefly) rather than sleeping past it.
        continue;
      }
      if (shutting_down_) return;
      ++sleepers_;
      while (queued_ <= 0 && !shutting_down_) work_cv_.Wait(mu_);
      --sleepers_;
      if (shutting_down_ && queued_ <= 0) return;
    }
  }
}

std::size_t MorselPool::AcquireCallerSlot() {
  sync::MutexLock lock(mu_);
  while (caller_slots_.empty()) slot_cv_.Wait(mu_);
  const std::size_t slot = caller_slots_.back();
  caller_slots_.pop_back();
  return slot;
}

void MorselPool::ReleaseCallerSlot(std::size_t slot) {
  sync::MutexLock lock(mu_);
  caller_slots_.push_back(slot);
  slot_cv_.NotifyOne();
}

MorselPoolStats MorselPool::stats() const {
  MorselPoolStats s;
  {
    sync::MutexLock lock(mu_);
    s.jobs = jobs_;
    s.inline_jobs = inline_jobs_;
  }
  s.morsels = morsels_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.morsels_skipped = morsels_skipped_.load(std::memory_order_relaxed);
  return s;
}

void MorselPool::Shutdown() {
  {
    sync::MutexLock lock(mu_);
    shutting_down_ = true;
    work_cv_.NotifyAll();
  }
  // join_mu_ serializes concurrent Shutdown calls so no two threads join
  // the same std::thread (same fix as serve::Scheduler::Drain). It is
  // never taken while holding mu_ or a deque lock.
  sync::MutexLock join_lock(join_mu_);
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

}  // namespace gdelt::parallel
