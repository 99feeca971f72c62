// Morsel-driven work-stealing execution (cf. HyPer's morsel model and
// RegionsMT's thread pool): the one executor of every parallel loop.
//
// One shared set of workers runs every loop of the process, from the
// load-time column passes to the aggregate kernels, so a saturating
// co-reporting query cannot own the machine while a point query queues
// behind it. A job is split into fixed-size row-range *morsels*
// (default kDefaultMorselRows rows, override with GDELT_MORSEL_ROWS);
// each worker owns a deque per priority class and steals the front half
// of a victim's deque when its own runs dry, so load balance emerges
// without a central queue on the hot path.
//
// Two priority classes exist so a small interactive query submitted
// while a big batch query is in flight gets its morsels drained first:
// workers always pop/steal kInteractive morsels before kBatch ones.
// Submitters tag work via ScopedPriority (thread-local, so the serve
// scheduler can wrap an entire query handler). Under
// ScopedYieldToInteractive a batch loop leaves the workers alone
// altogether while a count of interactive queries is non-zero.
//
// Determinism: ParallelFor(job) partitions [0, n) into contiguous
// morsels and the per-slot reduction helpers merge partials in slot
// order, so results are bitwise identical regardless of which worker
// ran which morsel (integer sums commute; float-producing kernels
// confine their non-commutative math to a fixed block or a single
// morsel and merge in block order).
//
// Locking discipline (PR 5): every mutex is a sync::Mutex annotated for
// Clang TSA. Per-worker deque locks are leaves (never held while taking
// another lock); the pool-wide mu_ serializes sleep/wake and shutdown.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "parallel/parallel.hpp"  // IndexRange
#include "util/cancel.hpp"
#include "util/sync.hpp"

namespace gdelt::parallel {

/// Priority class for submitted work. Workers drain kInteractive morsels
/// before kBatch morsels, both when popping their own deque and when
/// choosing what to steal.
enum class Priority : std::uint8_t { kInteractive = 0, kBatch = 1 };

/// The executor of the aggregate kernels; the morsel pool is the only one.
/// Kept as a type only because serve::RenderPartialFrame's callers name it.
enum class Backend : std::uint8_t { kMorselPool };

/// Default rows per morsel. Small enough that a saturating batch job
/// reaches a priority/steal decision point every few hundred
/// microseconds; large enough to amortize deque traffic. Override per
/// process with GDELT_MORSEL_ROWS (clamped to [64, 2^22]).
inline constexpr std::size_t kDefaultMorselRows = 16384;

/// Rows per morsel currently in effect: the SetMorselRows override if
/// one is active, else the GDELT_MORSEL_ROWS env value (read once), else
/// kDefaultMorselRows.
std::size_t MorselRows() noexcept;

/// Process-wide morsel-size override for benches sweeping the knob
/// in-process (the env variable is latched on first use). 0 restores the
/// env/default value; nonzero is clamped like the env value.
void SetMorselRows(std::size_t rows) noexcept;

/// RAII tag: work submitted by this thread while the tag lives uses the
/// given priority. Nests; restores the previous value on destruction.
class ScopedPriority {
 public:
  explicit ScopedPriority(Priority p) noexcept;
  ~ScopedPriority();
  ScopedPriority(const ScopedPriority&) = delete;
  ScopedPriority& operator=(const ScopedPriority&) = delete;

  /// The calling thread's current submission priority (kBatch default).
  static Priority Current() noexcept;

 private:
  Priority previous_;
};

/// RAII tag: while it lives, a loop this thread starts at kBatch
/// priority runs on this thread alone whenever `interactive_in_progress`
/// is non-zero, and spreads over the pool as usual when it is zero.
/// Priority lanes order the morsels in the deques, but a batch loop
/// spread over the pool still takes every worker's CPU time between its
/// morsels; yielding leaves the workers to the interactive queries the
/// count says are in progress (gdelt_serve counts them). The count is
/// read once per loop, at its start. Interactive loops ignore the tag.
/// Nests like ScopedPriority; `interactive_in_progress` must outlive it.
class ScopedYieldToInteractive {
 public:
  explicit ScopedYieldToInteractive(
      const std::atomic<std::uint32_t>& interactive_in_progress) noexcept;
  ~ScopedYieldToInteractive();
  ScopedYieldToInteractive(const ScopedYieldToInteractive&) = delete;
  ScopedYieldToInteractive& operator=(const ScopedYieldToInteractive&) =
      delete;

 private:
  const std::atomic<std::uint32_t>* previous_;
};

/// Counters exposed for tests and the stats endpoint. Snapshot values;
/// monotonically increasing over the pool's lifetime.
struct MorselPoolStats {
  std::uint64_t jobs = 0;     ///< ParallelFor jobs completed.
  std::uint64_t morsels = 0;  ///< morsels executed.
  std::uint64_t steals = 0;   ///< morsels obtained by stealing.
  std::uint64_t inline_jobs = 0;  ///< jobs run inline (nested/shutdown).
  std::uint64_t morsels_skipped = 0;  ///< morsels dropped by cancellation.
};

/// Shared work-stealing pool. Thread-safe; one instance normally serves
/// the whole process (Shared()), but tests construct private pools.
class MorselPool {
 public:
  /// Spawns `workers` threads (<=0: OMP_NUM_THREADS when set, else one
  /// per hardware thread).
  explicit MorselPool(int workers = 0);
  ~MorselPool();

  MorselPool(const MorselPool&) = delete;
  MorselPool& operator=(const MorselPool&) = delete;

  /// Runs body(range, slot) over [0, n) split into contiguous morsels
  /// of `morsel_rows` rows (0 = MorselRows()). Blocks until every
  /// morsel completed. `slot` is a dense scratch index in
  /// [0, num_slots()): morsels of one job running concurrently always
  /// hold distinct slots, so per-slot scratch needs no further locking.
  /// The calling thread participates (it drains its own job), so the
  /// pool makes progress even with zero workers; calls from inside a
  /// worker run inline serially (no nested-pool deadlock), and so does a
  /// batch loop that yields (ScopedYieldToInteractive). Returns
  /// false only when the pool is shutting down and the job was instead
  /// run inline on the caller.
  ///
  /// With a non-null `cancel`, each morsel polls the token before its
  /// body runs; once cancelled the remaining morsels of the job are
  /// skipped (counted in MorselPoolStats::morsels_skipped) but the job
  /// still completes exactly once — the call returns normally and the
  /// *caller* is responsible for discarding the partial result (the
  /// enforcement boundary re-checks the token; see util/cancel.hpp).
  bool ParallelFor(std::size_t n,
                   const std::function<void(IndexRange, std::size_t)>& body,
                   std::size_t morsel_rows = 0,
                   const util::CancelToken* cancel = nullptr);

  /// Deterministic sum over [0, n): per-slot partials of map(i) merged
  /// in slot order. T must be an integral type for bitwise determinism
  /// under stealing.
  template <typename T, typename Map>
  T Sum(std::size_t n, Map&& map) {
    std::vector<T> partials(num_slots(), T{});
    ParallelFor(n, [&](IndexRange r, std::size_t slot) {
      T local{};
      for (std::size_t i = r.begin; i < r.end; ++i) {
        local += map(i);
      }
      partials[slot] += local;
    });
    T total{};
    for (const T& p : partials) total += p;
    return total;
  }

  /// Upper bound on concurrently-held scratch slots (workers + callers).
  std::size_t num_slots() const noexcept { return slots_; }

  /// Number of dedicated worker threads.
  std::size_t num_workers() const noexcept { return workers_.size(); }

  MorselPoolStats stats() const;

  /// Stops admitting jobs, drains queued morsels, joins the workers.
  /// Idempotent; safe to race with ParallelFor (the invariant: every
  /// submitted job still runs to completion, inline if need be).
  void Shutdown();

  /// Process-wide pool, created on first use with the default worker
  /// count (see the constructor) and never destroyed.
  static MorselPool& Shared();

 private:
  struct Job;
  struct Run;  // one morsel of one job
  struct Worker;

  void WorkerLoop(std::size_t w);
  /// Pops local work or steals; false when none exists right now.
  bool TakeRun(std::size_t w, Run& out);
  bool StealInto(std::size_t thief, Run& out);
  /// Takes a queued run belonging to `job` from any deque (caller-drain).
  bool TakeJobRun(const Job* job, Run& out);
  void Execute(const Run& run, std::size_t slot);
  std::size_t AcquireCallerSlot();
  void ReleaseCallerSlot(std::size_t slot);
  /// Serial in-place execution (nested call or shutting-down pool).
  void RunInline(std::size_t n,
                 const std::function<void(IndexRange, std::size_t)>& body,
                 std::size_t morsel_rows, std::size_t slot,
                 const util::CancelToken* cancel);

  std::size_t slots_ = 1;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Written by the constructor before any concurrency, then only read
  /// and cleared under join_mu_ in Shutdown.
  std::vector<std::thread> threads_;
  /// Serializes the join section of concurrent Shutdown calls.
  sync::Mutex join_mu_;

  mutable sync::Mutex mu_;
  sync::CondVar work_cv_;  // signalled when queued_ rises
  sync::CondVar slot_cv_;  // signalled when a caller slot frees
  bool shutting_down_ GDELT_GUARDED_BY(mu_) = false;
  std::size_t sleepers_ GDELT_GUARDED_BY(mu_) = 0;
  /// Runs sitting in deques. Signed: a take may be observed before the
  /// matching push's increment (both are sub-critical-section ordered);
  /// the value is transiently negative then, never at rest.
  std::int64_t queued_ GDELT_GUARDED_BY(mu_) = 0;
  /// Free scratch slots for non-worker callers draining their own job.
  std::vector<std::size_t> caller_slots_ GDELT_GUARDED_BY(mu_);
  std::uint64_t jobs_ GDELT_GUARDED_BY(mu_) = 0;
  std::uint64_t inline_jobs_ GDELT_GUARDED_BY(mu_) = 0;
  std::atomic<std::uint64_t> morsels_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> morsels_skipped_{0};
};

/// RAII override: pool loops this thread starts while the scope lives
/// (PoolParallelFor, PoolSlots and the helpers below) run on `pool`
/// instead of the shared one. Thread-local and nesting like
/// ScopedPriority; thread-count sweeps use it to run on a private
/// MorselPool(t).
class ScopedPool {
 public:
  explicit ScopedPool(MorselPool& pool) noexcept;
  ~ScopedPool();
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  MorselPool* previous_;
};

/// The pool a loop started on this thread runs on: the pool whose morsel
/// the thread is executing (nested loops stay there and run inline),
/// else the innermost ScopedPool, else MorselPool::Shared().
MorselPool& CurrentPool();

/// CurrentPool().ParallelFor(...): the executor of every parallel loop.
void PoolParallelFor(std::size_t n,
                     const std::function<void(IndexRange, std::size_t)>& body,
                     std::size_t morsel_rows = 0,
                     const util::CancelToken* cancel = nullptr);

/// Scratch-slot count of CurrentPool() (for sizing partial arrays).
std::size_t PoolSlots() noexcept;

/// out[i] += partials[s][i] for every slot s in slot order, in parallel
/// over tiles of `tile_elems` elements of `out` (0 = MorselRows()). Each
/// tile is written by one morsel and sums its partials in a fixed order,
/// so the result is bitwise reproducible for any element type. Partials
/// of another size (slots that never ran a morsel) are skipped.
template <typename T>
void MergeSlotPartials(std::span<T> out,
                       const std::vector<std::vector<T>>& partials,
                       std::size_t tile_elems = 0) {
  PoolParallelFor(
      out.size(),
      [&](IndexRange r, std::size_t) {
        for (const auto& local : partials) {
          if (local.size() != out.size()) continue;
          for (std::size_t i = r.begin; i < r.end; ++i) out[i] += local[i];
        }
      },
      tile_elems);
}

/// Deterministic pool histogram: counts bin_of(i) for each index i of
/// `rows`, or with a non-null `selected` only for those whose bit is set
/// there (bit i of selected[i / 64]). Bins >= num_bins are skipped.
/// Morsels are whole 64-row words, MorselRows() rows each; a slot
/// allocates its partial only when it runs one, and the partials merge
/// in slot order (integer sums commute, so which worker ran which morsel
/// cannot change the result). `cancel` is polled per morsel.
template <typename BinOf>
std::vector<std::uint64_t> PoolHistogram(
    IndexRange rows, std::size_t num_bins, BinOf&& bin_of,
    const std::uint64_t* selected = nullptr,
    const util::CancelToken* cancel = nullptr) {
  std::vector<std::uint64_t> merged(num_bins, 0);
  if (rows.empty()) return merged;
  const std::size_t first_word = rows.begin / 64;
  const std::size_t end_word = (rows.end + 63) / 64;
  std::vector<std::vector<std::uint64_t>> partials(PoolSlots());
  PoolParallelFor(
      end_word - first_word,
      [&](IndexRange r, std::size_t slot) {
        auto& local = partials[slot];
        if (local.size() != num_bins) local.assign(num_bins, 0);
        const std::size_t lo =
            std::max(rows.begin, (first_word + r.begin) * 64);
        const std::size_t hi = std::min(rows.end, (first_word + r.end) * 64);
        if (selected == nullptr) {
          for (std::size_t i = lo; i < hi; ++i) {
            const std::size_t bin = bin_of(i);
            if (bin < num_bins) ++local[bin];
          }
          return;
        }
        for (std::size_t w = lo / 64; w * 64 < hi; ++w) {
          // Clip the edge words to [lo, hi).
          std::uint64_t bits = selected[w];
          const std::size_t base = w * 64;
          if (lo > base) bits &= ~std::uint64_t{0} << (lo - base);
          if (hi < base + 64) bits &= ~std::uint64_t{0} >> (base + 64 - hi);
          while (bits) {
            const auto b = static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            const std::size_t bin = bin_of(base + b);
            if (bin < num_bins) ++local[bin];
          }
        }
      },
      std::max<std::size_t>(1, MorselRows() / 64), cancel);
  MergeSlotPartials(std::span<std::uint64_t>(merged), partials);
  return merged;
}

}  // namespace gdelt::parallel
