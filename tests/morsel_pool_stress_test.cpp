// Stress tests for the morsel-driven work-stealing pool, modeled on
// scheduler_stress_test: the submit-racing-shutdown invariant (every
// ParallelFor covers its whole range exactly once, on the pool or
// inline), steal-count sanity, nested-call inlining, and the starvation
// check the two priority lanes exist for (a small interactive job
// finishes while a saturating batch job is still in flight).
//
// Private pools are used throughout: the shared pool is sized by the
// host (or OMP_NUM_THREADS) and owns process-global counters, so these
// tests spawn their own workers for deterministic worker counts on any
// host.
#include "parallel/morsel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace gdelt::parallel {
namespace {

/// Runs one ParallelFor over `n` indices with per-index touch counts and
/// asserts exactly-once coverage regardless of the admission result.
void RunCovered(MorselPool& pool, std::size_t n, std::size_t morsel_rows) {
  std::vector<std::atomic<std::uint32_t>> touched(n);
  const bool admitted = pool.ParallelFor(
      n,
      [&](IndexRange r, std::size_t) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          touched[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      morsel_rows);
  // All-or-nothing: admitted jobs run on the pool, rejected jobs run
  // inline on the caller, but every index is covered exactly once.
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(touched[i].load(std::memory_order_relaxed), 1u)
        << "index " << i << " admitted=" << admitted;
  }
}

TEST(MorselPoolStressTest, SubmitRacingShutdown) {
  constexpr int kRounds = 12;
  constexpr int kSubmitters = 4;
  constexpr int kJobsPerSubmitter = 8;
  for (int round = 0; round < kRounds; ++round) {
    MorselPool pool(2);
    std::atomic<int> started{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&pool, &started] {
        for (int j = 0; j < kJobsPerSubmitter; ++j) {
          started.fetch_add(1, std::memory_order_relaxed);
          RunCovered(pool, /*n=*/512, /*morsel_rows=*/64);
        }
      });
    }
    // Shut down mid-stream: some jobs land on the pool, the rest must
    // fall back to inline execution without losing or repeating work.
    while (started.load(std::memory_order_relaxed) <
           kSubmitters * kJobsPerSubmitter / 2) {
      std::this_thread::yield();
    }
    pool.Shutdown();
    for (auto& t : submitters) t.join();
    const auto stats = pool.stats();
    EXPECT_EQ(stats.jobs + stats.inline_jobs,
              static_cast<std::uint64_t>(kSubmitters * kJobsPerSubmitter))
        << "round " << round;
  }
}

TEST(MorselPoolStressTest, ConcurrentShutdownsAreIdempotent) {
  MorselPool pool(2);
  RunCovered(pool, 1024, 64);
  std::vector<std::thread> closers;
  for (int i = 0; i < 4; ++i) {
    closers.emplace_back([&pool] { pool.Shutdown(); });
  }
  for (auto& t : closers) t.join();
  // Post-shutdown submission still covers its range (inline).
  RunCovered(pool, 256, 64);
}

TEST(MorselPoolStressTest, StealCountSanity) {
  // Morsels are distributed round-robin, so steals only happen when one
  // worker runs dry while another still has queue — guaranteed
  // eventually under OS scheduling jitter, not per round. Loop rounds
  // until a steal is observed; sleeping morsels make the window wide.
  bool stole = false;
  for (int round = 0; round < 50 && !stole; ++round) {
    MorselPool pool(4);
    for (int job = 0; job < 4; ++job) {
      pool.ParallelFor(
          /*n=*/128,
          [](IndexRange, std::size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          },
          /*morsel_rows=*/1);
    }
    const auto stats = pool.stats();
    EXPECT_EQ(stats.morsels, 4u * 128u) << "round " << round;
    EXPECT_LE(stats.steals, stats.morsels);
    stole = stats.steals > 0;
  }
  EXPECT_TRUE(stole) << "no steal observed in 50 rounds of 4 workers";
}

TEST(MorselPoolStressTest, NestedParallelForRunsInline) {
  MorselPool pool(2);
  std::atomic<std::uint64_t> total{0};
  pool.ParallelFor(
      /*n=*/32,
      [&](IndexRange r, std::size_t) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          // A migrated kernel calling another migrated kernel must not
          // deadlock a small pool; the inner job runs serially on the
          // slot this thread already holds.
          std::uint64_t inner = 0;
          pool.ParallelFor(
              /*n=*/64,
              [&inner](IndexRange rr, std::size_t) {
                for (std::size_t k = rr.begin; k < rr.end; ++k) inner += k;
              },
              /*morsel_rows=*/16);
          EXPECT_EQ(inner, 64u * 63u / 2);
          total.fetch_add(inner, std::memory_order_relaxed);
        }
      },
      /*morsel_rows=*/1);
  EXPECT_EQ(total.load(), 32u * (64u * 63u / 2));
  EXPECT_GT(pool.stats().inline_jobs, 0u);
}

TEST(MorselPoolStressTest, InteractiveJobNotStarvedByBatchJob) {
  // One worker, one saturating batch job: without the priority lanes an
  // interactive job's morsels would queue behind ~hundreds of batch
  // morsels. With them, the worker drains interactive morsels first and
  // the small job finishes while the batch job is still running.
  MorselPool pool(1);
  std::atomic<bool> batch_started{false};
  std::atomic<bool> batch_done{false};
  std::atomic<std::uint64_t> batch_after_interactive{0};
  std::atomic<bool> interactive_done{false};

  std::thread batch([&] {
    ScopedPriority priority(Priority::kBatch);
    pool.ParallelFor(
        /*n=*/400,
        [&](IndexRange, std::size_t) {
          batch_started.store(true, std::memory_order_release);
          std::this_thread::sleep_for(std::chrono::microseconds(500));
          if (interactive_done.load(std::memory_order_acquire)) {
            batch_after_interactive.fetch_add(1, std::memory_order_relaxed);
          }
        },
        /*morsel_rows=*/1);
    batch_done.store(true, std::memory_order_release);
  });

  while (!batch_started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  bool batch_still_running = false;
  {
    ScopedPriority priority(Priority::kInteractive);
    pool.ParallelFor(
        /*n=*/4, [](IndexRange, std::size_t) {}, /*morsel_rows=*/1);
    batch_still_running = !batch_done.load(std::memory_order_acquire);
    interactive_done.store(true, std::memory_order_release);
  }
  batch.join();

  // The interactive job must have overtaken the batch job, and the
  // batch job must have kept running after it finished (i.e. the small
  // query did not simply wait for the big one to drain).
  EXPECT_TRUE(batch_still_running);
  EXPECT_GT(batch_after_interactive.load(std::memory_order_relaxed), 0u);
}

TEST(MorselPoolStressTest, SumIsDeterministicAcrossRuns) {
  MorselPool pool(3);
  const auto run = [&pool] {
    return pool.Sum<std::uint64_t>(100000,
                                   [](std::size_t i) { return i * 2654435761u; });
  };
  const std::uint64_t first = run();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(run(), first);
  }
}

}  // namespace
}  // namespace gdelt::parallel
