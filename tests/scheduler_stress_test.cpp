// Stress tests for the admission-control scheduler, aimed at the races a
// service actually hits at shutdown: Submit storming from many threads
// while Drain runs, and multiple threads calling Drain at once (which
// used to double-join the worker threads).
//
// The load-bearing invariant: every submitted task is either executed or
// rejected, exactly once — executed + rejected == submitted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "serve/scheduler.hpp"

namespace gdelt::serve {
namespace {

TEST(SchedulerStressTest, SubmitRacingDrainRunsOrRejectsEveryTask) {
  constexpr int kRounds = 20;
  constexpr int kSubmitters = 8;
  constexpr int kPerThread = 200;
  for (int round = 0; round < kRounds; ++round) {
    Scheduler::Options options;
    options.workers = 4;
    options.queue_capacity = 16;
    Scheduler scheduler(options);

    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kPerThread; ++i) {
          if (!scheduler.Submit([&executed] { executed.fetch_add(1); })) {
            rejected.fetch_add(1);
          }
        }
      });
    }
    go.store(true);
    // Two drains race the submit storm (and each other).
    std::thread drain_a([&] { scheduler.Drain(); });
    std::thread drain_b([&] { scheduler.Drain(); });
    for (auto& s : submitters) s.join();
    drain_a.join();
    drain_b.join();
    scheduler.Drain();  // idempotent after the fact

    const std::uint64_t submitted =
        static_cast<std::uint64_t>(kSubmitters) * kPerThread;
    EXPECT_EQ(executed.load() + rejected.load(), submitted)
        << "round " << round << ": executed=" << executed.load()
        << " rejected=" << rejected.load();
    // Drain stops admission, so anything submitted after it wins is
    // rejected — but nothing may be lost silently.
    EXPECT_FALSE(scheduler.Submit([] {}));
  }
}

TEST(SchedulerStressTest, ConcurrentDrainsDoNotDoubleJoin) {
  Scheduler::Options options;
  options.workers = 2;
  options.queue_capacity = 64;
  Scheduler scheduler(options);

  std::atomic<int> ran{0};
  int admitted = 0;
  for (int i = 0; i < 32; ++i) {
    if (scheduler.Submit([&ran] {
          ran.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        })) {
      ++admitted;
    }
  }
  // Four drains at once: the old guard let two of them both reach the
  // join loop and join the same std::thread twice (UB / terminate).
  std::vector<std::thread> drains;
  for (int i = 0; i < 4; ++i) {
    drains.emplace_back([&] { scheduler.Drain(); });
  }
  for (auto& d : drains) d.join();

  // Every admitted task ran before any drain returned.
  EXPECT_EQ(ran.load(), admitted);
  EXPECT_FALSE(scheduler.Submit([] {}));
}

TEST(SchedulerStressTest, DrainWaitsForInFlightTask) {
  Scheduler::Options options;
  options.workers = 1;
  options.queue_capacity = 4;
  Scheduler scheduler(options);

  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  ASSERT_TRUE(scheduler.Submit([&] {
    started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    finished.store(true);
  }));
  while (!started.load()) std::this_thread::yield();
  scheduler.Drain();
  EXPECT_TRUE(finished.load());
}

}  // namespace
}  // namespace gdelt::serve
