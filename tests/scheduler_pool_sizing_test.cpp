// The shared morsel pool must be sized from the process's OpenMP budget,
// not from whichever thread first happens to touch it. Scheduler workers
// narrow their own budget to threads_per_query, so a pool first used by a
// query would get threads_per_query workers while one first used by a
// connection thread (e.g. a `metrics` request) would get the full
// budget. The Scheduler therefore creates the pool on the configuring
// thread before its workers start.
//
// The check runs as a death test: the pool is a process-wide singleton,
// so it needs a fresh process in which nothing has created it yet.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "parallel/morsel.hpp"
#include "parallel/parallel.hpp"
#include "serve/scheduler.hpp"

namespace gdelt::serve {
namespace {

/// Returns the worker count of the shared pool as first touched from
/// inside a scheduler task running under threads_per_query = 1.
std::size_t PoolWorkersSeenFromQuery() {
  Scheduler::Options options;
  options.workers = 1;
  options.threads_per_query = 1;
  std::size_t seen = 0;
  {
    Scheduler scheduler(options);
    scheduler.Submit(
        [&seen] { seen = parallel::MorselPool::Shared().num_workers(); });
    scheduler.Drain();
  }
  return seen;
}

TEST(SchedulerPoolSizingDeathTest, SharedPoolSizedFromConfiguringThread) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        // A budget above threads_per_query, whatever the host's core count.
        SetThreads(3);
        const auto expected = static_cast<std::size_t>(MaxThreads());
        const std::size_t seen = PoolWorkersSeenFromQuery();
        std::fprintf(stderr, "pool workers %zu, expected %zu\n", seen,
                     expected);
        std::exit(seen == expected ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "pool workers");
}

}  // namespace
}  // namespace gdelt::serve
