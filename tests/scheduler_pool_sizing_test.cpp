// The shared morsel pool is sized from OMP_NUM_THREADS when it is set:
// deployments give each server its share of the host through that
// variable (e2ebench does), so the pool must honour it whichever thread
// touches the pool first — here a scheduler task, as a query would.
//
// The check runs as a death test: the pool is a process-wide singleton,
// so it needs a fresh process in which nothing has created it yet.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "parallel/morsel.hpp"
#include "serve/scheduler.hpp"

namespace gdelt::serve {
namespace {

/// Returns the worker count of the shared pool as first touched from
/// inside a scheduler task.
std::size_t PoolWorkersSeenFromQuery() {
  Scheduler::Options options;
  options.workers = 1;
  std::size_t seen = 0;
  {
    Scheduler scheduler(options);
    scheduler.Submit(
        [&seen] { seen = parallel::MorselPool::Shared().num_workers(); });
    scheduler.Drain();
  }
  return seen;
}

TEST(SchedulerPoolSizingDeathTest, SharedPoolSizedFromOmpNumThreads) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("OMP_NUM_THREADS", "3", /*overwrite=*/1);
        const std::size_t seen = PoolWorkersSeenFromQuery();
        std::fprintf(stderr, "pool workers %zu, expected 3\n", seen);
        std::exit(seen == 3 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "pool workers");
}

}  // namespace
}  // namespace gdelt::serve
