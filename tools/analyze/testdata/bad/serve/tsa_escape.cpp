// Seeded tsa-escape violation: exactly ONE unexplained escape hatch.
#define GDELT_NO_THREAD_SAFETY_ANALYSIS

namespace fixture {

struct Widget {
  int value = 0;

  int Read() GDELT_NO_THREAD_SAFETY_ANALYSIS { return value; }
};

}  // namespace fixture
