// Annotated synchronization primitives: the repo's only lock vocabulary.
//
// Every mutex in the codebase is a sync::Mutex and every critical section
// a sync::MutexLock, so Clang's Thread Safety Analysis can prove lock
// discipline at compile time over *all* paths — not just the
// interleavings a TSan run happens to execute. Under Clang the build adds
// `-Wthread-safety -Werror=thread-safety`; under GCC the annotations
// compile away to nothing and the types are thin wrappers over the
// standard primitives.
//
// Usage pattern (see docs/STATIC_ANALYSIS.md for the full guide):
//
//   class Thing {
//     void Add(int v) {
//       sync::MutexLock lock(mu_);
//       total_ += v;               // OK: mu_ is held
//     }
//     void AddLocked(int v) GDELT_REQUIRES(mu_) { total_ += v; }
//    private:
//     mutable sync::Mutex mu_;
//     int total_ GDELT_GUARDED_BY(mu_) = 0;
//   };
//
// Raw std::mutex / std::lock_guard / std::condition_variable outside this
// header fail the static analyzer (tools/analyze/gdelt_astcheck.py, rule
// `raw-mutex`).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attributes (no-ops on other compilers).
// ---------------------------------------------------------------------------
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define GDELT_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef GDELT_THREAD_ANNOTATION
#define GDELT_THREAD_ANNOTATION(x)
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define GDELT_CAPABILITY(x) GDELT_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define GDELT_SCOPED_CAPABILITY GDELT_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be touched while holding the named capability.
#define GDELT_GUARDED_BY(x) GDELT_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field whose *pointee* is protected by the named capability.
#define GDELT_PT_GUARDED_BY(x) GDELT_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability held on entry (e.g. *Locked helpers).
#define GDELT_REQUIRES(...) \
  GDELT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it past return.
#define GDELT_ACQUIRE(...) \
  GDELT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases a held capability before return.
#define GDELT_RELEASE(...) \
  GDELT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function tries to acquire; first argument is the success return value.
#define GDELT_TRY_ACQUIRE(...) \
  GDELT_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be entered holding the capability (deadlock guard).
#define GDELT_EXCLUDES(...) GDELT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define GDELT_RETURN_CAPABILITY(x) GDELT_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch — requires a justification comment in the three lines
/// above it, audited by gdelt_astcheck (rule `tsa-escape`).
#define GDELT_NO_THREAD_SAFETY_ANALYSIS \
  GDELT_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace gdelt::sync {

class CondVar;

/// Annotated standard mutex. Prefer sync::MutexLock over manual
/// Lock/Unlock pairs; the manual calls exist for the rare staircase
/// pattern and for adapters.
class GDELT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GDELT_ACQUIRE() { mu_.lock(); }
  void Unlock() GDELT_RELEASE() { mu_.unlock(); }
  bool TryLock() GDELT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII critical section over a sync::Mutex.
class GDELT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GDELT_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() GDELT_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to sync::Mutex. Wait takes the *mutex* (which
/// the caller must hold — enforced by the analysis), not the MutexLock,
/// so `GDELT_REQUIRES` can name the capability directly. Write waits as
/// explicit loops; predicate lambdas are analyzed as separate functions
/// and would defeat the annotations:
///
///   sync::MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and re-acquires before returning.
  void Wait(Mutex& mu) GDELT_REQUIRES(mu) { cv_.wait(mu.mu_); }

  /// Wait with a relative timeout; std::cv_status::timeout on expiry.
  template <class Rep, class Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      GDELT_REQUIRES(mu) {
    return cv_.wait_for(mu.mu_, timeout);
  }

  void NotifyOne() noexcept { cv_.notify_one(); }
  void NotifyAll() noexcept { cv_.notify_all(); }

 private:
  // condition_variable_any waits on any BasicLockable — here the wrapped
  // std::mutex itself, keeping MutexLock scopes and waits composable.
  std::condition_variable_any cv_;
};

}  // namespace gdelt::sync
