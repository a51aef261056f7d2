// Clang -Wthread-safety annotations, spelled STAGGER_* and expanding to
// nothing on GCC/MSVC (the sibling of abseil's thread_annotations.h).
// The clang CI job compiles the concurrent translation units —
// server/experiment.cc, util/logging.cc, rebuild/rebuild_manager.cc —
// with -Wthread-safety -Werror, turning lock-discipline violations into
// build failures.
//
// std::mutex itself carries no capability attributes in libstdc++ or
// libc++, so the analysis cannot see through it.  Annotated code must
// therefore use the `Mutex` / `MutexLock` wrappers below, whose methods
// declare their acquire/release behaviour to the analyzer.
//
// Quick reference:
//   Mutex mu_;
//   int x_ STAGGER_GUARDED_BY(mu_);          // reads/writes need mu_
//   void Tidy() STAGGER_REQUIRES(mu_);       // caller already holds mu_
//   void Poke() STAGGER_EXCLUDES(mu_);       // caller must NOT hold mu_
//   { MutexLock lock(&mu_); ... }            // scoped acquire/release

#ifndef STAGGER_UTIL_THREAD_ANNOTATIONS_H_
#define STAGGER_UTIL_THREAD_ANNOTATIONS_H_

#include <mutex>

#if defined(__clang__)
#define STAGGER_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define STAGGER_THREAD_ANNOTATION(x)
#endif

#define STAGGER_CAPABILITY(x) STAGGER_THREAD_ANNOTATION(capability(x))
#define STAGGER_SCOPED_CAPABILITY STAGGER_THREAD_ANNOTATION(scoped_lockable)
#define STAGGER_GUARDED_BY(x) STAGGER_THREAD_ANNOTATION(guarded_by(x))
#define STAGGER_PT_GUARDED_BY(x) STAGGER_THREAD_ANNOTATION(pt_guarded_by(x))
#define STAGGER_ACQUIRED_BEFORE(...) \
  STAGGER_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define STAGGER_ACQUIRED_AFTER(...) \
  STAGGER_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define STAGGER_REQUIRES(...) \
  STAGGER_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define STAGGER_REQUIRES_SHARED(...) \
  STAGGER_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define STAGGER_ACQUIRE(...) \
  STAGGER_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define STAGGER_ACQUIRE_SHARED(...) \
  STAGGER_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define STAGGER_RELEASE(...) \
  STAGGER_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define STAGGER_TRY_ACQUIRE(...) \
  STAGGER_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define STAGGER_EXCLUDES(...) \
  STAGGER_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define STAGGER_RETURN_CAPABILITY(x) \
  STAGGER_THREAD_ANNOTATION(lock_returned(x))
#define STAGGER_NO_THREAD_SAFETY_ANALYSIS \
  STAGGER_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace stagger {

/// \brief std::mutex with capability annotations the analysis can see.
class STAGGER_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() STAGGER_ACQUIRE() { mu_.lock(); }
  void Unlock() STAGGER_RELEASE() { mu_.unlock(); }
  bool TryLock() STAGGER_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// \brief RAII lock over `Mutex`; the scoped capability the analysis
/// tracks through a block.
class STAGGER_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) STAGGER_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() STAGGER_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace stagger

#endif  // STAGGER_UTIL_THREAD_ANNOTATIONS_H_
