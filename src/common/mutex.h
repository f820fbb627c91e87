#pragma once
// Ranked mutexes — the runtime layer of the concurrency-correctness gate
// (DESIGN.md §13), pairing the static clang capability analysis
// (common/annotations.h) with a dynamic lock-order detector.
//
// Every mutex in src/ is a `zl::OrderedMutex` carrying a `LockRank` from
// the documented hierarchy below. A thread may only acquire a lock whose
// rank is *strictly greater* than every rank it already holds; any
// out-of-order acquisition — the shape of every lock-inversion deadlock —
// aborts the process immediately with both lock names, instead of
// deadlocking two validators into payout equivocation some Tuesday under
// load. The check is a thread-local array push/pop plus one comparison:
// noise next to the cost of the mutex itself on these coarse locks, so it
// is compiled in everywhere (sanitizer legs, Release, the tier-1 suite)
// unless ZL_NO_LOCK_RANK_CHECK is defined. tests/test_concurrency.cpp
// plants an inversion and expects the death.
//
// The lock hierarchy (acquire order: lower rank first; full table with
// nesting rationale in DESIGN.md §13):
//
//   rank  lock                          guards
//   ----  ----------------------------  ----------------------------------
//    10   kChain        (external)      Blockchain block tree + state — the
//                                       chain is externally synchronized;
//                                       multi-threaded hosts wrap it in a
//                                       kChain-ranked lock (tests do).
//    20   kChainEvents  events_mu_      Blockchain::head_events_ hand-off.
//    30   kMempool      Mempool::mu_    all mempool indexes.
//    40   kPoolRegion   region_mutex_   one top-level parallel region at a
//                                       time (ThreadPool).
//    50   kPoolQueue    mutex_          ThreadPool job + worker bookkeeping.
//    70   kSigVerdictCache              signature VerdictMemo
//                                       (chain/validation.h).
//    80   kSnarkMemoCache               snark_verify VerdictMemo
//                                       (chain/validation.h).
//    84   kObsRegistry                  obs metric + trace-ring registries
//                                       (src/obs) — above every subsystem
//                                       lock so instrumented code may
//                                       register a metric while holding its
//                                       own lock.
//    86   kObsTraceRing                 one per-thread trace ring buffer;
//                                       nested under kObsRegistry by the
//                                       trace drain, never nests anything.
//    90   kLeaf                         strictly-leaf locks that never nest
//                                       another acquisition (tests, tools).

#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <mutex>
#include <type_traits>
#include <utility>

#include "common/annotations.h"

namespace zl {

enum class LockRank : unsigned {
  kChain = 10,
  kChainEvents = 20,
  kMempool = 30,
  kPoolRegion = 40,
  kPoolQueue = 50,
  kSigVerdictCache = 70,
  kSnarkMemoCache = 80,
  kObsRegistry = 84,
  kObsTraceRing = 86,
  kLeaf = 90,
};

namespace detail {

#if !defined(ZL_NO_LOCK_RANK_CHECK)

struct HeldLock {
  unsigned rank;
  const char* name;
  const void* id;  // the mutex itself — release matches on identity
};

/// Per-thread stack of currently held ranked locks, in acquisition order.
/// Deliberately a trivially-destructible fixed array, NOT a std::vector: a
/// vector would register a TLS destructor, and the C runtime destroys
/// thread-locals *before* atexit-registered statics — so a static singleton
/// (the process thread pool) taking a ranked lock in its destructor would
/// push into a freed vector. A POD array has no TLS destructor and stays
/// valid for the whole thread lifetime. The depth bound is generous: the
/// hierarchy has ten ranks and a thread can hold at most one blocking
/// acquisition per rank, so 32 only trips on grossly undisciplined code.
struct HeldLockStack {
  static constexpr std::size_t kMaxDepth = 32;
  HeldLock entries[kMaxDepth];
  std::size_t depth;
};
static_assert(std::is_trivially_destructible_v<HeldLockStack>);

inline HeldLockStack& held_locks() {
  thread_local HeldLockStack held;
  return held;
}

inline void held_push(HeldLockStack& held, unsigned rank, const char* name, const void* id) {
  if (held.depth == HeldLockStack::kMaxDepth) {
    std::fprintf(stderr,
                 "lock-rank violation: thread holds %zu ranked locks while acquiring "
                 "\"%s\" (rank %u) — no sane locking discipline nests this deep\n",
                 held.depth, name, rank);
    std::abort();
  }
  held.entries[held.depth++] = {rank, name, id};
}

[[noreturn]] inline void rank_violation(unsigned acquiring_rank, const char* acquiring_name,
                                        const HeldLock& held) {
  std::fprintf(stderr,
               "lock-rank violation: acquiring \"%s\" (rank %u) while holding \"%s\" "
               "(rank %u) — acquisition order must strictly increase (DESIGN.md §13)\n",
               acquiring_name, acquiring_rank, held.name, held.rank);
  std::abort();
}

/// Called before blocking on the lock, so a latent inversion is reported
/// even on executions where the schedule happens not to deadlock.
inline void rank_acquire(unsigned rank, const char* name, const void* id) {
  HeldLockStack& held = held_locks();
  for (std::size_t i = 0; i < held.depth; ++i) {
    if (held.entries[i].rank >= rank) rank_violation(rank, name, held.entries[i]);
  }
  held_push(held, rank, name, id);
}

/// try_lock never blocks and therefore cannot deadlock: it is tracked (so
/// later blocking acquisitions see it) but not order-checked.
inline void rank_acquire_try(unsigned rank, const char* name, const void* id) {
  held_push(held_locks(), rank, name, id);
}

/// Unlocks need not be LIFO; release the matching entry wherever it sits.
inline void rank_release(const void* id) {
  HeldLockStack& held = held_locks();
  for (std::size_t i = held.depth; i-- > 0;) {
    if (held.entries[i].id == id) {
      for (std::size_t j = i + 1; j < held.depth; ++j) held.entries[j - 1] = held.entries[j];
      --held.depth;
      return;
    }
  }
}

#else

inline void rank_acquire(unsigned, const char*, const void*) {}
inline void rank_acquire_try(unsigned, const char*, const void*) {}
inline void rank_release(const void*) {}

#endif  // !ZL_NO_LOCK_RANK_CHECK

}  // namespace detail

/// A std::mutex with a capability annotation and a documented rank. All
/// production locks go through this wrapper: the clang analysis sees the
/// ZL_ACQUIRE/ZL_RELEASE contract, the rank detector sees every
/// acquisition, and zl-lint's `naked-mutex` rule rejects raw std::mutex
/// members anywhere else in src/.
class ZL_CAPABILITY("mutex") OrderedMutex {
 public:
  OrderedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() ZL_ACQUIRE() {
    detail::rank_acquire(static_cast<unsigned>(rank_), name_, this);
    m_.lock();
  }

  void unlock() ZL_RELEASE() {
    m_.unlock();
    detail::rank_release(this);
  }

  bool try_lock() ZL_TRY_ACQUIRE(true) {
    if (!m_.try_lock()) return false;
    detail::rank_acquire_try(static_cast<unsigned>(rank_), name_, this);
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  // The one sanctioned raw mutex: this wrapper IS the chokepoint every
  // other lock in src/ must route through. zl-lint: allow(naked-mutex)
  std::mutex m_;
  LockRank rank_;
  const char* name_;
};

/// RAII lock: the only way production code takes an OrderedMutex (zl-lint's
/// `naked-unlock` rule rejects manual .lock()/.unlock() outside this file).
class ZL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(OrderedMutex& m) ZL_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() ZL_RELEASE() { m_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  OrderedMutex& m_;
};

/// Reverse scope: releases a held lock for the body and reacquires it on
/// exit (the condition-variable worker-loop shape: drop the queue lock
/// while running a chunk, take it back to update bookkeeping).
class ZL_SCOPED_CAPABILITY MutexUnlock {
 public:
  explicit MutexUnlock(OrderedMutex& m) ZL_RELEASE(m) : m_(m) { m_.unlock(); }
  ~MutexUnlock() ZL_ACQUIRE() { m_.lock(); }
  MutexUnlock(const MutexUnlock&) = delete;
  MutexUnlock& operator=(const MutexUnlock&) = delete;

 private:
  OrderedMutex& m_;
};

/// Condition variable over OrderedMutex. condition_variable_any's
/// wait(lock) calls OrderedMutex::lock/unlock directly, so the rank
/// detector stays consistent across waits, and the capability analysis
/// sees no change (wait reacquires before returning, preserving the
/// caller's lockset).
using CondVar = std::condition_variable_any;

}  // namespace zl
