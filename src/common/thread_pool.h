#pragma once
// The parallelism layer backing the proving engine: a lazily-spawned,
// process-wide thread pool plus `parallel_for` / `parallel_map` helpers.
//
// Sizing: the pool targets ZL_THREADS (environment) if set, otherwise the
// hardware concurrency; the startup default is clamped to the hardware
// concurrency so the pool never oversubscribes the host. `set_num_threads`
// adjusts it at runtime without the clamp (used by benches and tests to
// measure serial-vs-parallel on one process). ZL_THREADS=1 — or a
// single-core host — is a guaranteed serial fallback: every helper then runs
// inline on the caller with no pool interaction at all.
//
// Determinism: all parallel users of this header either write disjoint
// output slots or reduce per-chunk partials in chunk order. Field and group
// arithmetic is exact (no floating point), so any chunking of a sum yields
// bit-identical results; the tests in tests/test_parallel.cpp assert
// equality between ZL_THREADS=1 and ZL_THREADS=8 runs.
//
// Nesting: a parallel region entered from inside another one — on a pool
// worker or on the caller thread executing its own share of chunks —
// degrades to serial execution on that thread (no new tasks are enqueued),
// so nested parallel code can never deadlock the pool.
//
// Lock discipline (DESIGN.md §13): two ranked locks. `region_mutex_`
// (kPoolRegion) serializes top-level parallel regions; `mutex_`
// (kPoolQueue, acquired strictly after it) guards job hand-off and worker
// bookkeeping. Cross-thread progress signals (`shutdown_`,
// `job_generation_`, `busy_workers_`, chunk counters) are atomics so the
// condition-variable predicates touch no guarded state; the job descriptor
// itself (`job_fn_`, `job_chunks_`, `job_slots_`, `job_active_`,
// `job_error_`, `workers_`) is ZL_GUARDED_BY(mutex_) and only ever read under it —
// workers snapshot the descriptor while locked and chew through chunks via
// the snapshot, never through the guarded fields.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace zl {

namespace detail {
/// True on pool workers (always) and on a caller thread for the duration of
/// the parallel region it is driving. Any run() call that sees it degrades
/// to a serial loop — nesting can therefore never touch the pool again,
/// whether the nested region is entered from a worker or from the caller
/// executing its own share of chunks.
inline bool& in_parallel_region() {
  thread_local bool flag = false;
  return flag;
}
}  // namespace detail

class ThreadPool {
 public:
  /// Hard cap on pool size (a runaway ZL_THREADS should not fork-bomb).
  static constexpr unsigned kMaxThreads = 64;

  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  /// Current target parallelism (>= 1; 1 means fully serial).
  unsigned num_threads() const { return target_threads_.load(std::memory_order_relaxed); }

  /// Adjust the target parallelism; workers are spawned lazily on the next
  /// parallel region. Clamped to [1, kMaxThreads].
  void set_num_threads(unsigned n) {
    if (n < 1) n = 1;
    if (n > kMaxThreads) n = kMaxThreads;
    target_threads_.store(n, std::memory_order_relaxed);
  }

  /// Runs fn(chunk) for every chunk in [0, num_chunks), distributed over the
  /// pool; the calling thread participates. Blocks until every chunk has
  /// run. Exceptions from chunks are rethrown on the caller (first one
  /// wins). Serial fallback: one thread, one chunk, or a nested call.
  void run(std::size_t num_chunks, const std::function<void(std::size_t)>& fn) {
    if (num_chunks == 0) return;
    const unsigned threads = num_threads();
    if (threads <= 1 || num_chunks == 1 || detail::in_parallel_region()) {
      for (std::size_t c = 0; c < num_chunks; ++c) fn(c);
      return;
    }

    // One parallel region at a time; concurrent callers queue up here. The
    // caller is marked in-region before it can execute any chunk, so a
    // nested run() from inside fn (on this thread) stays serial instead of
    // re-locking region_mutex_.
    MutexLock region(region_mutex_);
    struct RegionFlag {
      RegionFlag() { detail::in_parallel_region() = true; }
      ~RegionFlag() { detail::in_parallel_region() = false; }
    } region_flag;
    {
      MutexLock lock(mutex_);
      ensure_workers_locked(threads - 1);
      job_fn_ = &fn;
      job_chunks_ = num_chunks;
      job_slots_ = threads - 1;
      next_chunk_.store(0, std::memory_order_relaxed);
      pending_chunks_.store(num_chunks, std::memory_order_relaxed);
      job_error_ = nullptr;
      job_active_ = true;
      job_generation_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();
    work(&fn, num_chunks);  // the caller takes chunks too
    std::exception_ptr err;
    {
      MutexLock lock(mutex_);
      // Predicate reads only atomics; the job descriptor is cleared under
      // the lock once every worker has drained.
      done_cv_.wait(mutex_, [&] {
        return pending_chunks_.load(std::memory_order_acquire) == 0 &&
               busy_workers_.load(std::memory_order_acquire) == 0;
      });
      job_active_ = false;
      job_fn_ = nullptr;
      err = std::exchange(job_error_, nullptr);
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  ThreadPool() {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    unsigned n = hw;
    if (const char* env = std::getenv("ZL_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1) n = static_cast<unsigned>(v);
    }
    // The default never oversubscribes: more workers than hardware threads
    // only slows the exact-arithmetic workloads down (and once produced a
    // bogus <1 "speedup" in BENCH_prover.json on a single-core host).
    // set_num_threads() remains unclamped for tests that deliberately
    // exercise high chunk counts.
    if (n > hw) n = hw;
    set_num_threads(n);
  }

  ~ThreadPool() {
    {
      MutexLock lock(mutex_);
      shutdown_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
    std::vector<std::thread> workers;
    {
      MutexLock lock(mutex_);
      workers = std::move(workers_);
    }
    for (std::thread& t : workers) t.join();
  }

  void ensure_workers_locked(unsigned wanted) ZL_REQUIRES(mutex_) {
    while (workers_.size() < wanted && workers_.size() < kMaxThreads - 1) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    detail::in_parallel_region() = true;
    std::uint64_t seen = 0;
    MutexLock lock(mutex_);
    for (;;) {
      // Wake predicate reads only atomics; the guarded job descriptor is
      // snapshotted below, while the lock is (again) held.
      cv_.wait(mutex_, [&] {
        return shutdown_.load(std::memory_order_acquire) ||
               job_generation_.load(std::memory_order_acquire) != seen;
      });
      if (shutdown_.load(std::memory_order_relaxed)) return;
      seen = job_generation_.load(std::memory_order_relaxed);
      // Workers spawned for a wider earlier region sit this one out: a
      // region runs on at most num_threads() threads, caller included.
      if (!job_active_ || job_slots_ == 0) continue;
      --job_slots_;
      const std::function<void(std::size_t)>* fn = job_fn_;
      const std::size_t chunks = job_chunks_;
      busy_workers_.fetch_add(1, std::memory_order_relaxed);
      {
        MutexUnlock unlocked(mutex_);
        work(fn, chunks);
      }
      if (busy_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
          pending_chunks_.load(std::memory_order_acquire) == 0) {
        done_cv_.notify_all();
      }
    }
  }

  /// Takes chunks until the job runs dry. The descriptor arrives as
  /// parameters — snapshotted by the caller while it held mutex_ — so this
  /// runs entirely lock-free except for error capture and the final wakeup.
  void work(const std::function<void(std::size_t)>* fn, std::size_t chunks) {
    for (;;) {
      const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      try {
        (*fn)(c);
      } catch (...) {
        MutexLock lock(mutex_);
        if (!job_error_) job_error_ = std::current_exception();
      }
      if (pending_chunks_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        MutexLock lock(mutex_);
        done_cv_.notify_all();
      }
    }
  }

  std::atomic<unsigned> target_threads_{1};
  /// Serializes top-level parallel regions: it guards a *phase* (one job in
  /// flight at a time), not data, so no field carries ZL_GUARDED_BY on it —
  /// reviewed exception. Taken before mutex_ (kPoolQueue).
  // zl-lint: allow(naked-mutex)
  OrderedMutex region_mutex_{LockRank::kPoolRegion, "pool.region"};

  /// Guards the job descriptor and the worker vector.
  OrderedMutex mutex_{LockRank::kPoolQueue, "pool.queue"};
  CondVar cv_;       // wakes workers for a new job
  CondVar done_cv_;  // wakes the caller when a job drains

  std::vector<std::thread> workers_ ZL_GUARDED_BY(mutex_);
  const std::function<void(std::size_t)>* job_fn_ ZL_GUARDED_BY(mutex_) = nullptr;
  std::size_t job_chunks_ ZL_GUARDED_BY(mutex_) = 0;
  unsigned job_slots_ ZL_GUARDED_BY(mutex_) = 0;  // workers the job may still take
  bool job_active_ ZL_GUARDED_BY(mutex_) = false;
  std::exception_ptr job_error_ ZL_GUARDED_BY(mutex_);

  // Cross-thread progress signals: atomics so cv predicates and the chunk
  // race touch no guarded state.
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> job_generation_{0};
  std::atomic<unsigned> busy_workers_{0};
  std::atomic<std::size_t> next_chunk_{0};
  std::atomic<std::size_t> pending_chunks_{0};
};

/// Target parallelism of the process (ZL_THREADS / hardware concurrency).
inline unsigned num_threads() { return ThreadPool::instance().num_threads(); }

/// Override the target parallelism (1 = serial). Benches and tests use this
/// to compare serial and parallel runs inside one process.
inline void set_num_threads(unsigned n) { ThreadPool::instance().set_num_threads(n); }

/// Splits [0, n) into `chunks` near-equal ranges; returns the c-th range.
inline std::pair<std::size_t, std::size_t> chunk_range(std::size_t n, std::size_t chunks,
                                                       std::size_t c) {
  const std::size_t base = n / chunks, rem = n % chunks;
  const std::size_t begin = c * base + (c < rem ? c : rem);
  return {begin, begin + base + (c < rem ? 1 : 0)};
}

/// Number of chunks to split `n` items into: enough for load balance, never
/// more than one per `min_grain` items (tiny inputs stay serial).
inline std::size_t parallel_chunk_count(std::size_t n, std::size_t min_grain = 64) {
  if (n == 0) return 0;
  const std::size_t by_grain = (n + min_grain - 1) / min_grain;
  const std::size_t by_threads = static_cast<std::size_t>(num_threads()) * 4;
  const std::size_t chunks = by_grain < by_threads ? by_grain : by_threads;
  return chunks < 1 ? 1 : chunks;
}

/// parallel_for_range(n, fn): fn(begin, end) over disjoint ranges covering
/// [0, n). fn must only touch state owned by its range (or thread-safe
/// accumulators merged deterministically by the caller).
template <typename F>
void parallel_for_range(std::size_t n, F&& fn, std::size_t min_grain = 64) {
  if (n == 0) return;
  const std::size_t chunks = parallel_chunk_count(n, min_grain);
  if (chunks <= 1) {
    fn(std::size_t{0}, n);
    return;
  }
  ThreadPool::instance().run(chunks, [&](std::size_t c) {
    const auto [begin, end] = chunk_range(n, chunks, c);
    fn(begin, end);
  });
}

/// parallel_for(n, fn): fn(i) for each i in [0, n), in parallel.
template <typename F>
void parallel_for(std::size_t n, F&& fn, std::size_t min_grain = 64) {
  parallel_for_range(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      min_grain);
}

/// parallel_map(n, fn) -> vector with out[i] = fn(i).
template <typename T, typename F>
std::vector<T> parallel_map(std::size_t n, F&& fn, std::size_t min_grain = 1) {
  std::vector<T> out(n);
  parallel_for(
      n, [&](std::size_t i) { out[i] = fn(i); }, min_grain);
  return out;
}

}  // namespace zl
