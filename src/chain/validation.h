#pragma once
// The parallel block-validation pipeline.
//
// apply_transaction is inherently sequential (each transaction sees the
// state its predecessors left behind), but its expensive checks are not:
// ECDSA signature verification and snark_verify precompile proofs are pure
// functions of transaction bytes (plus, for proofs, the pre-block contract
// state). prevalidate_block() fans those out on the shared thread pool
// *before* sequential apply and records the results in the process-wide
// memo caches, so apply consumes cached verdicts instead of recomputing.
//
// Determinism: prevalidation only warms memo caches of pure functions — it
// never mutates chain state — so the applied state is bit-identical to a
// serial run with cold caches. A precheck that guesses a wrong statement
// (e.g. a reward proof whose statement depends on a submit earlier in the
// same block) is merely a cache miss: apply falls back to inline
// verification. tests/test_mempool.cpp pins parallel-vs-serial equality of
// receipts and state snapshot bytes over a randomized 50-block workload.

#include <optional>
#include <unordered_map>

#include "chain/state.h"
#include "common/annotations.h"
#include "common/mutex.h"

namespace zl::chain {

/// A memo of one pure verdict (a signature check or a snark_verify), keyed
/// by a hash of everything the verdict depends on. Pool threads warm it
/// during prevalidation while serial apply reads it, so it sits behind a
/// ranked mutex. Re-verification clusters around recent items, so a full
/// reset at kMaxEntries is simpler than LRU and amortizes to a no-op.
class VerdictMemo {
 public:
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 20;

  VerdictMemo(LockRank rank, const char* name) : mutex_(rank, name) {}

  std::optional<bool> find(const Hash32& key) const {
    const MutexLock lock(mutex_);
    const auto it = verdicts_.find(key);
    if (it == verdicts_.end()) return std::nullopt;
    return it->second;
  }
  /// Keeps an existing verdict for `key` (both are the same pure result).
  void insert(const Hash32& key, bool verdict) {
    const MutexLock lock(mutex_);
    if (verdicts_.size() >= kMaxEntries) verdicts_.clear();
    verdicts_.emplace(key, verdict);
  }
  void clear() {
    const MutexLock lock(mutex_);
    verdicts_.clear();
  }
  std::size_t size() const {
    const MutexLock lock(mutex_);
    return verdicts_.size();
  }

 private:
  mutable OrderedMutex mutex_;
  std::unordered_map<Hash32, bool, Hash32Hasher> verdicts_ ZL_GUARDED_BY(mutex_);
};

/// The process-wide memos: transaction signature verdicts keyed by tx id
/// (rank kSigVerdictCache, so pool workers may warm it inside a region), and
/// snark_verify results keyed by snark_verify_cache_key (kSnarkMemoCache).
VerdictMemo& signature_memo();
VerdictMemo& snark_memo();

/// Toggle the parallel prevalidation phase (default on), and with it the
/// parallel phase of SimNetwork's batched admission. Off = the serial
/// oracle: admission and apply recompute everything inline. Benches flip
/// this (plus clear_validation_caches) to measure the speedup.
///
/// Safe to call while another thread is validating: the flag is an atomic
/// sampled exactly once at the top of each prevalidate_block call, so an
/// in-flight validation finishes under the mode it started with — the
/// toggle only selects *how* verdicts are computed, never what they are.
/// (tests/test_concurrency.cpp races this under TSan.)
void set_parallel_validation(bool enabled);
bool parallel_validation_enabled();

/// Drop every validation memo (signature verdicts + snark_verify results),
/// so the next block validates from a cold start.
///
/// Safe to call while another thread is validating: each memo clears under
/// its own ranked lock (kSigVerdictCache / kSnarkMemoCache), and every
/// cached value is a memo of a pure function — a concurrent clear turns
/// lookups into misses that recompute the same verdict, never into wrong
/// answers. The two memos clear non-atomically with respect to each other,
/// which is fine for the same reason. (TSan-raced in test_concurrency.cpp.)
void clear_validation_caches();

/// Stateless prevalidation of a block body against its pre-state: warms the
/// signature memo for every transaction in parallel, then verifies every
/// transaction's Contract::snark_prechecks in one parallel batch and warms
/// the snark memo. A call asks the contract at tx.to() in `pre_state`; a
/// creation asks a blank factory instance of the type it names. No-op when
/// parallel validation is disabled.
void prevalidate_block(const ChainState& pre_state, const std::vector<Transaction>& txs);

}  // namespace zl::chain
