#pragma once
// Fee-ordered transaction pool — the marketplace-scale replacement for the
// first-seen deque the node used to carry.
//
// Shape: per-sender nonce chains (a sorted map nonce -> entry per sender)
// plus two indexes — a hash index for O(1) expected lookup/eviction when a
// transaction confirms, and a global (fee, seq) order that picks the victim
// when the pool overflows: the cheapest bid names the sender to shed from,
// and the entry evicted is the *tail* of that sender's chain (highest
// nonce), so overflow eviction never leaves a sender's remaining nonces
// stranded behind an unfillable gap. Admission is O(log n);
// confirmation eviction is an O(1) expected hash lookup plus an O(log c)
// unlink from the sender's chain (c = that sender's pending count).
//
// Fees: gas is priced at a fixed 1 wei/gas in this simulation, so a
// transaction's fee bid is its gas limit — the amount the sender escrows
// and the upper bound a miner can collect. Replacement-by-fee: a new
// transaction for an occupied (sender, nonce) slot must bid strictly more
// than the incumbent plus kReplacementBump, or it is rejected as
// underpriced (the bump makes re-gossip griefing pay).
//
// Nonce gaps are held: a transaction whose nonce is ahead of the sender's
// chain is admitted and simply not selectable until the gap fills.
// Block building walks every sender's next-executable transaction through a
// max-heap on (fee desc, seq asc), so the result is deterministic — it never
// depends on hash-map iteration order — and respects per-sender nonce order
// and a conservative funds bound against the provided state.
//
// Threading (DESIGN.md §13): the pool is internally synchronized. A single
// OrderedMutex `mu_` (kMempool) guards all three indexes; every public
// entry point takes it, so gossip ingest, confirmation eviction, and miner
// template building may run from different threads concurrently. `version_`
// is an atomic outside the lock: miners poll it for template staleness on
// a hot path and must not contend with admissions to do so. The stateless
// parts of admission (intrinsic gas, escrow overflow, ECDSA verification —
// the expensive one) run *before* the lock is taken, so signature checks
// from concurrent gossip threads don't serialize; see admit() for the
// argument that this preserves admission results.

#include <atomic>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/annotations.h"
#include "common/mutex.h"

#include "chain/state.h"

namespace zl::chain {

class Mempool {
 public:
  enum class Admission : std::uint8_t {
    kAdmitted = 0,     // new (sender, nonce) slot filled
    kReplaced,         // replacement-by-fee of an occupied slot
    kDuplicate,        // exact transaction already pooled
    kUnderpriced,      // occupied slot and the bid does not beat it
    kNonceTooLow,      // sender's chain nonce is already past this
    kInvalid,          // bad signature or gas below intrinsic
    kPoolFull,         // pool at capacity and this bid is the cheapest
  };

  /// Minimum fee increment a replacement must add over the incumbent.
  static constexpr std::uint64_t kReplacementBump = 1000;

  explicit Mempool(std::size_t max_txs = 65536) : max_txs_(max_txs) {}

  // Holding an OrderedMutex makes the pool immovable; hosts that want a
  // fresh pool with a different cap call reset() instead of move-assigning.
  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;

  /// Drop every pooled transaction and adopt a new capacity.
  void reset(std::size_t max_txs) ZL_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    by_sender_.clear();
    by_hash_.clear();
    by_fee_.clear();
    max_txs_ = max_txs;
    version_.fetch_add(1, std::memory_order_release);
  }

  /// Fee bid (gas priced at 1 wei/gas: the escrowed gas limit).
  static std::uint64_t fee_of(const Transaction& tx) { return tx.gas_limit(); }

  /// Admit `tx` given the sender's current chain nonce. Counts as accepted
  /// (worth re-gossiping) when the result is kAdmitted or kReplaced.
  Admission admit(const Transaction& tx, std::uint64_t chain_nonce) ZL_EXCLUDES(mu_);
  /// The cheap stateless gates admit() runs before the signature check:
  /// the rejection code a transaction gets from them at `chain_nonce`, or
  /// nullopt if it passes. Batched admission applies the same gates before it
  /// pre-verifies signatures, so it verifies exactly what admit() would.
  static std::optional<Admission> gate(const Transaction& tx, std::uint64_t chain_nonce);
  static bool accepted(Admission a) {
    return a == Admission::kAdmitted || a == Admission::kReplaced;
  }

  /// A transaction from `sender` confirmed at `nonce` on the canonical
  /// chain: evict every pooled transaction from that sender at or below
  /// `nonce` (including a competing bid for the confirmed slot).
  void on_confirmed(const Address& sender, std::uint64_t nonce) ZL_EXCLUDES(mu_);

  /// Drop one transaction by hash, if pooled. O(1) expected.
  void drop(const Hash32& tx_hash) ZL_EXCLUDES(mu_);

  /// Deterministic block template: up to `max_txs` transactions, highest fee
  /// first across senders, in nonce order per sender, skipping anything the
  /// sender cannot fund on top of what the template already commits.
  std::vector<Transaction> build_block(const ChainState& state, std::size_t max_txs) const
      ZL_EXCLUDES(mu_);

  bool contains(const Hash32& tx_hash) const ZL_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return by_hash_.contains(tx_hash);
  }
  std::size_t size() const ZL_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return by_hash_.size();
  }
  bool empty() const ZL_EXCLUDES(mu_) { return size() == 0; }
  /// Bumped on every mutation; miners use it to detect stale templates.
  /// Lock-free: the staleness poll must not contend with admissions.
  std::uint64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  struct Entry {
    Transaction tx;
    std::uint64_t fee = 0;
    std::uint64_t seq = 0;  // admission order, tie-break
  };
  using SenderChain = std::map<std::uint64_t, Entry>;  // nonce -> entry

  /// Remove one entry from all three indexes. Does not erase an emptied
  /// sender chain (callers may still hold a reference to it).
  SenderChain::iterator unlink(SenderChain& chain, SenderChain::iterator it) ZL_REQUIRES(mu_);
  /// Shed one entry: the tail (highest nonce) of the chain owned by the
  /// sender of the globally cheapest bid — gap-free by construction.
  void evict_cheapest() ZL_REQUIRES(mu_);

  /// Guards every index below (rank kMempool; see DESIGN.md §13).
  mutable OrderedMutex mu_{LockRank::kMempool, "mempool.mu"};

  std::size_t max_txs_ ZL_GUARDED_BY(mu_);
  std::uint64_t next_seq_ ZL_GUARDED_BY(mu_) = 0;
  std::atomic<std::uint64_t> version_{0};
  std::unordered_map<Address, SenderChain> by_sender_ ZL_GUARDED_BY(mu_);
  // tx hash -> (sender, nonce): O(1) expected confirmation eviction.
  std::unordered_map<Hash32, std::pair<Address, std::uint64_t>, Hash32Hasher> by_hash_
      ZL_GUARDED_BY(mu_);
  // (fee, seq) -> (sender, nonce), ascending: begin() picks the overflow
  // victim (the sender shed from; see evict_cheapest).
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::pair<Address, std::uint64_t>> by_fee_
      ZL_GUARDED_BY(mu_);
};

}  // namespace zl::chain
