#pragma once
// Block store with longest-(heaviest-)chain fork choice and state derivation
// by replay: the world state is always the result of replaying the canonical
// branch, so every node that sees the same blocks computes the same state —
// the "correct computation" property of the ideal public ledger model (§III).
//
// Two additions over the naive replay-from-genesis design:
//
//  * Checkpoints. Every `snapshot_interval` canonical blocks the chain
//    serializes (state, receipts) and caches it keyed by block hash. Fork
//    switches restore from the nearest checkpoint on the new branch's
//    ancestry and replay only the gap, instead of replaying from genesis.
//
//  * Durability. With OpenOptions.durable(), every accepted block is
//    appended to a crash-consistent on-disk journal (fsync'd before
//    add_block acknowledges it), checkpoints are additionally published as
//    CRC-guarded snapshot files, and the constructor recovers the whole
//    block tree + state from disk, replaying only what the newest intact
//    snapshot doesn't cover.
//
// Threading (DESIGN.md §13): the chain itself is *externally synchronized* —
// add_block, fork choice, and every state accessor mutate or read the block
// tree and replayed state, and a host running them from multiple threads
// wraps the object in its own lock (by convention ranked kChain, below every
// internal lock; the concurrency tests do exactly this). The one exception
// is the HeadEvent hand-off: producers append under fork choice while a
// consumer thread may drain concurrently, so `head_events_` has its own
// OrderedMutex (kChainEvents) and `take_head_events()` is safe to call from
// a thread that does NOT hold the chain lock. Deliberately no god-lock:
// baking a mutex into Blockchain would serialize the read-mostly accessors
// the simulation layer hammers, and would still not make compound
// operations (add_block + state read) atomic for callers.

#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "chain/block.h"
#include "chain/state.h"
#include "common/annotations.h"
#include "common/mutex.h"
#include "store/store.h"

namespace zl::chain {

struct GenesisConfig {
  std::vector<std::pair<Address, std::uint64_t>> allocations;
  std::uint64_t difficulty = 256;

  Block build() const;
};

class Blockchain {
 public:
  /// Default storage = in-memory (no vfs): the historical behaviour.
  explicit Blockchain(const GenesisConfig& genesis, const store::OpenOptions& storage = {});

  /// Add a block. Returns true iff the block is new, well-formed and its
  /// parent is known. In durable mode the block is journaled (and fsync'd,
  /// unless sync_every_block is off) before fork choice runs — a true
  /// return is a durability acknowledgement. Fork choice runs
  /// automatically; an invalid body (non-applying transaction) blacklists
  /// the block.
  bool add_block(const Block& block);

  bool knows(const Bytes& block_hash) const { return find_by_hash(blocks_, block_hash) != nullptr; }

  const Block& head() const;
  std::uint64_t height() const { return head().header.number; }
  const Bytes& head_hash() const { return head_hash_; }

  /// State at the canonical head.
  const ChainState& state() const { return state_; }

  /// Receipt of a transaction on the canonical chain, if any.
  std::optional<Receipt> find_receipt(const Bytes& tx_hash) const;

  /// Block of a transaction on the canonical chain (confirmation depth =
  /// height() - block number), if any.
  std::optional<std::uint64_t> confirmation_block(const Bytes& tx_hash) const;

  /// Hashes of the canonical chain, genesis first.
  std::vector<Bytes> canonical_chain() const;

  /// Stored block by hash (nullptr if unknown) — what a full node serves to
  /// light clients requesting bodies/proofs.
  const Block* block_by_hash(const Bytes& block_hash) const;

  const GenesisConfig& genesis_config() const { return genesis_; }
  std::uint64_t difficulty() const { return genesis_.difficulty; }

  bool durable() const { return journal_ != nullptr; }
  const store::OpenOptions& storage_options() const { return storage_; }
  /// Durable-mode internals, exposed for tests and tooling (nullptr when
  /// in-memory).
  const store::BlockJournal* journal() const { return journal_.get(); }
  const store::SnapshotStore* snapshots() const { return snapshots_.get(); }

  /// Number of cached in-memory checkpoints (reorg restore points).
  std::size_t checkpoint_count() const { return checkpoints_.size(); }

  /// One canonical-set membership change produced by fork choice: a
  /// transaction either became confirmed on the canonical chain or fell off
  /// it (reorg onto a branch that does not include it). Events are appended
  /// in fork-choice order; within one reorg the diff is emitted sorted by tx
  /// hash, so the stream is deterministic across nodes.
  struct HeadEvent {
    Hash32 tx_hash;
    bool confirmed = false;  // false = dropped by a reorg, back to pending
  };

  /// Drain the accumulated head events. The node layer consumes these to
  /// keep its mempool in sync incrementally — confirmation evicts, reorg
  /// resurrects — with no full-chain rescan. Unlike the rest of the chain
  /// API this is internally synchronized: a consumer may drain while a
  /// producer thread runs fork choice under the chain lock.
  std::vector<HeadEvent> take_head_events() ZL_EXCLUDES(events_mu_) {
    MutexLock lock(events_mu_);
    return std::exchange(head_events_, {});
  }

 private:
  struct Entry {
    Block block;
    std::uint64_t total_difficulty = 0;
    bool invalid = false;
  };

  struct Checkpoint {
    std::uint64_t height = 0;
    Bytes payload;  // encode_checkpoint() output
  };

  using ReceiptMap = std::map<Hash32, std::pair<Receipt, std::uint64_t>>;

  /// Structural acceptance only: no journaling, no fork choice.
  bool insert_block(const Block& block, Bytes* hash_out);

  /// Re-derive state_ by replaying the branch ending at `tip_hash`,
  /// starting from the nearest cached checkpoint on its ancestry (genesis
  /// allocations if none). Returns false (and blacklists the offending
  /// block) on invalid bodies.
  bool adopt_branch(const Hash32& tip_hash);
  void choose_best_tip();

  /// Cache (and in durable mode persist) a checkpoint for the canonical
  /// head if its height is a multiple of snapshot_interval.
  void maybe_checkpoint();
  void record_checkpoint(const Hash32& block_hash, std::uint64_t number, const Bytes& payload,
                         bool persist);

  /// Recover blocks_/state_/head from disk (durable mode constructor path).
  void open_durable();

  /// Publish a batch of fork-choice events to the consumer side. Producers
  /// accumulate locally and append once, so events_mu_ is held O(1) times
  /// per fork-choice pass, not per transaction.
  void append_head_events(std::vector<HeadEvent>&& events) ZL_EXCLUDES(events_mu_);

  GenesisConfig genesis_;
  store::OpenOptions storage_;
  std::map<Hash32, Entry> blocks_;
  Bytes head_hash_;
  ChainState state_;
  ReceiptMap receipts_;  // tx hash -> (receipt, block no)
  std::map<Hash32, Checkpoint> checkpoints_;
  /// The producer/consumer seam (rank kChainEvents): fork choice appends,
  /// take_head_events drains, possibly from different threads.
  mutable OrderedMutex events_mu_{LockRank::kChainEvents, "chain.head_events"};
  std::vector<HeadEvent> head_events_ ZL_GUARDED_BY(events_mu_);
  std::unique_ptr<store::BlockJournal> journal_;
  std::unique_ptr<store::SnapshotStore> snapshots_;
};

/// Consensus encoding of full blocks (for gossip).
Bytes block_to_bytes(const Block& block);
Block block_from_bytes(const Bytes& bytes);

}  // namespace zl::chain
