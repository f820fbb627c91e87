#pragma once
// Deterministic event-driven P2P simulator — the stand-in for the paper's
// physical 4-PC Ethereum test net (DESIGN.md substitution T5).
//
// Nodes exchange transactions and blocks through a latency-modelled gossip
// fabric. A pluggable transaction-delay policy models the network adversary
// of §III who "can reorder transactions that are broadcasted to the network
// but not yet written into a block" (used by the free-riding attack tests).
//
// Transaction ingress is batched (DESIGN.md §17): a submission or a gossip
// delivery queues (node, tx), and the network admits the queue at fixed flush
// points — pre-verifying the signatures of unseen transactions on the thread
// pool, then admitting serially in arrival order, which keeps the event
// schedule exactly that of one-at-a-time admission.
//
// Threading (DESIGN.md §13): the simulator is deliberately single-threaded —
// SimNetwork, Node, and MinerNode hold no locks of their own, which is what
// keeps a run bit-for-bit deterministic (one event order, one rng stream).
// The components a node *aggregates* are the concurrent ones: `chain_` hands
// off HeadEvents under its internal kChainEvents lock, `mempool_` is
// internally synchronized (kMempool), and validation fans out across the
// shared thread pool. A real multi-threaded host would drive Node methods
// under its own external lock (ranked kChain, below all internal locks) —
// the pattern tests/test_concurrency.cpp exercises directly against
// Blockchain + Mempool.

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "chain/blockchain.h"
#include "chain/mempool.h"

namespace zl::chain {

class Node;

enum class MessageKind : std::uint8_t { kTransaction = 0, kBlock = 1 };

class SimNetwork {
 public:
  struct Config {
    std::uint64_t base_latency_ms = 20;
    std::uint64_t jitter_ms = 10;
    std::uint64_t seed = 1;
  };

  explicit SimNetwork(const Config& config);

  /// Register a node; the network does not own it.
  int add_node(Node* node);

  /// Gossip `payload` from `from` to every other node with per-link latency.
  /// `extra_delay_ms` is added on top (used by the reordering adversary).
  void broadcast(int from, MessageKind kind, const Bytes& payload,
                 std::uint64_t extra_delay_ms = 0);

  /// Adversary hook: extra delay applied to each transaction broadcast.
  void set_tx_delay_policy(std::function<std::uint64_t(const Transaction&)> policy) {
    tx_delay_policy_ = std::move(policy);
  }

  /// Advance simulated time, delivering messages and ticking miners.
  void run_for(std::uint64_t ms);

  /// Run until some node's chain reaches `height` (or the deadline passes).
  /// Returns true if the height was reached.
  bool run_until_height(std::uint64_t height, std::uint64_t deadline_ms);

  std::uint64_t now() const { return now_; }
  std::size_t messages_delivered() const { return delivered_; }

 private:
  friend class Node;  // submissions and gossip enqueue transactions

  struct Event {
    std::uint64_t time;
    std::uint64_t seq;  // FIFO tie-break for determinism
    int dst;
    MessageKind kind;
    Bytes payload;
    bool operator>(const Event& other) const {
      return std::tie(time, seq) > std::tie(other.time, other.seq);
    }
  };

  struct PendingTx {
    int dst;
    Transaction tx;
  };

  void step_to(std::uint64_t target_time);

  /// Queue `tx` for admission at node `dst` (Node::submit_transaction and
  /// transaction gossip delivery both land here).
  void enqueue_transaction(int dst, Transaction tx) {
    pending_.push_back(PendingTx{dst, std::move(tx)});
  }
  /// Admit the queued transactions: warm the signature memo for the ones
  /// their target has not seen, in parallel (when parallel validation is
  /// on), then hand them to their nodes in arrival order.
  void admit_pending();

  Config config_;
  Rng rng_;
  std::vector<Node*> nodes_;
  std::vector<PendingTx> pending_;  // arrival order
  std::vector<Event> queue_;  // heap (std::push_heap with operator>)
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t delivered_ = 0;
  std::function<std::uint64_t(const Transaction&)> tx_delay_policy_;
};

/// A full node: validates and gossips transactions and blocks, maintains
/// its own replica of the chain.
class Node {
 public:
  Node(SimNetwork& network, const GenesisConfig& genesis);
  /// Durable node: chain state lives under `storage.path` on `storage.vfs`
  /// and is recovered on construction (see store/store.h).
  Node(SimNetwork& network, const GenesisConfig& genesis, const store::OpenOptions& storage);
  virtual ~Node() = default;

  /// Inject a transaction at this node (a client submitting via its peer).
  /// Admission is batched: the network admits it at its next flush point,
  /// at the latest when it next steps, and before its clock moves.
  void submit_transaction(const Transaction& tx);

  /// Gossip delivery. A block is processed at once; a transaction is
  /// decoded (garbage is dropped) and queued for the network's next batch.
  virtual void on_message(MessageKind kind, const Bytes& payload);

  /// Called by the network at every simulated millisecond.
  virtual void tick(std::uint64_t /*now*/) {}

  Blockchain& chain() { return chain_; }
  const Blockchain& chain() const { return chain_; }
  int id() const { return id_; }

  /// Confirmed transaction bodies are pruned from the node's stash once
  /// they are buried this many blocks below the head — past the depth at
  /// which a reorg resurrection is still credible. Keeps known_txs_ bounded
  /// by the gossip window instead of the node's lifetime.
  static constexpr std::uint64_t kBodyPruneDepth = 64;

 protected:
  friend class SimNetwork;  // batched admission calls accept_transaction

  void accept_transaction(const Transaction& tx, bool rebroadcast);
  /// A peer's block: dropped unless it is well formed at this chain's
  /// difficulty, then connected.
  void accept_block(const Block& block, bool rebroadcast);
  /// Stash, park or add a block known to be well formed, with
  /// `block_hash` == block.hash().
  void connect_block(const Block& block, const Hash32& block_hash, bool rebroadcast);
  /// Drop the longest-parked orphan, and those of its stashed bodies that
  /// are neither pooled nor confirmed on the canonical chain.
  void evict_oldest_orphan();

  /// Drain the chain's head events and apply them to the mempool
  /// incrementally: confirmation evicts the sender's chain up to the
  /// confirmed nonce (O(1) expected per event); a reorg drop re-admits the
  /// stashed body so miners can re-include it. Replaces the old
  /// refresh_mempool clear-and-rescan (which was O(mempool x height) per
  /// head change).
  void sync_mempool_with_chain();

  SimNetwork& network_;
  Blockchain chain_;
  int id_;
  Mempool mempool_;
  std::unordered_set<Hash32, Hash32Hasher> seen_;  // tx and block hashes
  // Every transaction body this node has observed (gossip or block),
  // unvalidated: resurrection after a reorg re-admits from here, and
  // admission re-checks the signature (a memo hit for anything already
  // verified). Lookup-only — never iterated — so hash order is harmless.
  // Bounded: bodies confirmed deeper than kBodyPruneDepth are pruned.
  std::unordered_map<Hash32, Transaction, Hash32Hasher> known_txs_;
  // Prune schedule for known_txs_: (height when the confirmation was seen,
  // tx hash), drained by sync_mempool_with_chain once buried
  // kBodyPruneDepth below the head.
  std::deque<std::pair<std::uint64_t, Hash32>> confirmed_bodies_;
  // Blocks that arrived before their parent, with that parent's hash, in
  // parked order; reconnected as soon as the parent is adopted. Holds at
  // most kBodyPruneDepth blocks: a peer can mine unknown-parent blocks at
  // the simulator's difficulties for almost nothing.
  std::deque<std::pair<Hash32, Block>> orphans_;
};

/// A mining node: assembles candidate blocks from its mempool and grinds
/// PoW nonces at `hashes_per_ms`.
class MinerNode : public Node {
 public:
  MinerNode(SimNetwork& network, const GenesisConfig& genesis, const Address& coinbase,
            unsigned hashes_per_ms = 16);

  void tick(std::uint64_t now) override;

  std::size_t blocks_mined() const { return blocks_mined_; }

  /// Pause/resume mining (lets tests and experiments quiesce the network).
  void set_enabled(bool enabled) { enabled_ = enabled; }

 private:
  /// Transactions per block template (the simulated protocol's block cap).
  static constexpr std::size_t kMaxTemplateTxs = 4096;

  void rebuild_template(std::uint64_t now);

  Address coinbase_;
  unsigned hashes_per_ms_;
  bool enabled_ = true;
  Block template_;
  Bytes template_parent_;
  std::uint64_t template_pool_version_ = 0;
  std::uint64_t next_nonce_ = 0;
  std::size_t blocks_mined_ = 0;
};

}  // namespace zl::chain
