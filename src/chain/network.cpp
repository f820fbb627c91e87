#include "chain/network.h"

#include <algorithm>

#include "chain/validation.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace zl::chain {

SimNetwork::SimNetwork(const Config& config) : config_(config), rng_(config.seed) {}

int SimNetwork::add_node(Node* node) {
  nodes_.push_back(node);
  return static_cast<int>(nodes_.size()) - 1;
}

void SimNetwork::broadcast(int from, MessageKind kind, const Bytes& payload,
                           std::uint64_t extra_delay_ms) {
  if (kind == MessageKind::kTransaction && tx_delay_policy_) {
    // Senders encode their own payloads, but the decode is still fallible
    // (a test can inject arbitrary bytes); an undecodable tx simply gets no
    // policy delay rather than tearing down the whole simulation.
    try {
      extra_delay_ms += tx_delay_policy_(Transaction::from_bytes(payload));
    } catch (const std::exception&) {
    }
  }
  for (int dst = 0; dst < static_cast<int>(nodes_.size()); ++dst) {
    if (dst == from) continue;
    const std::uint64_t latency =
        config_.base_latency_ms + (config_.jitter_ms ? rng_.uniform(config_.jitter_ms) : 0);
    queue_.push_back(Event{now_ + latency + extra_delay_ms, seq_++, dst, kind, payload});
    std::push_heap(queue_.begin(), queue_.end(), std::greater<>());
  }
}

void SimNetwork::step_to(std::uint64_t target_time) {
  // Submissions made since the last step are admitted at the time they
  // were made, before the clock moves.
  admit_pending();
  while (now_ < target_time) {
    ++now_;
    // Deliver everything due at this instant. Transactions queue up and are
    // admitted as one batch before the next non-transaction event and once
    // nothing more is due; admission may gossip new events due right now
    // (zero latency), so the queue is re-checked after each batch.
    for (;;) {
      while (!queue_.empty() && queue_.front().time <= now_) {
        std::pop_heap(queue_.begin(), queue_.end(), std::greater<>());
        const Event ev = std::move(queue_.back());
        queue_.pop_back();
        if (ev.kind != MessageKind::kTransaction) admit_pending();
        nodes_[static_cast<std::size_t>(ev.dst)]->on_message(ev.kind, ev.payload);
        ++delivered_;
      }
      if (pending_.empty()) break;
      admit_pending();
    }
    for (Node* node : nodes_) {
      node->tick(now_);
      admit_pending();  // whatever a tick submitted, before the next node acts
    }
  }
}

void SimNetwork::admit_pending() {
  if (pending_.empty()) return;
  ZL_TRACE_SPAN("network.admit_batch");
  const std::vector<PendingTx> batch = std::exchange(pending_, {});
  ZL_OBS_COUNTER_ADD("network.admit_batch.txs", batch.size());
  // Parallel phase, pure work only: warm the signature memo once per
  // distinct transaction that its target has not seen and that passes the
  // mempool's cheap gates against that target's chain nonce: exactly those
  // the serial phase would verify. Nothing in a batch moves a chain, so the
  // nonces read here are the ones admission sees. Node state is read here
  // (on this thread) but never written.
  if (parallel_validation_enabled()) {
    std::vector<const Transaction*> unseen;
    std::unordered_set<Hash32, Hash32Hasher> distinct;
    for (const PendingTx& pending : batch) {
      const Transaction& tx = pending.tx;
      const Node& node = *nodes_[static_cast<std::size_t>(pending.dst)];
      if (!node.seen_.contains(tx.id()) &&
          !Mempool::gate(tx, node.chain_.state().nonce_of(tx.from())) &&
          distinct.insert(tx.id()).second) {
        unseen.push_back(&tx);
      }
    }
    zl::parallel_for(
        unseen.size(), [&](std::size_t k) { unseen[k]->verify_signature(); }, /*min_grain=*/1);
  }
  // Serial phase: admission in arrival order, so mempool verdicts, gossip
  // jitter draws and event sequence numbers match one-at-a-time admission.
  for (const PendingTx& pending : batch) {
    nodes_[static_cast<std::size_t>(pending.dst)]->accept_transaction(pending.tx, true);
  }
}

void SimNetwork::run_for(std::uint64_t ms) { step_to(now_ + ms); }

bool SimNetwork::run_until_height(std::uint64_t height, std::uint64_t deadline_ms) {
  const std::uint64_t deadline = now_ + deadline_ms;
  while (now_ < deadline) {
    step_to(now_ + 1);
    for (const Node* node : nodes_) {
      if (node->chain().height() >= height) return true;
    }
  }
  return false;
}

Node::Node(SimNetwork& network, const GenesisConfig& genesis)
    : Node(network, genesis, store::OpenOptions{}) {}

Node::Node(SimNetwork& network, const GenesisConfig& genesis, const store::OpenOptions& storage)
    : network_(network), chain_(genesis, storage) {
  id_ = network.add_node(this);
  // A chain recovered from disk emitted confirmation events during replay;
  // nothing is pooled yet, so they carry no work — just drain them.
  chain_.take_head_events();
}

void Node::submit_transaction(const Transaction& tx) { network_.enqueue_transaction(id_, tx); }

void Node::accept_transaction(const Transaction& tx, bool rebroadcast) {
  const Hash32& h = tx.id();
  if (seen_.contains(h)) return;
  // Admission verifies the signature (memoized), enforces nonce/fee rules
  // and replacement-by-fee; only transactions worth relaying propagate.
  const Mempool::Admission verdict = mempool_.admit(tx, chain_.state().nonce_of(tx.from()));
  // A full pool is a transient condition, not a verdict on the transaction:
  // leave it unseen so a later re-gossip can retry once the pool drains.
  if (verdict == Mempool::Admission::kPoolFull) return;
  seen_.insert(h);
  if (!Mempool::accepted(verdict)) return;
  known_txs_.emplace(h, tx);
  if (rebroadcast) network_.broadcast(id_, MessageKind::kTransaction, tx.to_bytes());
}

void Node::sync_mempool_with_chain() {
  for (const Blockchain::HeadEvent& event : chain_.take_head_events()) {
    const auto it = known_txs_.find(event.tx_hash);
    if (event.confirmed) {
      // O(1) expected: drop the confirmed tx, and with a known body also the
      // sender's now-stale lower nonces and competing same-nonce bids.
      if (it != known_txs_.end()) mempool_.on_confirmed(it->second.from(), it->second.nonce());
      mempool_.drop(event.tx_hash);
      confirmed_bodies_.emplace_back(chain_.height(), event.tx_hash);
    } else if (it != known_txs_.end()) {
      // Reorged off the canonical chain: back to pending so miners can
      // re-include it (bodies confirmed before this process started are not
      // in known_txs_ and stay dropped, as before durable recovery).
      mempool_.admit(it->second, chain_.state().nonce_of(it->second.from()));
    }
  }
  // Prune bodies whose confirmation is buried deeper than the reorg
  // horizon: resurrection can no longer need them, and without this the
  // stash grows for the node's entire lifetime. A tx reorged back to
  // pending in the meantime has no canonical receipt — its body is kept and
  // it is re-queued when it confirms again; one re-confirmed recently is
  // re-queued at its new depth.
  while (!confirmed_bodies_.empty() &&
         confirmed_bodies_.front().first + kBodyPruneDepth <= chain_.height()) {
    const Hash32 hash = confirmed_bodies_.front().second;
    confirmed_bodies_.pop_front();
    const std::optional<std::uint64_t> block =
        chain_.confirmation_block(Bytes(hash.begin(), hash.end()));
    if (!block) continue;
    if (*block + kBodyPruneDepth <= chain_.height()) {
      known_txs_.erase(hash);
    } else {
      confirmed_bodies_.emplace_back(*block, hash);
    }
  }
}

void Node::accept_block(const Block& block, bool rebroadcast) {
  const Hash32 block_hash = to_hash32(block.hash());
  if (seen_.contains(block_hash)) return;
  // Nothing of a peer's block is kept unless it meets this chain's PoW
  // target and its root commits to its body: a difficulty-1 block with junk
  // transactions and an unknown parent would otherwise sit in known_txs_
  // and orphans_ for the node's lifetime.
  if (block.header.difficulty != chain_.difficulty() || !block.well_formed()) return;
  connect_block(block, block_hash, rebroadcast);
}

void Node::connect_block(const Block& block, const Hash32& block_hash, bool rebroadcast) {
  if (!seen_.insert(block_hash).second) return;
  // Stash the bodies unvalidated (a reorg may later evict them and they
  // must return to the mempool); block validation itself happens inside
  // add_block's prevalidate + apply pipeline, not here.
  for (const Transaction& tx : block.transactions) known_txs_.try_emplace(tx.id(), tx);
  // Parent not here yet (gossip reordering): park the block until it is. A
  // parent hash that is not 32 bytes long can never connect.
  if (!chain_.knows(block.header.parent_hash)) {
    if (block.header.parent_hash.size() == std::tuple_size_v<Hash32>) {
      orphans_.emplace_back(to_hash32(block.header.parent_hash), block);
      if (orphans_.size() > kBodyPruneDepth) evict_oldest_orphan();
    }
    return;
  }
  if (!chain_.add_block(block)) return;
  sync_mempool_with_chain();
  if (rebroadcast) network_.broadcast(id_, MessageKind::kBlock, block_to_bytes(block));

  // Connect any orphans waiting on this block (and, transitively, theirs).
  std::vector<Hash32> connected = {block_hash};
  while (!connected.empty()) {
    const Hash32 parent = connected.back();
    connected.pop_back();
    std::vector<Block> children;
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      if (it->first != parent) {
        ++it;
        continue;
      }
      children.push_back(std::move(it->second));
      it = orphans_.erase(it);
    }
    for (const Block& child : children) {
      if (chain_.add_block(child)) {
        sync_mempool_with_chain();
        if (rebroadcast) network_.broadcast(id_, MessageKind::kBlock, block_to_bytes(child));
        connected.push_back(to_hash32(child.hash()));
      }
    }
  }
}

void Node::evict_oldest_orphan() {
  const Block evicted = std::move(orphans_.front().second);
  orphans_.pop_front();
  // Its block hash stays in seen_, so a re-send is dropped by its header.
  // Bodies the canonical chain confirmed are the prune queue's to drop, and
  // pooled ones are still pending work.
  for (const Transaction& tx : evicted.transactions) {
    if (!mempool_.contains(tx.id()) && !chain_.confirmation_block(tx.hash())) {
      known_txs_.erase(tx.id());
    }
  }
}

void Node::on_message(MessageKind kind, const Bytes& payload) {
  try {
    switch (kind) {
      case MessageKind::kTransaction:
        network_.enqueue_transaction(id_, Transaction::from_bytes(payload));
        break;
      case MessageKind::kBlock: {
        // A block seen before (most deliveries, once peers relay it) is
        // dropped by its header hash, before its body is decoded and hashed.
        Block block;
        Bytes body;
        block.header = block_header_from_bytes(payload, body);
        if (seen_.contains(to_hash32(block.header.hash()))) break;
        block.transactions = block_body_from_bytes(body);
        accept_block(block, true);
        break;
      }
    }
  } catch (const std::exception&) {
    // Malformed gossip is dropped.
  }
}

MinerNode::MinerNode(SimNetwork& network, const GenesisConfig& genesis, const Address& coinbase,
                     unsigned hashes_per_ms)
    : Node(network, genesis), coinbase_(coinbase), hashes_per_ms_(hashes_per_ms) {}

void MinerNode::rebuild_template(std::uint64_t now) {
  template_ = Block{};
  template_.header.parent_hash = chain_.head_hash();
  template_.header.number = chain_.height() + 1;
  template_.header.timestamp = now;
  template_.header.difficulty = chain_.difficulty();
  template_.header.miner = coinbase_;

  // Highest fee first across senders, nonce-ordered per sender, funds-bound
  // against the head state — all inside the pool's heap walk.
  template_.transactions = mempool_.build_block(chain_.state(), kMaxTemplateTxs);
  template_.header.tx_root = Block::compute_tx_root(template_.transactions);
  template_parent_ = template_.header.parent_hash;
  template_pool_version_ = mempool_.version();
  next_nonce_ = 0;
}

void MinerNode::tick(std::uint64_t now) {
  if (!enabled_) return;
  if (template_parent_ != chain_.head_hash() || template_pool_version_ != mempool_.version() ||
      template_parent_.empty()) {
    rebuild_template(now);
  }
  for (unsigned i = 0; i < hashes_per_ms_; ++i) {
    template_.header.nonce = next_nonce_++;
    if (proof_of_work_valid(template_.header)) {
      const Block mined = template_;
      ++blocks_mined_;
      connect_block(mined, to_hash32(mined.hash()), true);
      rebuild_template(now);
      return;
    }
  }
}

}  // namespace zl::chain
