#include "chain/network.h"

#include <algorithm>

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
  while (now_ < target_time) {
    ++now_;
    // Deliver everything due at this instant.
    while (!queue_.empty() && queue_.front().time <= now_) {
      std::pop_heap(queue_.begin(), queue_.end(), std::greater<>());
      const Event ev = std::move(queue_.back());
      queue_.pop_back();
      nodes_[static_cast<std::size_t>(ev.dst)]->on_message(ev.kind, ev.payload);
      ++delivered_;
    }
    for (Node* node : nodes_) node->tick(now_);
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

void Node::submit_transaction(const Transaction& tx) { accept_transaction(tx, true); }

void Node::accept_transaction(const Transaction& tx, bool rebroadcast) {
  const Hash32 h = to_hash32(tx.hash());
  if (seen_.contains(h)) return;
  // Admission verifies the signature (memoized), enforces nonce/fee rules
  // and replacement-by-fee; only transactions worth relaying propagate.
  const Mempool::Admission verdict = mempool_.admit(tx, h, chain_.state().nonce_of(tx.from));
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
      if (it != known_txs_.end()) mempool_.on_confirmed(it->second.from, it->second.nonce);
      mempool_.drop(event.tx_hash);
      confirmed_bodies_.emplace_back(chain_.height(), event.tx_hash);
    } else if (it != known_txs_.end()) {
      // Reorged off the canonical chain: back to pending so miners can
      // re-include it (bodies confirmed before this process started are not
      // in known_txs_ and stay dropped, as before durable recovery).
      mempool_.admit(it->second, it->first, chain_.state().nonce_of(it->second.from));
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
  if (!seen_.insert(to_hash32(block.hash())).second) return;
  // Stash the bodies unvalidated (a reorg may later evict them and they
  // must return to the mempool); block validation itself happens inside
  // add_block's prevalidate + apply pipeline, not here.
  for (const Transaction& tx : block.transactions) {
    known_txs_.emplace(to_hash32(tx.hash()), tx);
  }
  // Parent not here yet (gossip reordering): park the block until it is. A
  // parent hash that is not 32 bytes long can never connect.
  if (!chain_.knows(block.header.parent_hash)) {
    if (block.header.parent_hash.size() == std::tuple_size_v<Hash32>) {
      orphans_[to_hash32(block.header.parent_hash)].push_back(block);
    }
    return;
  }
  if (!chain_.add_block(block)) return;
  sync_mempool_with_chain();
  if (rebroadcast) network_.broadcast(id_, MessageKind::kBlock, block_to_bytes(block));

  // Connect any orphans waiting on this block (and, transitively, theirs).
  std::vector<Hash32> connected = {to_hash32(block.hash())};
  while (!connected.empty()) {
    const Hash32 parent = connected.back();
    connected.pop_back();
    const auto it = orphans_.find(parent);
    if (it == orphans_.end()) continue;
    const std::vector<Block> children = std::move(it->second);
    orphans_.erase(it);
    for (const Block& child : children) {
      if (chain_.add_block(child)) {
        sync_mempool_with_chain();
        if (rebroadcast) network_.broadcast(id_, MessageKind::kBlock, block_to_bytes(child));
        connected.push_back(to_hash32(child.hash()));
      }
    }
  }
}

void Node::on_message(MessageKind kind, const Bytes& payload) {
  try {
    switch (kind) {
      case MessageKind::kTransaction:
        accept_transaction(Transaction::from_bytes(payload), true);
        break;
      case MessageKind::kBlock:
        accept_block(block_from_bytes(payload), true);
        break;
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
      accept_block(mined, true);
      rebuild_template(now);
      return;
    }
  }
}

}  // namespace zl::chain
