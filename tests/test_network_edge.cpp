// Edge-case regression tests for the gossip layer — these encode two real
// bugs found during development: (1) a block arriving before its parent was
// dropped forever, permanently splitting the node off the network; (2)
// transactions in orphaned blocks were never returned to the mempool after
// a reorg, wedging every later nonce from the same sender.
#include <gtest/gtest.h>

#include <set>

#include "chain/network.h"
#include "obs/obs.h"

namespace zl::chain {
namespace {

GenesisConfig tiny_genesis(const Address& funded) {
  GenesisConfig g;
  g.allocations = {{funded, 10'000'000}};
  g.difficulty = 4;
  return g;
}

Block mine_block(const GenesisConfig& genesis, const Bytes& parent, std::uint64_t number,
                 std::uint64_t stamp, std::vector<Transaction> txs) {
  Block b;
  b.header.parent_hash = parent;
  b.header.number = number;
  b.header.difficulty = genesis.difficulty;
  b.header.timestamp = stamp;
  b.transactions = std::move(txs);
  b.header.tx_root = Block::compute_tx_root(b.transactions);
  while (!proof_of_work_valid(b.header)) ++b.header.nonce;
  return b;
}

// Expose the protected ingestion hooks for direct delivery-order control.
class ProbeNode : public Node {
 public:
  using Node::Node;
  void deliver_block(const Block& b) { accept_block(b, false); }
  void deliver_tx(const Transaction& tx) { accept_transaction(tx, false); }
  std::size_t mempool_size() const { return mempool_.size(); }
  std::size_t stashed_bodies() const { return known_txs_.size(); }
  std::size_t orphan_parents() const {
    std::set<Hash32> parents;
    for (const auto& [parent, block] : orphans_) parents.insert(parent);
    return parents.size();
  }
  std::size_t parked_blocks() const { return orphans_.size(); }
};

TEST(NetworkEdge, ChildBeforeParentIsParkedAndReconnected) {
  Rng rng(1101);
  Wallet alice(rng);
  const GenesisConfig genesis = tiny_genesis(alice.address());
  SimNetwork net({.base_latency_ms = 1, .jitter_ms = 0, .seed = 1});
  ProbeNode node(net, genesis);

  const Block b1 = mine_block(genesis, node.chain().head_hash(), 1, 1, {});
  const Block b2 = mine_block(genesis, b1.hash(), 2, 2, {});
  const Block b3 = mine_block(genesis, b2.hash(), 3, 3, {});

  // Deliver out of order: grandchild, child, then parent.
  node.deliver_block(b3);
  node.deliver_block(b2);
  EXPECT_EQ(node.chain().height(), 0u) << "nothing connects without the parent";
  node.deliver_block(b1);
  EXPECT_EQ(node.chain().height(), 3u) << "orphans must reconnect transitively";
  EXPECT_EQ(node.chain().head_hash(), b3.hash());
}

TEST(NetworkEdge, ReorgResurrectsOrphanedTransactions) {
  Rng rng(1102);
  Wallet alice(rng), bob(rng);
  const GenesisConfig genesis = tiny_genesis(alice.address());
  SimNetwork net({.base_latency_ms = 1, .jitter_ms = 0, .seed = 2});
  ProbeNode node(net, genesis);

  const Transaction tx = alice.make_transaction(bob.address(), 777, 21000, "", {});
  node.deliver_tx(tx);
  EXPECT_EQ(node.mempool_size(), 1u);

  // Branch A includes the tx.
  const Block a1 = mine_block(genesis, node.chain().head_hash(), 1, 1, {tx});
  node.deliver_block(a1);
  EXPECT_TRUE(node.chain().find_receipt(tx.hash()).has_value());
  EXPECT_EQ(node.mempool_size(), 0u);

  // A heavier empty branch B displaces A: the tx must return to the
  // mempool so miners can re-include it.
  const Block b1 = mine_block(genesis, a1.header.parent_hash, 1, 50, {});
  const Block b2 = mine_block(genesis, b1.hash(), 2, 51, {});
  node.deliver_block(b1);
  node.deliver_block(b2);
  EXPECT_EQ(node.chain().head_hash(), b2.hash());
  EXPECT_FALSE(node.chain().find_receipt(tx.hash()).has_value());
  EXPECT_EQ(node.mempool_size(), 1u) << "orphaned tx must be resurrected";
}

TEST(NetworkEdge, DuplicateAndMalformedGossipIgnored) {
  Rng rng(1103);
  Wallet alice(rng);
  const GenesisConfig genesis = tiny_genesis(alice.address());
  SimNetwork net({.base_latency_ms = 1, .jitter_ms = 0, .seed = 3});
  ProbeNode node(net, genesis);

  const Transaction tx = alice.make_transaction(alice.address(), 1, 21000, "", {});
  node.deliver_tx(tx);
  node.deliver_tx(tx);
  EXPECT_EQ(node.mempool_size(), 1u);

  // Garbage payloads must not crash the node.
  node.on_message(MessageKind::kTransaction, Bytes{1, 2, 3});
  node.on_message(MessageKind::kBlock, Bytes(10, 0xff));
  EXPECT_EQ(node.chain().height(), 0u);

  // A transaction with a broken signature is dropped.
  TxFields fields = tx.fields();
  fields.value = 999;  // signature no longer covers this
  const Transaction forged(fields);
  EXPECT_NE(forged.hash(), tx.hash());
  node.deliver_tx(forged);
  EXPECT_EQ(node.mempool_size(), 1u);
}

TEST(NetworkEdge, HighJitterNetworkStillConverges) {
  // Stress the orphan pool: jitter comparable to block time.
  Rng rng(1104);
  Wallet coinbase1(rng), coinbase2(rng), faucet(rng);
  GenesisConfig genesis = tiny_genesis(faucet.address());
  genesis.difficulty = 512;  // ~32ms blocks at 16 h/ms vs 20-60ms latency
  SimNetwork net({.base_latency_ms = 20, .jitter_ms = 40, .seed = 4});
  MinerNode miner1(net, genesis, coinbase1.address());
  MinerNode miner2(net, genesis, coinbase2.address());
  Node observer(net, genesis);

  ASSERT_TRUE(net.run_until_height(12, 120'000));
  miner1.set_enabled(false);
  miner2.set_enabled(false);
  net.run_for(1'000);
  EXPECT_EQ(observer.chain().head_hash(), miner1.chain().head_hash());
  EXPECT_EQ(observer.chain().head_hash(), miner2.chain().head_hash());
  EXPECT_GE(observer.chain().height(), 12u);
}

// Gossip reaches a node through on_message; a direct call with garbage is
// dropped at decode and never reaches the admission batch, while a valid
// encoding is admitted (and relayed) once the network steps.
TEST(NetworkEdge, DirectGarbageTransactionMessageDropped) {
  Rng rng(1503);
  Wallet alice(rng);
  const GenesisConfig genesis = tiny_genesis(alice.address());
  SimNetwork net({.base_latency_ms = 1, .jitter_ms = 0, .seed = 5});
  ProbeNode node(net, genesis);
  ProbeNode peer(net, genesis);

  const Transaction tx = alice.make_transaction(alice.address(), 1, 21000, "", {});
  Bytes truncated = tx.to_bytes();
  truncated.pop_back();
  node.on_message(MessageKind::kTransaction, Bytes{});
  node.on_message(MessageKind::kTransaction, Bytes{1, 2, 3});
  node.on_message(MessageKind::kTransaction, truncated);
  net.run_for(10);
  EXPECT_EQ(node.mempool_size(), 0u);
  EXPECT_EQ(net.messages_delivered(), 0u) << "nothing was relayed";

  node.on_message(MessageKind::kTransaction, tx.to_bytes());
  net.run_for(10);
  EXPECT_EQ(node.mempool_size(), 1u);
  EXPECT_EQ(peer.mempool_size(), 1u);
  EXPECT_EQ(net.messages_delivered(), 2u) << "relayed once each way, then deduplicated";
}

// A flush pre-verifies only what admission itself would verify: copies with
// a stale nonce or below-intrinsic gas are turned away by the mempool's cheap
// gates, before any signature check, in a batch as one at a time.
TEST(NetworkEdge, BatchedAdmissionVerifiesNoGatedTransaction) {
  if (!ZL_OBS_ENABLED) GTEST_SKIP() << "needs the obs counters";
  Rng rng(1506);
  Wallet alice(rng), bob(rng);
  const GenesisConfig genesis = tiny_genesis(alice.address());
  SimNetwork net({.base_latency_ms = 1, .jitter_ms = 0, .seed = 6});
  ProbeNode node(net, genesis);
  const Transaction first = alice.make_transaction(bob.address(), 1, 21000, "", {});
  node.deliver_block(mine_block(genesis, node.chain().head_hash(), 1, 1, {first}));
  ASSERT_EQ(node.chain().state().nonce_of(alice.address()), 1u);
  const Transaction next = alice.make_transaction(bob.address(), 2, 21000, "", {});

  zl::obs::reset();
  for (std::uint64_t i = 0; i < 16; ++i) {
    // Even: a stale nonce. Odd: the next nonce, starved of gas. Each with a
    // junk signature no check would accept.
    const Transaction& original = i % 2 == 0 ? first : next;
    TxFields fields = original.fields();
    if (i % 2 == 1) fields.gas_limit = 1;
    fields.value = 100 + i;
    fields.signature = Bytes(64, 0x5a);
    const Transaction junk(fields);
    EXPECT_NE(junk.hash(), original.hash());
    node.submit_transaction(junk);
  }
  node.submit_transaction(next);
  net.run_for(1);

  const zl::obs::Snapshot snap = zl::obs::snapshot();
  EXPECT_EQ(snap.counter("mempool.admit.nonce_too_low"), 8u);
  EXPECT_EQ(snap.counter("mempool.admit.invalid"), 8u);
  EXPECT_EQ(snap.counter("validation.sig_cache.miss"), 1u)
      << "only the one valid transaction is verified";
  EXPECT_EQ(node.mempool_size(), 1u);
}

// Nothing of a peer's block is kept unless it is well formed at the chain's
// difficulty. A difficulty-1 block (its PoW always passes) with a junk body, a
// wrong root and an unknown parent used to land in the body stash and the
// orphan pool, neither of which prunes it, for the node's lifetime.
TEST(NetworkEdge, MalformedBlockLeavesNoBodiesOrOrphans) {
  Rng rng(1507);
  Wallet alice(rng);
  const GenesisConfig genesis = tiny_genesis(alice.address());
  SimNetwork net({.base_latency_ms = 1, .jitter_ms = 0, .seed = 7});
  ProbeNode node(net, genesis);
  TxFields junk;
  junk.nonce = 3;
  junk.signature = Bytes(64, 0x5a);

  Block hostile;
  hostile.header.parent_hash = Bytes(32, 0x77);  // no such block
  hostile.header.number = 9;
  hostile.header.difficulty = 1;
  hostile.header.tx_root = Bytes(32, 0x01);
  hostile.transactions = {Transaction(junk)};
  ASSERT_TRUE(proof_of_work_valid(hostile.header));
  node.on_message(MessageKind::kBlock, block_to_bytes(hostile));
  EXPECT_EQ(node.stashed_bodies(), 0u);
  EXPECT_EQ(node.orphan_parents(), 0u);

  // The right root does not help at the wrong difficulty.
  hostile.header.tx_root = Block::compute_tx_root(hostile.transactions);
  node.on_message(MessageKind::kBlock, block_to_bytes(hostile));
  EXPECT_EQ(node.stashed_bodies(), 0u);
  EXPECT_EQ(node.orphan_parents(), 0u);

  // Mined at the chain's difficulty, the same orphan is parked as before.
  node.deliver_block(mine_block(genesis, hostile.header.parent_hash, 9, 1, hostile.transactions));
  EXPECT_EQ(node.stashed_bodies(), 1u);
  EXPECT_EQ(node.orphan_parents(), 1u);
}

// Blocks mined at the chain's difficulty cost a peer almost nothing here, so
// the orphan pool must not keep every unknown-parent block it is sent.
TEST(NetworkEdge, OrphanPoolIsCapped) {
  Rng rng(1508);
  Wallet alice(rng);
  const GenesisConfig genesis = tiny_genesis(alice.address());
  SimNetwork net({.base_latency_ms = 1, .jitter_ms = 0, .seed = 8});
  ProbeNode node(net, genesis);
  TxFields junk;
  junk.signature = Bytes(64, 0x5a);

  const std::size_t cap = Node::kBodyPruneDepth;
  for (std::uint64_t i = 0; i < cap + 8; ++i) {
    junk.nonce = i;
    Bytes parent(32, 0x77);
    parent[0] = static_cast<std::uint8_t>(i);
    node.deliver_block(mine_block(genesis, parent, 9, i, {Transaction(junk)}));
    EXPECT_LE(node.parked_blocks(), cap);
    EXPECT_LE(node.stashed_bodies(), cap);
  }
  EXPECT_EQ(node.parked_blocks(), cap);
  EXPECT_EQ(node.stashed_bodies(), cap) << "evicted orphans take their bodies along";
}

// Counts what the hash bound below is stated in: transaction messages
// delivered, and the transactions of each block body seen for the first time.
template <typename Base>
class CountingNode : public Base {
 public:
  using Base::Base;
  void on_message(MessageKind kind, const Bytes& payload) override {
    if (kind == MessageKind::kTransaction) {
      ++tx_messages;
    } else if (Bytes body; seen.insert(block_header_from_bytes(payload, body).hash()).second) {
      block_txs += ByteReader(body, "block body").u32();  // the tx count, nothing hashed
    }
    Base::on_message(kind, payload);
  }
  std::size_t tx_messages = 0;
  std::size_t block_txs = 0;
  std::set<Bytes> seen;
};

// Every node hashes a transaction at most once per copy it is handed (a
// submission or a gossip message) and once per block body it receives or
// mines: fork choice, apply, receipts, replays and templates reuse those.
TEST(NetworkEdge, TxHashesBoundedByDeliveriesAndBlockBodies) {
  if (!ZL_OBS_ENABLED) GTEST_SKIP() << "needs the obs counters";
  Rng rng(1504);
  std::vector<std::unique_ptr<Wallet>> wallets;
  GenesisConfig genesis;
  genesis.difficulty = 64;
  for (int i = 0; i < 8; ++i) {
    wallets.push_back(std::make_unique<Wallet>(rng));
    genesis.allocations.emplace_back(wallets.back()->address(), 1'000'000'000);
  }
  Wallet coinbase1(rng), coinbase2(rng);
  std::vector<Transaction> flood;
  std::vector<Bytes> hashes;
  for (std::size_t s = 0; s < 300; ++s) {
    flood.push_back(wallets[s % wallets.size()]->make_transaction(
        wallets[(s + 1) % wallets.size()]->address(), 1 + s, 21000, "", {}));
    hashes.push_back(flood.back().hash());
  }

  SimNetwork net({.base_latency_ms = 5, .jitter_ms = 6, .seed = 16});
  CountingNode<MinerNode> miner1(net, genesis, coinbase1.address());
  CountingNode<MinerNode> miner2(net, genesis, coinbase2.address());
  CountingNode<Node> observer(net, genesis);
  zl::obs::reset();
  for (std::size_t s = 0; s < flood.size(); ++s) {
    (s % 2 == 0 ? static_cast<Node&>(miner1) : observer).submit_transaction(flood[s]);
    if (s % 16 == 15) net.run_for(1);
  }
  std::size_t confirmed = 0;
  while (confirmed < flood.size() && net.now() < 600'000) {
    net.run_for(50);
    while (confirmed < flood.size() && observer.chain().find_receipt(hashes[confirmed])) {
      ++confirmed;
    }
  }
  ASSERT_EQ(confirmed, flood.size());
  const std::uint64_t tx_hashes = zl::obs::snapshot().counter("chain.tx_hash");

  const std::size_t deliveries =
      flood.size() + miner1.tx_messages + miner2.tx_messages + observer.tx_messages;
  const std::size_t received = miner1.block_txs + miner2.block_txs + observer.block_txs;
  // Every block either miner mines reaches the observer, so the observer's
  // first-seen bodies bound the mined ones.
  const std::size_t mined = observer.block_txs;
  EXPECT_GT(received, flood.size()) << "the flood confirmed through gossiped blocks";
  EXPECT_LE(tx_hashes, deliveries + received + mined);
}

// A fixed-seed flood into two miners and an observer: the head hash, the
// number of delivered messages and the state bytes pin the whole event
// schedule (admission order, gossip jitter draws, mining races). The values
// were recorded when every transaction was admitted the moment it arrived;
// batched admission must reproduce them exactly.
TEST(NetworkEdge, FloodScheduleGolden) {
  Rng rng(1505);
  std::vector<std::unique_ptr<Wallet>> wallets;
  GenesisConfig genesis;
  genesis.difficulty = 64;
  for (int i = 0; i < 12; ++i) {
    wallets.push_back(std::make_unique<Wallet>(rng));
    genesis.allocations.emplace_back(wallets.back()->address(), 1'000'000'000);
  }
  Wallet coinbase1(rng), coinbase2(rng);
  std::vector<Transaction> flood;
  for (std::size_t s = 0; s < 600; ++s) {
    Wallet& from = *wallets[s % wallets.size()];
    const Address& to = wallets[(s * 7 + 3) % wallets.size()]->address();
    flood.push_back(from.make_transaction(to, 1 + s, 21000, "", {}));
  }

  SimNetwork net({.base_latency_ms = 5, .jitter_ms = 3, .seed = 15});
  MinerNode miner1(net, genesis, coinbase1.address());
  MinerNode miner2(net, genesis, coinbase2.address());
  Node observer(net, genesis);
  for (std::size_t s = 0; s < flood.size(); ++s) {
    (s % 2 == 0 ? static_cast<Node&>(miner1) : observer).submit_transaction(flood[s]);
    if (s % 16 == 15) net.run_for(1);
  }
  std::size_t confirmed = 0;
  while (confirmed < flood.size() && net.now() < 600'000) {
    net.run_for(50);
    while (confirmed < flood.size() && observer.chain().find_receipt(flood[confirmed].hash())) {
      ++confirmed;
    }
  }
  ASSERT_EQ(confirmed, flood.size());
  miner1.set_enabled(false);
  miner2.set_enabled(false);
  net.run_for(500);

  ASSERT_EQ(observer.chain().head_hash(), miner1.chain().head_hash());
  ASSERT_EQ(observer.chain().head_hash(), miner2.chain().head_hash());
  const std::optional<Bytes> state = observer.chain().state().snapshot_bytes();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(to_hex(observer.chain().head_hash()),
            "01b434690687f69bcf3112b46c9c3664138b3b82665a22c69bbcbfae5f7470e9");
  EXPECT_EQ(net.messages_delivered(), 3812u);
  EXPECT_EQ(to_hex(keccak256(*state)),
            "027bfe6a6feadd5de63bfc9a2c5cbb46a737b604037977207848c843dd1e0f70");
}

}  // namespace
}  // namespace zl::chain
