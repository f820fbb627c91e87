// The fee-ordered mempool and the parallel validation pipeline.
//
// Covers the admission rules (fee ordering, replacement-by-fee, nonce gaps,
// pool-cap eviction), the incremental confirmation/reorg maintenance that
// replaced the clear-and-rescan, and the pipeline's one hard invariant: the
// parallel prevalidate/apply path must be bit-identical to the serial
// oracle — same receipts, same state snapshot bytes — over a randomized
// multi-block workload. The *Stress tests also run under the tsan leg of
// tools/check_all.sh.
#include <gtest/gtest.h>

#include <limits>
#include <thread>

#include "chain/mempool.h"
#include "chain/network.h"
#include "chain/validation.h"
#include "common/thread_pool.h"

namespace zl::chain {
namespace {

GenesisConfig funded_genesis(const std::vector<Wallet*>& wallets,
                             std::uint64_t amount = 100'000'000) {
  GenesisConfig g;
  g.difficulty = 4;
  for (const Wallet* w : wallets) g.allocations.emplace_back(w->address(), amount);
  return g;
}

ChainState state_of(const GenesisConfig& g) {
  ChainState state;
  for (const auto& [addr, amount] : g.allocations) state.credit(addr, amount);
  return state;
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

// A transfer with an explicit fee bid (fee = gas_limit at the fixed
// 1 wei/gas price; kTxBase is the floor for a plain transfer).
Transaction bid(Wallet& w, const Address& to, std::uint64_t fee_bid) {
  return w.make_transaction(to, 1, fee_bid, "", {});
}

TEST(Mempool, BuildsBlocksHighestFeeFirstAcrossSenders) {
  Rng rng(42);
  Wallet a(rng), b(rng), c(rng), sink(rng);
  const GenesisConfig genesis = funded_genesis({&a, &b, &c});
  ChainState state = state_of(genesis);

  Mempool pool;
  EXPECT_EQ(pool.admit(bid(a, sink.address(), 30'000), 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.admit(bid(b, sink.address(), 50'000), 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.admit(bid(c, sink.address(), 40'000), 0), Mempool::Admission::kAdmitted);

  const std::vector<Transaction> block = pool.build_block(state, 16);
  ASSERT_EQ(block.size(), 3u);
  EXPECT_EQ(block[0].from, b.address());
  EXPECT_EQ(block[1].from, c.address());
  EXPECT_EQ(block[2].from, a.address());
}

TEST(Mempool, PerSenderNonceOrderBeatsFeeOrder) {
  Rng rng(43);
  Wallet a(rng), sink(rng);
  const GenesisConfig genesis = funded_genesis({&a});
  ChainState state = state_of(genesis);

  // Nonce 0 bids low, nonce 1 bids high: the high bid must NOT jump the
  // queue — a sender's chain is only valid in nonce order.
  Mempool pool;
  const Transaction t0 = bid(a, sink.address(), 25'000);
  const Transaction t1 = bid(a, sink.address(), 90'000);
  EXPECT_EQ(pool.admit(t1, 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.admit(t0, 0), Mempool::Admission::kAdmitted);

  const std::vector<Transaction> block = pool.build_block(state, 16);
  ASSERT_EQ(block.size(), 2u);
  EXPECT_EQ(block[0].nonce, 0u);
  EXPECT_EQ(block[1].nonce, 1u);
}

TEST(Mempool, ReplacementByFeeRequiresBump) {
  Rng rng(44);
  Wallet a(rng), sink(rng);
  const GenesisConfig genesis = funded_genesis({&a});
  ChainState state = state_of(genesis);

  Mempool pool;
  const Transaction original = bid(a, sink.address(), 40'000);
  EXPECT_EQ(pool.admit(original, 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.admit(original, 0), Mempool::Admission::kDuplicate);

  // Same nonce, insufficient bump: rejected, original stays.
  a.set_nonce(0);
  const Transaction low = bid(a, sink.address(), 40'000 + Mempool::kReplacementBump - 1);
  EXPECT_EQ(pool.admit(low, 0), Mempool::Admission::kUnderpriced);
  EXPECT_TRUE(pool.contains(to_hash32(original.hash())));

  // Sufficient bump: replaces in place; the pool never holds both.
  a.set_nonce(0);
  const Transaction high = bid(a, sink.address(), 40'000 + Mempool::kReplacementBump);
  EXPECT_EQ(pool.admit(high, 0), Mempool::Admission::kReplaced);
  EXPECT_FALSE(pool.contains(to_hash32(original.hash())));
  EXPECT_TRUE(pool.contains(to_hash32(high.hash())));
  EXPECT_EQ(pool.size(), 1u);

  const std::vector<Transaction> block = pool.build_block(state, 16);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0].hash(), high.hash());
}

TEST(Mempool, NonceGapHoldsSuccessorsOutOfBlocks) {
  Rng rng(45);
  Wallet a(rng), sink(rng);
  const GenesisConfig genesis = funded_genesis({&a});
  ChainState state = state_of(genesis);

  // Admit nonces 0 and 2 (skip 1): only nonce 0 is block-eligible.
  const Transaction t0 = bid(a, sink.address(), 30'000);
  const Transaction t1 = bid(a, sink.address(), 30'000);
  const Transaction t2 = bid(a, sink.address(), 30'000);

  Mempool pool;
  EXPECT_EQ(pool.admit(t0, 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.admit(t2, 0), Mempool::Admission::kAdmitted);
  std::vector<Transaction> block = pool.build_block(state, 16);
  ASSERT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0].nonce, 0u);

  // Filling the gap releases the whole chain, in nonce order.
  EXPECT_EQ(pool.admit(t1, 0), Mempool::Admission::kAdmitted);
  block = pool.build_block(state, 16);
  ASSERT_EQ(block.size(), 3u);
  for (std::uint64_t n = 0; n < 3; ++n) EXPECT_EQ(block[n].nonce, n);
}

TEST(Mempool, RejectsStaleNonceAndForgedSignature) {
  Rng rng(46);
  Wallet a(rng), sink(rng);

  Mempool pool;
  const Transaction t0 = bid(a, sink.address(), 30'000);
  EXPECT_EQ(pool.admit(t0, /*chain_nonce=*/1), Mempool::Admission::kNonceTooLow);

  Transaction forged = bid(a, sink.address(), 30'000);
  ++forged.value;  // break the signature
  EXPECT_EQ(pool.admit(forged, 0), Mempool::Admission::kInvalid);
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, ConfirmationEvictsSenderChainUpToNonce) {
  Rng rng(47);
  Wallet a(rng), b(rng), sink(rng);

  Mempool pool;
  std::vector<Transaction> a_txs;
  for (int i = 0; i < 4; ++i) {
    a_txs.push_back(bid(a, sink.address(), 30'000));
    EXPECT_EQ(pool.admit(a_txs.back(), 0), Mempool::Admission::kAdmitted);
  }
  const Transaction b0 = bid(b, sink.address(), 30'000);
  EXPECT_EQ(pool.admit(b0, 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.size(), 5u);

  // Confirming a's nonce 2 drops nonces 0..2 (stale bids) and keeps nonce 3
  // and the other sender untouched.
  pool.on_confirmed(a.address(), 2);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_FALSE(pool.contains(to_hash32(a_txs[2].hash())));
  EXPECT_TRUE(pool.contains(to_hash32(a_txs[3].hash())));
  EXPECT_TRUE(pool.contains(to_hash32(b0.hash())));
}

TEST(Mempool, FullPoolEvictsCheapestAndRefusesUnderbids) {
  Rng rng(48);
  Wallet a(rng), b(rng), c(rng), sink(rng);

  Mempool pool(/*max_txs=*/2);
  const Transaction cheap = bid(a, sink.address(), 30'000);
  const Transaction mid = bid(b, sink.address(), 40'000);
  EXPECT_EQ(pool.admit(cheap, 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.admit(mid, 0), Mempool::Admission::kAdmitted);

  // A bid at (or below) the cheapest resident fee bounces; a higher bid
  // evicts the cheapest resident.
  c.set_nonce(0);
  EXPECT_EQ(pool.admit(bid(c, sink.address(), 30'000), 0), Mempool::Admission::kPoolFull);
  c.set_nonce(0);
  const Transaction rich = bid(c, sink.address(), 50'000);
  EXPECT_EQ(pool.admit(rich, 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_FALSE(pool.contains(to_hash32(cheap.hash())));
  EXPECT_TRUE(pool.contains(to_hash32(mid.hash())));
  EXPECT_TRUE(pool.contains(to_hash32(rich.hash())));
}

TEST(Mempool, FullPoolEvictionOfOwnSenderChainStaysConsistent) {
  Rng rng(52);
  Wallet a(rng), sink(rng);

  Mempool pool(/*max_txs=*/1);
  const Transaction t0 = bid(a, sink.address(), 30'000);  // nonce 0
  const Transaction t1 = bid(a, sink.address(), 50'000);  // nonce 1
  EXPECT_EQ(pool.admit(t0, 0), Mempool::Admission::kAdmitted);

  // Admitting a's nonce 1 into the full pool evicts a's nonce 0 — the new
  // transaction's own sender loses its only pooled entry, so the sender
  // chain must be re-acquired after the eviction (this used to write
  // through a freed map node and desync the indexes).
  EXPECT_EQ(pool.admit(t1, 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_FALSE(pool.contains(to_hash32(t0.hash())));
  EXPECT_TRUE(pool.contains(to_hash32(t1.hash())));

  // The survivor must be reachable through every index.
  pool.drop(to_hash32(t1.hash()));
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, FullPoolEvictsFromTailOfCheapestSendersChain) {
  Rng rng(53);
  Wallet a(rng), b(rng), sink(rng);

  Mempool pool(/*max_txs=*/3);
  const Transaction a0 = bid(a, sink.address(), 60'000);
  const Transaction a1 = bid(a, sink.address(), 25'000);  // globally cheapest
  const Transaction a2 = bid(a, sink.address(), 70'000);
  EXPECT_EQ(pool.admit(a0, 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.admit(a1, 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.admit(a2, 0), Mempool::Admission::kAdmitted);

  const Transaction b0 = bid(b, sink.address(), 30'000);
  EXPECT_EQ(pool.admit(b0, 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.size(), 3u);

  // The cheapest bid (a's nonce 1) names the victim sender, but the entry
  // shed is the tail (nonce 2): evicting the mid-chain nonce 1 would have
  // stranded nonce 2 behind an unfillable gap.
  EXPECT_TRUE(pool.contains(to_hash32(a0.hash())));
  EXPECT_TRUE(pool.contains(to_hash32(a1.hash())));
  EXPECT_FALSE(pool.contains(to_hash32(a2.hash())));
  EXPECT_TRUE(pool.contains(to_hash32(b0.hash())));
}

TEST(Mempool, RejectsOverflowingEscrowAtAdmission) {
  Rng rng(54);
  Wallet a(rng), sink(rng);

  // gas_limit + value wraps uint64: validly signed, sorts first by fee, can
  // never be funded. Before the admission gate it sat unconfirmable at the
  // top of every block template.
  Mempool pool;
  const Transaction tx = a.make_transaction(
      sink.address(), 1, std::numeric_limits<std::uint64_t>::max(), "", {});
  EXPECT_EQ(pool.admit(tx, 0), Mempool::Admission::kInvalid);
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, BuildBlockFundsBoundDoesNotWrap) {
  Rng rng(55);
  Wallet whale(rng), sink(rng);
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  GenesisConfig genesis;
  genesis.difficulty = 4;
  genesis.allocations = {{whale.address(), max}};
  ChainState state = state_of(genesis);

  // Each transaction alone fits the balance, but their summed cost exceeds
  // it — and wraps uint64. A wrapping bound would template both.
  const std::uint64_t half = max / 2 + 2;
  Mempool pool;
  EXPECT_EQ(pool.admit(whale.make_transaction(sink.address(), 1, half, "", {}), 0),
            Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.admit(whale.make_transaction(sink.address(), 1, half, "", {}), 0),
            Mempool::Admission::kAdmitted);
  const std::vector<Transaction> block = pool.build_block(state, 16);
  ASSERT_EQ(block.size(), 1u) << "wrapped funds bound admitted an unfundable chain";
  EXPECT_EQ(block[0].nonce, 0u);
}

TEST(Mempool, BuildBlockRespectsBalanceBound) {
  Rng rng(49);
  Wallet poor(rng), sink(rng);
  GenesisConfig genesis;
  genesis.difficulty = 4;
  // Enough for exactly one transfer's fee + value, not two.
  genesis.allocations = {{poor.address(), 31'000}};
  ChainState state = state_of(genesis);

  Mempool pool;
  EXPECT_EQ(pool.admit(bid(poor, sink.address(), 25'000), 0), Mempool::Admission::kAdmitted);
  EXPECT_EQ(pool.admit(bid(poor, sink.address(), 25'000), 0), Mempool::Admission::kAdmitted);
  const std::vector<Transaction> block = pool.build_block(state, 16);
  ASSERT_EQ(block.size(), 1u) << "second tx cannot be funded and must stay pooled";
  EXPECT_EQ(block[0].nonce, 0u);
}

// Expose the protected mempool for white-box checks of the incremental
// head-event maintenance (the refresh_mempool rescan replacement).
class ProbeNode : public Node {
 public:
  using Node::Node;
  void deliver_block(const Block& b) { accept_block(b, false); }
  void deliver_tx(const Transaction& tx) { accept_transaction(tx, false); }
  const Mempool& pool() const { return mempool_; }
  void shrink_pool(std::size_t max_txs) { mempool_.reset(max_txs); }
  bool has_body(const Hash32& tx_hash) const { return known_txs_.contains(tx_hash); }
};

TEST(MempoolNode, ConfirmationDropsCompetingBidsIncrementally) {
  Rng rng(50);
  Wallet alice(rng), sink(rng);
  const GenesisConfig genesis = funded_genesis({&alice});
  SimNetwork net({.base_latency_ms = 1, .jitter_ms = 0, .seed = 7});
  ProbeNode node(net, genesis);

  // Two competing bids for nonce 0 reach the node by gossip; they are
  // distinct transactions (different fees) and RBF keeps only the richer.
  const Transaction low = bid(alice, sink.address(), 30'000);
  alice.set_nonce(0);
  const Transaction high = bid(alice, sink.address(), 80'000);
  node.deliver_tx(low);
  node.deliver_tx(high);
  EXPECT_EQ(node.pool().size(), 1u);

  // A block confirms the LOW variant (mined elsewhere): the node must evict
  // the now-stale high bid too — its nonce is consumed.
  const Block b1 =
      mine_block(genesis, node.chain().head_hash(), 1, 1, {low});
  node.deliver_block(b1);
  EXPECT_EQ(node.chain().height(), 1u);
  EXPECT_TRUE(node.pool().empty())
      << "same-nonce bids must be evicted when the nonce is consumed";
}

TEST(MempoolNode, ReorgReturnsOrphanedTransactionsToPool) {
  Rng rng(51);
  Wallet alice(rng), sink(rng);
  const GenesisConfig genesis = funded_genesis({&alice});
  SimNetwork net({.base_latency_ms = 1, .jitter_ms = 0, .seed = 8});
  ProbeNode node(net, genesis);

  const Transaction tx = bid(alice, sink.address(), 30'000);
  node.deliver_tx(tx);

  // Branch A confirms the tx; the pool drains.
  const Block a1 = mine_block(genesis, node.chain().head_hash(), 1, 1, {tx});
  node.deliver_block(a1);
  EXPECT_TRUE(node.pool().empty());

  // A longer empty branch B wins: the tx is evicted from the chain and must
  // return to pending (resurrected from the node's known-body stash).
  const Block b1 = mine_block(genesis, node.chain().genesis_config().build().hash(), 1, 2, {});
  const Block b2 = mine_block(genesis, b1.hash(), 2, 3, {});
  node.deliver_block(b1);
  node.deliver_block(b2);
  EXPECT_EQ(node.chain().height(), 2u);
  EXPECT_EQ(node.chain().head_hash(), b2.hash());
  EXPECT_FALSE(node.chain().find_receipt(tx.hash()).has_value());
  EXPECT_TRUE(node.pool().contains(to_hash32(tx.hash())))
      << "reorged-out transactions must return to the mempool";
}

TEST(MempoolNode, PoolFullRejectionIsRetriableOnRegossip) {
  Rng rng(56);
  Wallet alice(rng), bob(rng), sink(rng);
  const GenesisConfig genesis = funded_genesis({&alice, &bob});
  SimNetwork net({.base_latency_ms = 1, .jitter_ms = 0, .seed = 9});
  ProbeNode node(net, genesis);
  node.shrink_pool(1);

  const Transaction rich = bid(alice, sink.address(), 50'000);
  const Transaction cheap = bid(bob, sink.address(), 30'000);
  node.deliver_tx(rich);
  node.deliver_tx(cheap);  // pool full and this is the cheapest: bounces
  EXPECT_FALSE(node.pool().contains(to_hash32(cheap.hash())));

  // The rich transaction confirms and the pool drains. A re-gossip of the
  // bounced transaction must now be admitted — kPoolFull is a transient
  // condition, not a mark-seen-forever verdict.
  const Block b1 = mine_block(genesis, node.chain().head_hash(), 1, 1, {rich});
  node.deliver_block(b1);
  EXPECT_TRUE(node.pool().empty());
  node.deliver_tx(cheap);
  EXPECT_TRUE(node.pool().contains(to_hash32(cheap.hash())))
      << "a pool-full rejection must not permanently drop the transaction";
}

TEST(MempoolNode, ConfirmedBodiesPrunedPastReorgHorizon) {
  Rng rng(57);
  Wallet alice(rng), sink(rng);
  const GenesisConfig genesis = funded_genesis({&alice});
  SimNetwork net({.base_latency_ms = 1, .jitter_ms = 0, .seed = 10});
  ProbeNode node(net, genesis);

  const Transaction tx = bid(alice, sink.address(), 30'000);
  const Hash32 h = to_hash32(tx.hash());
  node.deliver_tx(tx);
  EXPECT_TRUE(node.has_body(h));

  Bytes parent = node.chain().head_hash();
  Block b = mine_block(genesis, parent, 1, 1, {tx});
  node.deliver_block(b);
  parent = b.hash();
  EXPECT_TRUE(node.has_body(h)) << "fresh confirmations stay resurrectable";

  // Bury the confirmation past the prune horizon: the stash must let go.
  for (std::uint64_t n = 2; n <= Node::kBodyPruneDepth + 2; ++n) {
    b = mine_block(genesis, parent, n, n, {});
    node.deliver_block(b);
    parent = b.hash();
  }
  EXPECT_FALSE(node.has_body(h)) << "confirmed bodies must be pruned eventually";
}

// ---------------------------------------------------------------------------
// Parallel validation: bit-equality against the serial oracle.
// ---------------------------------------------------------------------------

// A randomized multi-block transfer workload (mixed senders, varied fees)
// mined into a chain of `num_blocks` blocks.
std::vector<Block> random_workload(const GenesisConfig& genesis,
                                   std::vector<std::unique_ptr<Wallet>>& wallets, Rng& rng,
                                   std::size_t num_blocks, std::size_t txs_per_block) {
  std::vector<Block> blocks;
  Bytes parent = genesis.build().hash();
  for (std::size_t n = 1; n <= num_blocks; ++n) {
    std::vector<Transaction> txs;
    for (std::size_t t = 0; t < txs_per_block; ++t) {
      Wallet& w = *wallets[rng.uniform(static_cast<std::uint32_t>(wallets.size()))];
      Wallet& to = *wallets[rng.uniform(static_cast<std::uint32_t>(wallets.size()))];
      const std::uint64_t fee = 21'000 + rng.uniform(40'000);
      txs.push_back(w.make_transaction(to.address(), 1 + rng.uniform(100), fee, "", {}));
    }
    blocks.push_back(mine_block(genesis, parent, n, n, std::move(txs)));
    parent = blocks.back().hash();
  }
  return blocks;
}

struct ChainFingerprint {
  Bytes state_snapshot;
  std::vector<std::pair<Bytes, bool>> receipts;  // (tx hash, ok) in block order
};

ChainFingerprint apply_and_fingerprint(const GenesisConfig& genesis,
                                       const std::vector<Block>& blocks) {
  Blockchain chain(genesis);
  for (const Block& b : blocks) {
    EXPECT_TRUE(chain.add_block(b));
  }
  ChainFingerprint fp;
  const std::optional<Bytes> snapshot = chain.state().snapshot_bytes();
  EXPECT_TRUE(snapshot.has_value());
  if (snapshot) fp.state_snapshot = *snapshot;
  for (const Block& b : blocks) {
    for (const Transaction& tx : b.transactions) {
      const std::optional<Receipt> r = chain.find_receipt(tx.hash());
      EXPECT_TRUE(r.has_value());
      fp.receipts.emplace_back(tx.hash(), r.has_value() && r->success);
    }
  }
  return fp;
}

TEST(ParallelValidation, BitIdenticalToSerialOracleOnRandomWorkload) {
  Rng rng(5050);
  std::vector<std::unique_ptr<Wallet>> wallets;
  std::vector<Wallet*> raw;
  for (int i = 0; i < 12; ++i) {
    wallets.push_back(std::make_unique<Wallet>(rng));
    raw.push_back(wallets.back().get());
  }
  const GenesisConfig genesis = funded_genesis(raw, 500'000'000);
  const std::vector<Block> blocks = random_workload(genesis, wallets, rng, 50, 8);

  // Serial oracle: prevalidation off, single thread, cold caches.
  set_parallel_validation(false);
  clear_validation_caches();
  const unsigned saved_threads = num_threads();
  set_num_threads(1);
  const ChainFingerprint serial = apply_and_fingerprint(genesis, blocks);

  // Parallel pipeline, cold caches again.
  set_parallel_validation(true);
  clear_validation_caches();
  set_num_threads(saved_threads > 1 ? saved_threads : 4);
  const ChainFingerprint parallel = apply_and_fingerprint(genesis, blocks);
  set_num_threads(saved_threads);

  ASSERT_EQ(serial.receipts.size(), parallel.receipts.size());
  for (std::size_t i = 0; i < serial.receipts.size(); ++i) {
    EXPECT_EQ(serial.receipts[i], parallel.receipts[i]) << "receipt " << i << " diverged";
  }
  EXPECT_EQ(serial.state_snapshot, parallel.state_snapshot)
      << "parallel validation must replicate the serial oracle bit-for-bit";
}

TEST(ParallelValidation, PrevalidationWarmsSignatureCache) {
  Rng rng(5051);
  Wallet a(rng), sink(rng);
  const GenesisConfig genesis = funded_genesis({&a});

  std::vector<Transaction> txs;
  for (int i = 0; i < 8; ++i) txs.push_back(bid(a, sink.address(), 30'000));

  set_parallel_validation(true);
  clear_validation_caches();
  EXPECT_EQ(signature_verdict_cache_size(), 0u);
  ChainState state = state_of(genesis);
  prevalidate_block(state, txs);
  EXPECT_EQ(signature_verdict_cache_size(), txs.size());
}

// Two independent chains validating the same workload concurrently: the
// shared caches (signature verdicts, snark results) and the thread pool are
// exercised from multiple block-validation contexts at once. Run under
// ThreadSanitizer by the tsan leg of tools/check_all.sh.
TEST(ParallelValidationStress, ConcurrentChainsShareCachesSafely) {
  Rng rng(5052);
  std::vector<std::unique_ptr<Wallet>> wallets;
  std::vector<Wallet*> raw;
  for (int i = 0; i < 6; ++i) {
    wallets.push_back(std::make_unique<Wallet>(rng));
    raw.push_back(wallets.back().get());
  }
  const GenesisConfig genesis = funded_genesis(raw, 500'000'000);
  const std::vector<Block> blocks = random_workload(genesis, wallets, rng, 12, 6);

  set_parallel_validation(true);
  clear_validation_caches();

  std::vector<Bytes> snapshots(3);
  {
    std::vector<std::thread> validators;
    for (std::size_t v = 0; v < snapshots.size(); ++v) {
      validators.emplace_back([&, v] {
        Blockchain chain(genesis);
        for (const Block& b : blocks) {
          if (!chain.add_block(b)) return;  // failure shows as empty snapshot
        }
        snapshots[v] = chain.state().snapshot_bytes().value_or(Bytes{});
      });
    }
    for (std::thread& t : validators) t.join();
  }
  ASSERT_FALSE(snapshots[0].empty());
  for (std::size_t v = 1; v < snapshots.size(); ++v) {
    EXPECT_EQ(snapshots[v], snapshots[0]) << "validator " << v << " diverged";
  }
}

}  // namespace
}  // namespace zl::chain
