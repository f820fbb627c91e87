// The concurrency-correctness gate (DESIGN.md §13), runtime half.
//
// Three layers of coverage:
//   1. OrderedMutex rank-detector semantics: in-order nesting is silent,
//      non-LIFO release is tracked correctly, and a planted lock-order
//      inversion — the shape of every lock-inversion deadlock — aborts with
//      both lock names (EXPECT_DEATH).
//   2. A mempool/miner stress: concurrent admit / on_confirmed / build_block
//      against two miner threads driving a Blockchain through a reorg storm,
//      with the chain wrapped in a kChain-ranked host lock exactly as the
//      lock-hierarchy table prescribes. Single-threaded mempool tests cannot
//      see index races; this one runs under the tsan leg of check_all.sh.
//   3. The validation-control seam: clear_validation_caches() and
//      set_parallel_validation() hammered from one thread while another
//      validates whole blocks — a concurrent clear must only ever cost a
//      memo miss, never change a verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "chain/mempool.h"
#include "chain/network.h"
#include "chain/validation.h"
#include "common/mutex.h"
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

Transaction bid(Wallet& w, const Address& to, std::uint64_t fee_bid) {
  return w.make_transaction(to, 1, fee_bid, "", {});
}

// --- 1. OrderedMutex rank detector -----------------------------------------

TEST(OrderedMutex, InOrderNestingIsSilent) {
  OrderedMutex outer(LockRank::kChain, "test.outer");
  OrderedMutex inner(LockRank::kMempool, "test.inner");
  MutexLock a(outer);
  MutexLock b(inner);  // 30 after 10: strictly increasing, fine
  SUCCEED();
}

TEST(OrderedMutex, ReacquireLowerRankAfterReleaseIsFine) {
  OrderedMutex high(LockRank::kSnarkMemoCache, "test.high");
  OrderedMutex low(LockRank::kChainEvents, "test.low");
  { MutexLock a(high); }
  MutexLock b(low);  // never held together: no ordering constraint
  SUCCEED();
}

TEST(OrderedMutex, NonLifoReleaseUntracksTheRightLock) {
  OrderedMutex a(LockRank::kChain, "test.a");
  OrderedMutex b(LockRank::kMempool, "test.b");
  std::unique_lock<OrderedMutex> la(a);
  std::unique_lock<OrderedMutex> lb(b);
  la.unlock();  // release the OLDER lock first (non-LIFO)
  // If the detector had popped b instead of a, this re-acquisition of a
  // (rank 10) would look like an inversion against the still-held b (30)
  // ... which it genuinely is — so acquire a fresh rank-50 lock instead:
  // it must be silent because only b (30) is genuinely held.
  OrderedMutex c(LockRank::kPoolQueue, "test.c");
  MutexLock lc(c);
  SUCCEED();
}

TEST(OrderedMutex, MutexUnlockReleasesForTheScope) {
  OrderedMutex outer(LockRank::kPoolQueue, "test.outer");
  OrderedMutex lower(LockRank::kMempool, "test.lower");
  MutexLock l(outer);
  {
    MutexUnlock u(outer);
    // outer (50) is released here, so taking rank 30 is legal...
    MutexLock l2(lower);
  }  // ...and u's destructor reacquires outer with only nothing held.
  SUCCEED();
}

using OrderedMutexDeathTest = ::testing::Test;

TEST(OrderedMutexDeathTest, PlantedInversionDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  OrderedMutex pool_lock(LockRank::kMempool, "test.mempool");
  OrderedMutex event_lock(LockRank::kChainEvents, "test.events");
  MutexLock held(pool_lock);
  // kChainEvents (20) after kMempool (30): the classic inversion. The
  // detector must abort before blocking, naming both locks.
  EXPECT_DEATH({ MutexLock inverted(event_lock); },
               "lock-rank violation: acquiring \"test.events\" \\(rank 20\\) while holding "
               "\"test.mempool\" \\(rank 30\\)");
}

TEST(OrderedMutexDeathTest, EqualRankAlsoDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two kLeaf locks: leaf rank means "never nests another acquisition", so
  // even an equal-rank second acquisition is an ordering bug (and a real
  // deadlock if two threads take them in opposite orders).
  OrderedMutex a(LockRank::kLeaf, "test.leaf_a");
  OrderedMutex b(LockRank::kLeaf, "test.leaf_b");
  MutexLock held(a);
  EXPECT_DEATH({ MutexLock second(b); }, "lock-rank violation");
}

// --- 2. Mempool + miner stress under the documented hierarchy ---------------

// Two producer threads gossip pre-signed transactions into the pool while
// two miner threads build templates, grind PoW, extend the chain (one of
// them periodically publishing a heavier private branch to force reorgs),
// and feed HeadEvents back into the pool. The Blockchain is externally
// synchronized by a kChain-ranked lock per the DESIGN.md §13 convention, so
// this test also exercises every documented nesting: chain -> mempool
// (template building), chain -> pool region/queue (prevalidation), chain ->
// sig/snark caches (apply), chain -> events (fork choice), events -> mempool
// hand-off on the consumer side.
TEST(MempoolConcurrencyStress, AdmitConfirmBuildRaceWithReorgStorm) {
  Rng rng(4242);
  constexpr std::size_t kWallets = 8;
  constexpr std::size_t kTxPerWallet = 24;
  std::vector<Wallet> wallets;
  wallets.reserve(kWallets);
  for (std::size_t i = 0; i < kWallets; ++i) wallets.emplace_back(rng);
  Wallet sink(rng);

  std::vector<Wallet*> wallet_ptrs;
  for (Wallet& w : wallets) wallet_ptrs.push_back(&w);
  const GenesisConfig genesis = funded_genesis(wallet_ptrs);

  // Pre-sign everything single-threaded: Wallet mutates its nonce counter
  // and is not a shared-state class. Producers below only read these.
  std::vector<Transaction> pending;
  for (Wallet& w : wallets) {
    for (std::size_t n = 0; n < kTxPerWallet; ++n) {
      pending.push_back(bid(w, sink.address(), 21'000 + 100 * (n % 7)));
    }
  }

  Blockchain chain(genesis);
  OrderedMutex chain_mu(LockRank::kChain, "test.chain");  // the host lock
  Mempool pool(/*max_txs=*/128);  // small cap: eviction races too
  std::atomic<std::size_t> next_tx{0};

  auto producer = [&] {
    for (;;) {
      const std::size_t i = next_tx.fetch_add(1, std::memory_order_relaxed);
      if (i >= pending.size()) return;
      // chain_nonce 0 keeps producers off the chain lock entirely; stale
      // nonces are evicted by on_confirmed like any raced admission.
      pool.admit(pending[i], 0);
    }
  };

  auto drain_events = [&] {
    // Consumer side of the HeadEvent seam: events_mu_ then mempool locks,
    // never the chain lock.
    for (const Blockchain::HeadEvent& ev : chain.take_head_events()) {
      if (!ev.confirmed) continue;
      const auto receipt_tx = std::find_if(
          pending.begin(), pending.end(),
          [&](const Transaction& tx) { return to_hash32(tx.hash()) == ev.tx_hash; });
      if (receipt_tx != pending.end()) pool.on_confirmed(receipt_tx->from, receipt_tx->nonce);
    }
  };

  auto miner = [&](bool reorg_attacker) {
    std::uint64_t stamp = reorg_attacker ? 1'000'000 : 1;
    for (int iter = 0; iter < 10; ++iter) {
      Bytes parent;
      std::uint64_t number = 0;
      std::vector<Transaction> txs;
      {
        MutexLock l(chain_mu);
        parent = chain.head_hash();
        number = chain.height() + 1;
        txs = pool.build_block(chain.state(), 8);  // kChain -> kMempool nesting
      }
      if (reorg_attacker && iter % 3 == 2) {
        // Publish a two-block private branch from the same parent: strictly
        // heavier than any single competing block, so fork choice must
        // reorg onto it and emit a dropped+confirmed diff.
        const Block b1 = mine_block(genesis, parent, number, ++stamp, txs);
        const Block b2 = mine_block(genesis, b1.hash(), number + 1, ++stamp, {});
        MutexLock l(chain_mu);
        chain.add_block(b1);
        chain.add_block(b2);
      } else {
        const Block b = mine_block(genesis, parent, number, ++stamp, txs);
        MutexLock l(chain_mu);
        chain.add_block(b);
      }
      drain_events();
    }
  };

  std::thread p1(producer), p2(producer);
  std::thread m1([&] { miner(false); }), m2([&] { miner(true); });
  p1.join();
  p2.join();
  m1.join();
  m2.join();

  drain_events();
  // The storm must have actually built a chain, and the pool must still be
  // internally consistent: every next-executable template transaction the
  // final state admits is well-formed (build_block walks all indexes).
  EXPECT_GE(chain.height(), 10u);
  {
    MutexLock l(chain_mu);
    const std::vector<Transaction> tmpl = pool.build_block(chain.state(), 1024);
    for (const Transaction& tx : tmpl) {
      EXPECT_GE(tx.nonce, chain.state().nonce_of(tx.from));
    }
  }
  EXPECT_TRUE(chain.take_head_events().empty());
}

// --- 3. clear_validation_caches / set_parallel_validation mid-validation ----

TEST(ValidationControlConcurrency, ClearAndToggleWhileAnotherThreadValidates) {
  Rng rng(777);
  Wallet alice(rng), sink(rng);
  const GenesisConfig genesis = funded_genesis({&alice});

  // Pre-mine a 5-block chain of sequential transfers.
  std::vector<Block> blocks;
  {
    Blockchain scratch(genesis);
    Bytes parent = scratch.head_hash();
    for (std::uint64_t n = 0; n < 5; ++n) {
      const Block b = mine_block(genesis, parent, n + 1, n + 1,
                                 {bid(alice, sink.address(), 21'000 + n)});
      ASSERT_TRUE(scratch.add_block(b));
      parent = scratch.head_hash();
      alice.set_nonce(n + 1);
    }
    for (const Bytes& h : scratch.canonical_chain()) {
      if (const Block* b = scratch.block_by_hash(h); b->header.number > 0) blocks.push_back(*b);
    }
    ASSERT_EQ(blocks.size(), 5u);
  }

  std::atomic<bool> validating{true};
  std::thread saboteur([&] {
    // The documented contract: both calls are safe mid-validation — a clear
    // is only ever a memo miss, the toggle only selects how verdicts are
    // computed. TSan checks the lock story; the asserts below check that
    // verdicts never change.
    while (validating.load(std::memory_order_acquire)) {
      clear_validation_caches();
      set_parallel_validation(false);
      set_parallel_validation(true);
      std::this_thread::yield();
    }
  });

  for (int round = 0; round < 3; ++round) {
    Blockchain replay(genesis);
    for (const Block& b : blocks) ASSERT_TRUE(replay.add_block(b));
    EXPECT_EQ(replay.height(), 5u);
    // Verdicts are invariant under cache clears: all five transfers landed.
    EXPECT_EQ(replay.state().nonce_of(alice.address()), 5u);
    for (const Block& b : blocks) {
      EXPECT_TRUE(replay.find_receipt(b.transactions[0].hash()).has_value());
    }
  }
  validating.store(false, std::memory_order_release);
  saboteur.join();
  set_parallel_validation(true);
}

}  // namespace
}  // namespace zl::chain
