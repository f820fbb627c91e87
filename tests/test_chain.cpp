// Blockchain substrate tests: transactions, blocks/PoW, state transitions,
// the contract runtime + gas, fork choice, and the network simulator
// (including the transaction-reordering adversary).
#include <gtest/gtest.h>

#include "chain/network.h"

namespace zl::chain {
namespace {

// A minimal test contract: counts calls, stores a value, can pay out.
class CounterContract : public Contract {
 public:
  void on_deploy(CallContext& ctx, const Bytes& args) override {
    ctx.charge(GasSchedule::kStorageWrite);
    if (!args.empty()) initial_ = args[0];
    count_ = initial_;
  }
  void invoke(CallContext& ctx, const std::string& method, const Bytes& args) override {
    if (method == "increment") {
      ctx.charge(GasSchedule::kStorageWrite);
      ++count_;
      ctx.log("incremented");
    } else if (method == "payout") {
      if (args.size() != 8) throw ContractRevert("bad args");
      const std::uint64_t amount = ByteReader(args).u64();
      if (!ctx.transfer(ctx.sender, amount)) throw ContractRevert("insufficient balance");
    } else if (method == "burn_gas") {
      for (;;) ctx.charge(1000);
    } else {
      throw ContractRevert("unknown method");
    }
  }
  std::uint64_t count() const { return count_; }

  // Snapshot hooks so chain tests exercise the checkpoint-restore fast path.
  std::optional<Bytes> snapshot_state() const override {
    Bytes out;
    append_u64_be(out, initial_);
    append_u64_be(out, count_);
    return out;
  }
  void restore_state(const Bytes& state) override {
    ByteReader r(state, "counter state");
    initial_ = r.u64();
    count_ = r.u64();
  }

 private:
  std::uint64_t initial_ = 0;
  std::uint64_t count_ = 0;
};

struct RegisterCounter {
  RegisterCounter() {
    ContractFactory::instance().register_type("counter",
                                              [] { return std::make_unique<CounterContract>(); });
  }
} register_counter;

GenesisConfig make_genesis(const std::vector<Address>& funded,
                           std::uint64_t amount = 50'000'000) {
  GenesisConfig g;
  for (const Address& a : funded) g.allocations.push_back({a, amount});
  // Expected block interval (one 16 h/ms miner): ~2048/16 = 128 ms — an
  // order of magnitude above gossip latency, like a healthy network.
  g.difficulty = 2048;
  return g;
}

TEST(Address, DerivationAndComparison) {
  const Address a = Address::from_hex("00112233445566778899aabbccddeeff00112233");
  EXPECT_EQ(a.to_hex(), "00112233445566778899aabbccddeeff00112233");
  EXPECT_TRUE(Address().is_zero());
  EXPECT_FALSE(a.is_zero());
  const Address c1 = Address::for_contract(a, 0);
  const Address c2 = Address::for_contract(a, 1);
  EXPECT_NE(c1, c2);
  EXPECT_THROW(Address::from_bytes(Bytes(19)), std::invalid_argument);
}

TEST(Tx, SignAndVerifyRoundTrip) {
  Rng rng(301);
  Wallet wallet(rng);
  const Transaction tx =
      wallet.make_transaction(Address(), 100, 30000, "counter", to_bytes("args"));
  EXPECT_TRUE(tx.verify_signature());
  EXPECT_TRUE(tx.is_contract_creation());
  const Transaction decoded = Transaction::from_bytes(tx.to_bytes());
  EXPECT_TRUE(decoded.verify_signature());
  EXPECT_EQ(decoded.hash(), tx.hash());

  Transaction tampered = tx;
  tampered.value = 999;
  EXPECT_FALSE(tampered.verify_signature());
  tampered = tx;
  tampered.from = Address::for_contract(tx.from, 7);
  EXPECT_FALSE(tampered.verify_signature());
}

TEST(Tx, NoncesIncrease) {
  Rng rng(302);
  Wallet wallet(rng);
  const Address to = Address::from_hex("1122334455667788990011223344556677889900");
  EXPECT_EQ(wallet.make_transaction(to, 1, 21000, "", {}).nonce, 0u);
  EXPECT_EQ(wallet.make_transaction(to, 1, 21000, "", {}).nonce, 1u);
}

TEST(Block, TxRootAndPow) {
  Rng rng(303);
  Wallet wallet(rng);
  Block block;
  block.header.parent_hash = Bytes(32, 0x01);
  block.header.number = 1;
  block.header.difficulty = 2;  // half of all nonces succeed
  block.transactions.push_back(
      wallet.make_transaction(Address::for_contract(wallet.address(), 0), 5, 21000, "", {}));
  block.header.tx_root = Block::compute_tx_root(block.transactions);
  while (!proof_of_work_valid(block.header)) ++block.header.nonce;
  EXPECT_TRUE(block.well_formed());

  // Tampering with the body breaks the root binding.
  Block bad = block;
  bad.transactions.clear();
  EXPECT_FALSE(bad.well_formed());

  // Serialization round trip.
  const Block decoded = block_from_bytes(block_to_bytes(block));
  EXPECT_EQ(decoded.hash(), block.hash());
  EXPECT_EQ(decoded.transactions.size(), 1u);
}

TEST(State, TransfersAndNonceRules) {
  Rng rng(304);
  Wallet alice(rng);
  Wallet bob(rng);
  const Address miner = Address::from_hex("00000000000000000000000000000000000000aa");
  ChainState state;
  state.credit(alice.address(), 1'000'000);

  const Transaction t1 = alice.make_transaction(bob.address(), 500, 21000, "", {});
  const Receipt r1 = state.apply_transaction(t1, 1, miner);
  EXPECT_TRUE(r1.success);
  EXPECT_EQ(state.balance_of(bob.address()), 500u);
  EXPECT_EQ(state.balance_of(miner), r1.gas_used);
  EXPECT_EQ(state.balance_of(alice.address()), 1'000'000 - 500 - r1.gas_used);
  EXPECT_EQ(state.nonce_of(alice.address()), 1u);

  // Replay (same nonce) is rejected as an invalid transaction.
  EXPECT_THROW(state.apply_transaction(t1, 2, miner), std::invalid_argument);
  // Nonce gap rejected.
  Transaction gap = alice.make_transaction(bob.address(), 1, 21000, "", {});
  gap.nonce = 5;
  EXPECT_FALSE(gap.verify_signature());  // signature covers the nonce
}

TEST(State, RejectsUnderfundedAndUnderGassed) {
  Rng rng(305);
  Wallet poor(rng);
  ChainState state;
  state.credit(poor.address(), 100);  // cannot afford gas
  const Address miner;
  const Transaction tx = poor.make_transaction(Address(), 0, 25000, "counter", {});
  EXPECT_THROW(state.apply_transaction(tx, 1, miner), std::invalid_argument);

  Wallet rich(rng);
  state.credit(rich.address(), 1'000'000);
  const Transaction low_gas = rich.make_transaction(Address(), 0, 100, "counter", {});
  EXPECT_THROW(state.apply_transaction(low_gas, 1, miner), std::invalid_argument);
}

TEST(State, ContractDeployInvokeAndRead) {
  Rng rng(306);
  Wallet owner(rng);
  ChainState state;
  state.credit(owner.address(), 10'000'000);
  const Address miner;

  const Transaction deploy =
      owner.make_transaction(Address(), 1000, 200000, "counter", Bytes{42});
  const Receipt r = state.apply_transaction(deploy, 1, miner);
  ASSERT_TRUE(r.success) << r.error;
  const Address contract = r.created_contract;
  EXPECT_TRUE(state.is_contract(contract));
  EXPECT_EQ(state.balance_of(contract), 1000u);
  EXPECT_EQ(state.contract_as<CounterContract>(contract)->count(), 42u);

  const Transaction call = owner.make_transaction(contract, 0, 100000, "increment", {});
  const Receipt rc = state.apply_transaction(call, 2, miner);
  EXPECT_TRUE(rc.success);
  EXPECT_EQ(rc.logs, std::vector<std::string>{"incremented"});
  EXPECT_EQ(state.contract_as<CounterContract>(contract)->count(), 43u);

  // Unknown method reverts; state (including attached value) is restored.
  const Transaction bad = owner.make_transaction(contract, 77, 100000, "nope", {});
  const Receipt rb = state.apply_transaction(bad, 3, miner);
  EXPECT_FALSE(rb.success);
  EXPECT_EQ(state.balance_of(contract), 1000u) << "attached value must be rolled back";
  EXPECT_GT(rb.gas_used, 0u) << "failed calls still consume gas";
}

TEST(State, ContractPayoutAndOutOfGas) {
  Rng rng(307);
  Wallet owner(rng);
  ChainState state;
  state.credit(owner.address(), 10'000'000);
  const Address miner;
  const Receipt dep = state.apply_transaction(
      owner.make_transaction(Address(), 5000, 200000, "counter", {}), 1, miner);
  const Address contract = dep.created_contract;

  Bytes amount;
  append_u64_be(amount, 3000);
  const Receipt pay = state.apply_transaction(
      owner.make_transaction(contract, 0, 100000, "payout", amount), 2, miner);
  EXPECT_TRUE(pay.success);
  EXPECT_EQ(state.balance_of(contract), 2000u);

  // Overdraft reverts.
  Bytes too_much;
  append_u64_be(too_much, 99999);
  const Receipt over = state.apply_transaction(
      owner.make_transaction(contract, 0, 100000, "payout", too_much), 3, miner);
  EXPECT_FALSE(over.success);
  EXPECT_EQ(state.balance_of(contract), 2000u);

  // Gas exhaustion fails the call but charges the full limit.
  const Receipt oog = state.apply_transaction(
      owner.make_transaction(contract, 0, 60000, "burn_gas", {}), 4, miner);
  EXPECT_FALSE(oog.success);
  EXPECT_EQ(oog.error, "out of gas");
  EXPECT_EQ(oog.gas_used, 60000u);
}

TEST(Blockchain, GenesisAndLinearGrowth) {
  Rng rng(308);
  Wallet alice(rng);
  const GenesisConfig genesis = make_genesis({alice.address()});
  Blockchain chain(genesis);
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_EQ(chain.state().balance_of(alice.address()), 50'000'000u);

  Block b1;
  b1.header.parent_hash = chain.head_hash();
  b1.header.number = 1;
  b1.header.difficulty = genesis.difficulty;
  b1.transactions.push_back(
      alice.make_transaction(Address::for_contract(alice.address(), 9), 123, 21000, "", {}));
  b1.header.tx_root = Block::compute_tx_root(b1.transactions);
  while (!proof_of_work_valid(b1.header)) ++b1.header.nonce;
  EXPECT_TRUE(chain.add_block(b1));
  EXPECT_EQ(chain.height(), 1u);
  EXPECT_FALSE(chain.add_block(b1)) << "duplicate rejected";
  EXPECT_TRUE(chain.find_receipt(b1.transactions[0].hash()).has_value());
  EXPECT_EQ(chain.confirmation_block(b1.transactions[0].hash()), 1u);

  // Unknown parent rejected.
  Block orphan = b1;
  orphan.header.parent_hash = Bytes(32, 0xee);
  orphan.header.number = 5;
  while (!proof_of_work_valid(orphan.header)) ++orphan.header.nonce;
  EXPECT_FALSE(chain.add_block(orphan));

  // A hash of the wrong length is never a key: lookups miss without
  // throwing, and a 31-byte parent hash names no parent.
  for (const std::size_t n : {31u, 33u}) {
    Bytes block_hash = b1.hash(), tx_hash = b1.transactions[0].hash();
    block_hash.resize(n);
    tx_hash.resize(n);
    EXPECT_FALSE(chain.knows(block_hash)) << n;
    EXPECT_EQ(chain.block_by_hash(block_hash), nullptr) << n;
    EXPECT_FALSE(chain.find_receipt(tx_hash).has_value()) << n;
    EXPECT_FALSE(chain.confirmation_block(tx_hash).has_value()) << n;
  }
  Block short_parent = b1;
  short_parent.header.parent_hash = b1.hash();
  short_parent.header.parent_hash.pop_back();
  short_parent.header.number = 2;
  while (!proof_of_work_valid(short_parent.header)) ++short_parent.header.nonce;
  EXPECT_FALSE(chain.add_block(short_parent));
  EXPECT_EQ(chain.height(), 1u);
}

TEST(Blockchain, ForkChoiceAdoptsLongerBranch) {
  Rng rng(309);
  Wallet alice(rng);
  const GenesisConfig genesis = make_genesis({alice.address()});
  Blockchain chain(genesis);

  const auto mine_on = [&](const Bytes& parent, std::uint64_t number, std::uint64_t stamp) {
    Block b;
    b.header.parent_hash = parent;
    b.header.number = number;
    b.header.difficulty = genesis.difficulty;
    b.header.timestamp = stamp;  // differentiates sibling blocks
    b.header.tx_root = Block::compute_tx_root({});
    while (!proof_of_work_valid(b.header)) ++b.header.nonce;
    return b;
  };

  const Block a1 = mine_on(chain.head_hash(), 1, 100);
  ASSERT_TRUE(chain.add_block(a1));
  EXPECT_EQ(chain.head_hash(), a1.hash());

  // A competing sibling does not displace the head (equal difficulty, tie
  // broken deterministically) ...
  const Block b1 = mine_on(a1.header.parent_hash, 1, 200);
  ASSERT_TRUE(chain.add_block(b1));
  // ... but a child of the sibling does (heavier branch).
  const Block b2 = mine_on(b1.hash(), 2, 300);
  ASSERT_TRUE(chain.add_block(b2));
  EXPECT_EQ(chain.head_hash(), b2.hash());
  EXPECT_EQ(chain.height(), 2u);
  EXPECT_EQ(chain.canonical_chain().size(), 3u);
}

TEST(Blockchain, DeepReorgMatchesFullReplay) {
  // Two long branches off genesis with different transaction histories;
  // switching onto each (both directions) must yield exactly the state a
  // fresh node replaying only that branch computes — even though the
  // checkpoint cache lets the reorg skip most of the replay.
  Rng rng(314);
  Wallet alice(rng), bob(rng), sink(rng);
  const GenesisConfig genesis = make_genesis({alice.address(), bob.address()});

  const auto mine = [&](const Bytes& parent, std::uint64_t number, std::uint64_t stamp,
                        std::vector<Transaction> txs) {
    Block b;
    b.header.parent_hash = parent;
    b.header.number = number;
    b.header.difficulty = genesis.difficulty;
    b.header.timestamp = stamp;
    b.transactions = std::move(txs);
    b.header.tx_root = Block::compute_tx_root(b.transactions);
    while (!proof_of_work_valid(b.header)) ++b.header.nonce;
    return b;
  };

  Blockchain chain(genesis);

  // Branch A: deploy a counter at height 1, then 31 increment blocks.
  std::vector<Block> branch_a;
  {
    Bytes parent = chain.head_hash();
    Block deploy_block = mine(
        parent, 1, 1000,
        {alice.make_transaction(Address(), 0, 200000, "counter", Bytes{7})});
    branch_a.push_back(deploy_block);
    parent = deploy_block.hash();
    const Address counter = Address::for_contract(alice.address(), 0);
    for (std::uint64_t n = 2; n <= 32; ++n) {
      Block b = mine(parent, n, 1000 + n,
                     {alice.make_transaction(counter, 0, 100000, "increment", {})});
      branch_a.push_back(b);
      parent = b.hash();
    }
  }
  // Branch B: 33 plain-transfer blocks (heavier than A).
  std::vector<Block> branch_b;
  {
    Bytes parent = chain.head_hash();
    for (std::uint64_t n = 1; n <= 33; ++n) {
      Block b = mine(parent, n, 2000 + n,
                     {bob.make_transaction(sink.address(), 10, 21000, "", {})});
      branch_b.push_back(b);
      parent = b.hash();
    }
  }

  for (const Block& b : branch_a) ASSERT_TRUE(chain.add_block(b));
  ASSERT_EQ(chain.head_hash(), branch_a.back().hash());
  EXPECT_GT(chain.checkpoint_count(), 0u) << "interval checkpoints must accumulate";

  // A -> B: the longer branch wins.
  for (const Block& b : branch_b) ASSERT_TRUE(chain.add_block(b));
  ASSERT_EQ(chain.head_hash(), branch_b.back().hash());
  {
    Blockchain replay(genesis);
    for (const Block& b : branch_b) ASSERT_TRUE(replay.add_block(b));
    ASSERT_EQ(replay.head_hash(), chain.head_hash());
    EXPECT_EQ(chain.state().snapshot_bytes(), replay.state().snapshot_bytes());
    EXPECT_EQ(chain.state().balance_of(sink.address()), 330u);
  }

  // B -> A: extend A past B and switch back.
  {
    Bytes parent = branch_a.back().hash();
    const Address counter = Address::for_contract(alice.address(), 0);
    for (std::uint64_t n = 33; n <= 35; ++n) {
      Block b = mine(parent, n, 3000 + n,
                     {alice.make_transaction(counter, 0, 100000, "increment", {})});
      branch_a.push_back(b);
      parent = b.hash();
    }
    ASSERT_TRUE(chain.add_block(branch_a[branch_a.size() - 3]));
    ASSERT_TRUE(chain.add_block(branch_a[branch_a.size() - 2]));
    ASSERT_TRUE(chain.add_block(branch_a.back()));
    ASSERT_EQ(chain.head_hash(), branch_a.back().hash());

    Blockchain replay(genesis);
    for (const Block& b : branch_a) ASSERT_TRUE(replay.add_block(b));
    ASSERT_EQ(replay.head_hash(), chain.head_hash());
    EXPECT_EQ(chain.state().snapshot_bytes(), replay.state().snapshot_bytes());
    const Address counter_addr = Address::for_contract(alice.address(), 0);
    ASSERT_NE(chain.state().contract_as<CounterContract>(counter_addr), nullptr);
    EXPECT_EQ(chain.state().contract_as<CounterContract>(counter_addr)->count(), 7u + 34u);
  }
}

TEST(Blockchain, InvalidBodyBlacklisted) {
  Rng rng(310);
  Wallet alice(rng);
  Wallet stranger(rng);  // no funds
  const GenesisConfig genesis = make_genesis({alice.address()});
  Blockchain chain(genesis);

  Block bad;
  bad.header.parent_hash = chain.head_hash();
  bad.header.number = 1;
  bad.header.difficulty = genesis.difficulty;
  bad.transactions.push_back(stranger.make_transaction(alice.address(), 1, 21000, "", {}));
  bad.header.tx_root = Block::compute_tx_root(bad.transactions);
  while (!proof_of_work_valid(bad.header)) ++bad.header.nonce;
  EXPECT_TRUE(chain.add_block(bad)) << "structurally valid, accepted into the store";
  EXPECT_EQ(chain.height(), 0u) << "but never adopted as head";
}

TEST(Network, MinersProduceBlocksAndConverge) {
  Rng rng(311);
  Wallet faucet(rng);
  const GenesisConfig genesis = make_genesis({faucet.address()});
  SimNetwork net({.base_latency_ms = 5, .jitter_ms = 3, .seed = 7});
  // The paper's test net: two miners + two full nodes.
  Wallet coinbase1(rng), coinbase2(rng);
  MinerNode miner1(net, genesis, coinbase1.address());
  MinerNode miner2(net, genesis, coinbase2.address());
  Node requester_node(net, genesis);
  Node worker_node(net, genesis);

  ASSERT_TRUE(net.run_until_height(5, 60'000));
  // Quiesce mining so gossip settles, then all four replicas must agree.
  miner1.set_enabled(false);
  miner2.set_enabled(false);
  net.run_for(500);
  EXPECT_EQ(requester_node.chain().head_hash(), worker_node.chain().head_hash());
  EXPECT_EQ(requester_node.chain().head_hash(), miner1.chain().head_hash());
  EXPECT_EQ(requester_node.chain().head_hash(), miner2.chain().head_hash());
  EXPECT_GE(miner1.blocks_mined() + miner2.blocks_mined(), 5u);
}

TEST(Network, TransactionsReachTheLedger) {
  Rng rng(312);
  Wallet alice(rng), bob(rng);
  const GenesisConfig genesis = make_genesis({alice.address()});
  SimNetwork net({.base_latency_ms = 5, .jitter_ms = 2, .seed = 8});
  Wallet coinbase(rng);
  MinerNode miner(net, genesis, coinbase.address());
  Node client(net, genesis);

  const Transaction tx = alice.make_transaction(bob.address(), 777, 21000, "", {});
  client.submit_transaction(tx);
  ASSERT_TRUE(net.run_until_height(3, 60'000));
  net.run_for(200);
  EXPECT_EQ(client.chain().state().balance_of(bob.address()), 777u);
  const auto receipt = client.chain().find_receipt(tx.hash());
  ASSERT_TRUE(receipt.has_value());
  EXPECT_TRUE(receipt->success);
}

TEST(Network, ReorderingAdversaryDelaysVictimTx) {
  // The §III adversary: reorder broadcast-but-unconfirmed transactions.
  Rng rng(313);
  Wallet victim(rng), attacker(rng), sink(rng);
  const GenesisConfig genesis = make_genesis({victim.address(), attacker.address()});
  SimNetwork net({.base_latency_ms = 5, .jitter_ms = 0, .seed = 9});
  Wallet coinbase(rng);
  MinerNode miner(net, genesis, coinbase.address());
  Node client(net, genesis);

  const Address victim_addr = victim.address();
  net.set_tx_delay_policy([victim_addr](const Transaction& tx) -> std::uint64_t {
    return tx.from == victim_addr ? 500 : 0;  // hold the victim's gossip back
  });

  const Transaction v = victim.make_transaction(sink.address(), 10, 21000, "", {});
  const Transaction a = attacker.make_transaction(sink.address(), 20, 21000, "", {});
  client.submit_transaction(v);
  client.submit_transaction(a);
  ASSERT_TRUE(net.run_until_height(2, 60'000));
  const auto vc = client.chain().confirmation_block(v.hash());
  const auto ac = client.chain().confirmation_block(a.hash());
  ASSERT_TRUE(ac.has_value());
  // The attacker's tx confirms strictly earlier than the victim's (which may
  // not even be in yet).
  if (vc.has_value()) {
    EXPECT_LT(*ac, *vc);
  }
}

}  // namespace
}  // namespace zl::chain
