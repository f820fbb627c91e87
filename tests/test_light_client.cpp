// Light-weight client tests (paper footnote 12): header-chain tracking with
// fork choice, SPV transaction-inclusion proofs served by full nodes, and
// rejection of forged or unconfirmed proofs.
#include <gtest/gtest.h>

#include "chain/light_client.h"
#include "chain/network.h"

namespace zl::chain {
namespace {

GenesisConfig make_genesis(const Address& funded) {
  GenesisConfig g;
  g.allocations = {{funded, 10'000'000}};
  g.difficulty = 4;
  return g;
}

Block mine(const GenesisConfig& genesis, const Bytes& parent, std::uint64_t number,
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

TEST(TxInclusionProof, RoundTripAllPositions) {
  Rng rng(1201);
  Wallet alice(rng);
  const GenesisConfig genesis = make_genesis(alice.address());
  // Blocks with 1, 2, 3 and 5 transactions cover the duplicate-last edge.
  for (const std::size_t count : {1u, 2u, 3u, 5u}) {
    std::vector<Transaction> txs;
    for (std::size_t i = 0; i < count; ++i) {
      txs.push_back(alice.make_transaction(Address::for_contract(alice.address(), i), 1 + i,
                                           21000, "", {}));
    }
    const Block block = mine(genesis, Bytes(32, 1), 1, count, txs);
    for (std::size_t i = 0; i < count; ++i) {
      const TxInclusionProof proof = make_tx_inclusion_proof(block, i);
      EXPECT_EQ(tx_root_from_proof(proof), block.header.tx_root)
          << count << " txs, index " << i;
      // Serialization round trip.
      const TxInclusionProof decoded = TxInclusionProof::from_bytes(proof.to_bytes());
      EXPECT_EQ(tx_root_from_proof(decoded), block.header.tx_root);
    }
  }
  const Block block = mine(genesis, Bytes(32, 1), 1, 9,
                           {alice.make_transaction(alice.address(), 1, 21000, "", {})});
  EXPECT_THROW(make_tx_inclusion_proof(block, 5), std::out_of_range);
}

TEST(LightClient, TracksHeadersAndForkChoice) {
  Rng rng(1202);
  Wallet alice(rng);
  const GenesisConfig genesis = make_genesis(alice.address());
  const Block g = genesis.build();
  LightClient light(g.hash(), genesis.difficulty);
  EXPECT_EQ(light.height(), 0u);

  const Block a1 = mine(genesis, g.hash(), 1, 1, {});
  const Block a2 = mine(genesis, a1.hash(), 2, 2, {});
  const Block b1 = mine(genesis, g.hash(), 1, 99, {});
  EXPECT_TRUE(light.add_header(a1.header));
  EXPECT_TRUE(light.add_header(a2.header));
  EXPECT_TRUE(light.add_header(b1.header));
  EXPECT_EQ(light.height(), 2u) << "heavier branch wins";
  EXPECT_EQ(light.head_hash(), a2.hash());
  EXPECT_EQ(light.confirmations(a1.hash()), 1u);
  EXPECT_EQ(light.confirmations(a2.hash()), 0u);
  EXPECT_FALSE(light.confirmations(b1.hash()).has_value()) << "sibling not canonical";
  EXPECT_FALSE(light.add_header(a1.header)) << "duplicates ignored";
}

TEST(LightClient, OrphanHeadersReconnect) {
  Rng rng(1203);
  Wallet alice(rng);
  const GenesisConfig genesis = make_genesis(alice.address());
  const Block g = genesis.build();
  LightClient light(g.hash(), genesis.difficulty);
  const Block a1 = mine(genesis, g.hash(), 1, 1, {});
  const Block a2 = mine(genesis, a1.hash(), 2, 2, {});
  EXPECT_FALSE(light.add_header(a2.header)) << "parent unknown yet";
  EXPECT_TRUE(light.add_header(a1.header));
  EXPECT_EQ(light.height(), 2u) << "parked child reconnects";
}

TEST(LightClient, OrphanPoolDedupesAndIsCapped) {
  Rng rng(1206);
  Wallet alice(rng);
  const GenesisConfig genesis = make_genesis(alice.address());
  const Block g = genesis.build();
  LightClient light(g.hash(), genesis.difficulty);

  // One PoW-valid orphan re-delivered 1000 times parks once.
  const Block orphan = mine(genesis, Bytes(32, 0xee), 5, 1, {});
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(light.add_header(orphan.header));
  EXPECT_EQ(light.parked_headers(), 1u);

  // 72 distinct orphans: the pool keeps the newest kBodyPruneDepth.
  for (std::uint64_t i = 0; i < 72; ++i) {
    const Block b = mine(genesis, Bytes(32, static_cast<std::uint8_t>(i)), 5, 100 + i, {});
    EXPECT_FALSE(light.add_header(b.header));
    EXPECT_LE(light.parked_headers(), Node::kBodyPruneDepth);
  }
  EXPECT_EQ(light.parked_headers(), Node::kBodyPruneDepth);
  EXPECT_EQ(light.height(), 0u);
}

TEST(LightClient, RejectsBadPow) {
  Rng rng(1204);
  Wallet alice(rng);
  const GenesisConfig genesis = make_genesis(alice.address());
  const Block g = genesis.build();
  LightClient light(g.hash(), genesis.difficulty);
  Block a1 = mine(genesis, g.hash(), 1, 1, {});
  a1.header.nonce += 1;  // almost surely breaks the PoW at difficulty 4... retry until it does
  while (proof_of_work_valid(a1.header)) ++a1.header.nonce;
  EXPECT_FALSE(light.add_header(a1.header));
  EXPECT_EQ(light.height(), 0u);
}

TEST(LightClient, SpvAgainstAFullNode) {
  // A light client follows headers gossiped on a live mining network and
  // SPV-verifies a payment using a proof served by a full node.
  Rng rng(1205);
  Wallet alice(rng), bob(rng), coinbase(rng);
  GenesisConfig genesis = make_genesis(alice.address());
  genesis.difficulty = 2048;
  SimNetwork net({.base_latency_ms = 5, .jitter_ms = 2, .seed = 5});
  MinerNode miner(net, genesis, coinbase.address());
  Node full_node(net, genesis);

  const Transaction payment = alice.make_transaction(bob.address(), 4321, 21000, "", {});
  full_node.submit_transaction(payment);
  ASSERT_TRUE(net.run_until_height(4, 120'000));

  // The light client ingests the canonical headers from the full node.
  LightClient light(genesis.build().hash(), genesis.difficulty);
  for (const Bytes& hash : full_node.chain().canonical_chain()) {
    const Block* block = full_node.chain().block_by_hash(hash);
    ASSERT_NE(block, nullptr);
    if (block->header.number > 0) { EXPECT_TRUE(light.add_header(block->header)); }
  }
  EXPECT_EQ(light.head_hash(), full_node.chain().head_hash());

  // Full node serves the inclusion proof; light client verifies it.
  const auto included_at = full_node.chain().confirmation_block(payment.hash());
  ASSERT_TRUE(included_at.has_value());
  const Bytes block_hash = full_node.chain().canonical_chain()[*included_at];
  const Block* block = full_node.chain().block_by_hash(block_hash);
  std::size_t index = block->transactions.size();
  for (std::size_t i = 0; i < block->transactions.size(); ++i) {
    if (block->transactions[i].hash() == payment.hash()) index = i;
  }
  ASSERT_LT(index, block->transactions.size());
  const TxInclusionProof proof = make_tx_inclusion_proof(*block, index);
  EXPECT_TRUE(light.verify_inclusion(proof));

  // Forged proofs fail: wrong tx hash, wrong block, excessive confirmation
  // demands.
  TxInclusionProof forged = proof;
  forged.tx_hash = keccak256(to_bytes("not the payment"));
  EXPECT_FALSE(light.verify_inclusion(forged));
  forged = proof;
  forged.block_hash = Bytes(32, 0xcd);
  EXPECT_FALSE(light.verify_inclusion(forged));
  EXPECT_FALSE(light.verify_inclusion(proof, /*min_confirmations=*/10'000));
  // A block hash of the wrong length is unknown, not an error.
  for (const std::size_t n : {31u, 33u}) {
    forged = proof;
    forged.block_hash.resize(n);
    EXPECT_FALSE(light.knows(forged.block_hash)) << n;
    EXPECT_FALSE(light.verify_inclusion(forged)) << n;
  }
}

}  // namespace
}  // namespace zl::chain
