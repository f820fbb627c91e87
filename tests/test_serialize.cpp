// Wire-format coverage: the curve/point serializers (ec/serialize.h), the
// fixed-base table used by the trusted setup, the zl::ByteReader cursor that
// every untrusted decoder routes through, and an adversarial sweep — every
// strict prefix and a trailing-garbage mutant of every wire type in the tree
// must be rejected with a decode error, and the canonical bytes must survive
// a decode/re-encode round trip bit-for-bit.
#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "auth/classic_auth.h"
#include "auth/cpl_auth.h"
#include "chain/blockchain.h"
#include "chain/light_client.h"
#include "chain/state.h"
#include "chain/tx.h"
#include "ec/ecdsa.h"
#include "crypto/rsa.h"
#include "ec/serialize.h"
#include "snark/groth16.h"
#include "store/fault_vfs.h"
#include "zebralancer/encryption.h"
#include "zebralancer/task_contract.h"

namespace zl {
namespace {

TEST(Serialize, G1RoundTripAndRejection) {
  Rng rng(1001);
  for (int i = 0; i < 10; ++i) {
    const G1 p = G1::generator() * (1 + rng.uniform(1 << 20));
    const Bytes enc = g1_to_bytes(p);
    EXPECT_EQ(enc.size(), 65u);
    EXPECT_EQ(g1_from_bytes(enc), p);
  }
  EXPECT_EQ(g1_from_bytes(g1_to_bytes(G1::infinity())), G1::infinity());
  // Off-curve point rejected.
  Bytes bad = g1_to_bytes(G1::generator());
  bad[64] ^= 1;
  EXPECT_THROW(g1_from_bytes(bad), std::invalid_argument);
  EXPECT_THROW(g1_from_bytes(Bytes(64)), std::invalid_argument);
  // Non-canonical field encoding rejected.
  Bytes big = g1_to_bytes(G1::generator());
  for (int i = 1; i <= 32; ++i) big[static_cast<std::size_t>(i)] = 0xff;
  EXPECT_THROW(g1_from_bytes(big), std::invalid_argument);
}

TEST(Serialize, G1NonCanonicalInfinityRejected) {
  // The infinity flag with non-zero coordinate bytes is a second encoding of
  // the same point — exactly the malleability expect_end()-style canonical
  // checks exist to kill.
  Bytes inf = g1_to_bytes(G1::infinity());
  ASSERT_EQ(inf.size(), 65u);
  Bytes dirty = inf;
  dirty[10] = 0x01;
  EXPECT_THROW(g1_from_bytes(dirty), std::invalid_argument);
}

TEST(Serialize, G2RoundTripAndRejection) {
  Rng rng(1002);
  for (int i = 0; i < 5; ++i) {
    const G2 p = G2::generator() * (1 + rng.uniform(1 << 20));
    const Bytes enc = g2_to_bytes(p);
    EXPECT_EQ(enc.size(), 129u);
    EXPECT_EQ(g2_from_bytes(enc), p);
  }
  EXPECT_EQ(g2_from_bytes(g2_to_bytes(G2::infinity())), G2::infinity());
  Bytes bad = g2_to_bytes(G2::generator());
  bad[100] ^= 1;
  EXPECT_THROW(g2_from_bytes(bad), std::invalid_argument);
  EXPECT_THROW(g2_from_bytes(Bytes(12)), std::invalid_argument);
}

TEST(Serialize, G2NonCanonicalInfinityRejected) {
  Bytes dirty = g2_to_bytes(G2::infinity());
  dirty[77] = 0x01;
  EXPECT_THROW(g2_from_bytes(dirty), std::invalid_argument);
}

TEST(Serialize, Fq2RoundTrip) {
  Rng rng(1003);
  const Fq2 v = Fq2::random(rng);
  EXPECT_EQ(fq2_from_bytes(fq2_to_bytes(v)), v);
  EXPECT_THROW(fq2_from_bytes(Bytes(63)), std::invalid_argument);
}

TEST(Serialize, FixedBaseTableMatchesPlainScalarMul) {
  Rng rng(1004);
  const FixedBaseTable<G1> table(G1::generator());
  for (int i = 0; i < 10; ++i) {
    const Fr s = Fr::random(rng);
    EXPECT_EQ(table.mul(s), G1::generator() * s.to_bigint());
  }
  EXPECT_EQ(table.mul(Fr::zero()), G1::infinity());
  EXPECT_EQ(table.mul(Fr::one()), G1::generator());
  EXPECT_EQ(table.mul(Fr::from_bigint(Fr::modulus_bigint() - 1)),
            G1::generator() * (Fr::modulus_bigint() - 1));

  const FixedBaseTable<G2> g2_table(G2::generator());
  const Fr s = Fr::random(rng);
  EXPECT_EQ(g2_table.mul(s), G2::generator() * s.to_bigint());
}

// --- ByteReader: the decoding chokepoint ------------------------------------

TEST(ByteReader, ReadsAndExpectEnd) {
  Bytes in;
  in.push_back(0x7F);
  append_u32_be(in, 0xDEADBEEF);
  append_u64_be(in, 0x0102030405060708ull);
  in.insert(in.end(), {0xAA, 0xBB, 0xCC});
  append_frame(in, Bytes{0x01, 0x02});
  append_u32_be(in, 3);  // a count

  ByteReader r(in, "unit");
  EXPECT_EQ(r.u8(), 0x7F);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ull);
  EXPECT_EQ(r.take(3), (Bytes{0xAA, 0xBB, 0xCC}));
  EXPECT_EQ(r.frame(16), (Bytes{0x01, 0x02}));
  EXPECT_EQ(r.count(10), 3u);
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(ByteReader, TrailingBytesRejected) {
  const Bytes in{0x01, 0x02};
  ByteReader r(in, "unit");
  r.u8();
  EXPECT_FALSE(r.at_end());
  EXPECT_THROW(r.expect_end(), DecodeError);
}

TEST(ByteReader, OverflowOffsetsCannotWrap) {
  // take()/skip() with n near SIZE_MAX must throw rather than let off + n
  // wrap around — the bug shape the unchecked-length lint rule bans in
  // hand-rolled decoders.
  const Bytes in{0x01, 0x02, 0x03, 0x04};
  ByteReader r(in, "unit");
  r.u8();  // off = 1, so a wrapping `off + n` would pass a naive bound check
  EXPECT_THROW(r.take(std::numeric_limits<std::size_t>::max()), DecodeError);
  EXPECT_THROW(r.skip(std::numeric_limits<std::size_t>::max()), DecodeError);
  EXPECT_THROW(r.skip(std::numeric_limits<std::size_t>::max() - 1), DecodeError);
  // The failed reads must not have moved the cursor past the end.
  EXPECT_EQ(r.offset(), 1u);
  EXPECT_EQ(r.take(3), (Bytes{0x02, 0x03, 0x04}));
}

TEST(ByteReader, FrameCapRejectsBeforeAllocating) {
  // A length prefix of 0xFFFFFFFF over a tiny input: frame(cap) must reject
  // on the cap (or the missing payload), never attempt the 4 GiB copy.
  Bytes in;
  append_u32_be(in, 0xFFFFFFFFu);
  ByteReader r(in, "unit");
  EXPECT_THROW(r.frame(1u << 20), DecodeError);

  // A length over the cap with the payload actually present is still an
  // error: the cap is the call site's protocol bound, not a hint.
  Bytes fat;
  append_frame(fat, Bytes(64, 0x5A));
  ByteReader r2(fat, "unit");
  EXPECT_THROW(r2.frame(63), DecodeError);
  ByteReader r3(fat, "unit");
  EXPECT_EQ(r3.frame(64).size(), 64u);
}

TEST(ByteReader, CountCapRejectsForgedCounts) {
  Bytes in;
  append_u32_be(in, 1000);
  ByteReader r(in, "unit");
  EXPECT_THROW(r.count(999), DecodeError);
  ByteReader r2(in, "unit");
  EXPECT_EQ(r2.count(1000), 1000u);
}

TEST(ByteReader, DecodeErrorIsInvalidArgument) {
  // Every catch site around gossip decode / contract restore / WAL replay
  // catches std::invalid_argument; DecodeError must stay inside that net.
  const Bytes in;
  ByteReader r(in, "unit");
  EXPECT_THROW(r.u8(), std::invalid_argument);
}

// --- Adversarial sweep over every wire type ---------------------------------
//
// `reencode` decodes its argument and re-encodes the result. The contract for
// every decoder of untrusted bytes:
//   * every strict prefix of a valid encoding is rejected (truncation can
//     never produce a different valid value),
//   * a valid encoding plus trailing garbage is rejected (one value, one
//     encoding — anything else is consensus-splitting malleability),
//   * the valid encoding round-trips byte-identically.
using Reencode = std::function<Bytes(const Bytes&)>;

void expect_adversarial_rejection(const char* what, const Bytes& valid,
                                  const Reencode& reencode) {
  SCOPED_TRACE(what);
  ASSERT_FALSE(valid.empty());
  for (std::size_t n = 0; n < valid.size(); ++n) {
    SCOPED_TRACE("prefix length " + std::to_string(n));
    const Bytes prefix(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW(reencode(prefix), std::invalid_argument);
  }
  Bytes trail = valid;
  trail.push_back(0x00);
  EXPECT_THROW(reencode(trail), std::invalid_argument) << "trailing garbage accepted";
  EXPECT_EQ(reencode(valid), valid) << "decode/encode round trip not canonical";
}

template <typename T>
Reencode reencode_of() {
  return [](const Bytes& b) { return T::from_bytes(b).to_bytes(); };
}

chain::Transaction sample_tx(std::uint64_t nonce) {
  chain::Transaction tx;
  tx.from = chain::Address::from_bytes(Bytes(20, 0x11));
  tx.to = chain::Address::from_bytes(Bytes(20, 0x22));
  tx.value = 1000 + nonce;
  tx.nonce = nonce;
  tx.gas_limit = 50000;
  tx.method = "submit";
  tx.payload = Bytes{0x01, 0x02, 0x03, 0x04};
  tx.pubkey = Bytes(65, 0x04);
  tx.signature = Bytes(64, 0x5A);
  return tx;
}

chain::Block sample_block() {
  chain::Block block;
  block.header.parent_hash = Bytes(32, 0x33);
  block.header.number = 42;
  block.transactions = {sample_tx(1), sample_tx(2)};
  block.header.tx_root = chain::Block::compute_tx_root(block.transactions);
  block.header.timestamp = 123456;
  block.header.difficulty = 4;
  block.header.nonce = 99;
  block.header.miner = chain::Address::from_bytes(Bytes(20, 0x44));
  return block;
}

TEST(WireFormats, TransactionAdversarial) {
  expect_adversarial_rejection("Transaction", sample_tx(7).to_bytes(),
                               reencode_of<chain::Transaction>());
}

TEST(WireFormats, BlockAdversarial) {
  expect_adversarial_rejection(
      "Block", chain::block_to_bytes(sample_block()),
      [](const Bytes& b) { return chain::block_to_bytes(chain::block_from_bytes(b)); });
}

TEST(WireFormats, ReceiptAdversarial) {
  chain::Receipt receipt;
  receipt.success = true;
  receipt.gas_used = 21000;
  receipt.error = "out of gas";
  receipt.created_contract = chain::Address::from_bytes(Bytes(20, 0x55));
  receipt.logs = {"transfer(a,b)", "reward(c)"};
  expect_adversarial_rejection("Receipt", receipt.to_bytes(),
                               reencode_of<chain::Receipt>());
}

TEST(WireFormats, TxInclusionProofAdversarial) {
  const chain::Block block = sample_block();
  const chain::TxInclusionProof proof = chain::make_tx_inclusion_proof(block, 1);
  expect_adversarial_rejection("TxInclusionProof", proof.to_bytes(),
                               reencode_of<chain::TxInclusionProof>());
}

TEST(WireFormats, ProofAndVerifyingKeyAdversarial) {
  snark::Proof proof;
  proof.a = G1::generator();
  proof.b = G2::generator();
  proof.c = G1::generator().dbl();
  expect_adversarial_rejection("Proof", proof.to_bytes(), reencode_of<snark::Proof>());

  snark::VerifyingKey vk;
  vk.alpha_g1 = G1::generator();
  vk.beta_g2 = G2::generator();
  vk.gamma_g2 = G2::generator().dbl();
  vk.delta_g2 = G2::generator();
  vk.ic = {G1::generator(), G1::generator().dbl()};
  expect_adversarial_rejection("VerifyingKey", vk.to_bytes(),
                               reencode_of<snark::VerifyingKey>());
}

TEST(WireFormats, AttestationAdversarial) {
  Rng rng(1005);
  auth::Attestation att;
  att.t1 = Fr::random(rng);
  att.t2 = Fr::random(rng);
  att.proof.a = G1::generator();
  att.proof.b = G2::generator();
  att.proof.c = G1::generator().dbl();
  expect_adversarial_rejection("Attestation", att.to_bytes(),
                               reencode_of<auth::Attestation>());
}

TEST(WireFormats, ClassicAuthAdversarial) {
  auth::ClassicCertificate cert;
  cert.ra_signature = Bytes(256, 0x5C);
  expect_adversarial_rejection("ClassicCertificate", cert.to_bytes(),
                               reencode_of<auth::ClassicCertificate>());

  auth::ClassicAttestation att;
  att.public_key = Bytes(260, 0x01);
  att.certificate = Bytes(256, 0x02);
  att.signature = Bytes(256, 0x03);
  expect_adversarial_rejection("ClassicAttestation", att.to_bytes(),
                               reencode_of<auth::ClassicAttestation>());
}

TEST(WireFormats, RsaPublicKeyAdversarial) {
  RsaPublicKey pk;
  pk.n = bigint_from_bytes(Bytes(256, 0x77));  // a 2048-bit modulus stand-in
  pk.e = 65537;
  expect_adversarial_rejection("RsaPublicKey", pk.to_bytes(),
                               reencode_of<RsaPublicKey>());
}

TEST(WireFormats, EcdsaSignatureAdversarial) {
  EcdsaSignature sig;
  sig.r = bigint_from_bytes(Bytes(31, 0x21));
  sig.s = bigint_from_bytes(Bytes(31, 0x43));
  expect_adversarial_rejection("EcdsaSignature", sig.to_bytes(),
                               reencode_of<EcdsaSignature>());
}

TEST(WireFormats, AnswerCiphertextAdversarial) {
  Rng rng(1006);
  const zebralancer::TaskEncKeyPair kp = zebralancer::TaskEncKeyPair::generate(rng);
  const zebralancer::AnswerCiphertext ct =
      zebralancer::encrypt_answer(kp.epk, Fr::from_bigint(12345), rng);
  expect_adversarial_rejection("AnswerCiphertext", ct.to_bytes(),
                               reencode_of<zebralancer::AnswerCiphertext>());
}

zebralancer::TaskParams sample_task_params() {
  zebralancer::TaskParams p;
  p.auth_mode = zebralancer::AuthMode::kAnonymous;
  p.requester_address = chain::Address::from_bytes(Bytes(20, 0x66));
  p.requester_attestation = Bytes(48, 0x01);
  p.registry_root = Fr::from_bigint(777);
  p.budget = 5000;
  p.epk = Bytes(64, 0x02);
  p.num_answers = 3;
  p.answer_deadline_blocks = 10;
  p.instruct_deadline_blocks = 20;
  p.policy_name = "top-k";
  p.task_data_digest = Bytes(32, 0x03);
  p.reputation_registry = chain::Address::from_bytes(Bytes(20, 0x00));
  p.auth_vk = Bytes(128, 0x04);
  p.reward_vk = Bytes(128, 0x05);
  return p;
}

TEST(WireFormats, TaskParamsAdversarial) {
  expect_adversarial_rejection("TaskParams", sample_task_params().to_bytes(),
                               reencode_of<zebralancer::TaskParams>());
}

TEST(WireFormats, ChainStateSnapshotAdversarial) {
  chain::ChainState state;
  state.credit(chain::Address::from_bytes(Bytes(20, 0x11)), 1000);
  state.credit(chain::Address::from_bytes(Bytes(20, 0x22)), 2000);
  const auto snap = state.snapshot_bytes();
  ASSERT_TRUE(snap.has_value());
  expect_adversarial_rejection("ChainState snapshot", *snap, [](const Bytes& b) {
    const auto restored = chain::ChainState::from_snapshot(b).snapshot_bytes();
    if (!restored) throw std::invalid_argument("snapshot: restored state not snapshottable");
    return *restored;
  });
}

// --- Regressions for specific hardened sites --------------------------------

TEST(WireFormats, ReceiptForgedLogCountRejectedWithoutAllocating) {
  // The log count used to feed reserve() before any bounds check, so four
  // 0xFF bytes in a corrupt checkpoint demanded a ~128 GiB reserve up front.
  // With no logs the count is the final field of the encoding.
  chain::Receipt receipt;
  receipt.gas_used = 1;
  Bytes bytes = receipt.to_bytes();
  ASSERT_GE(bytes.size(), 4u);
  for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i) bytes[i] = 0xFF;
  EXPECT_THROW(chain::Receipt::from_bytes(bytes), std::invalid_argument);
}

TEST(WireFormats, TaskParamsForgedAnswerCountRejected) {
  // num_answers sizes the padded-ciphertext vector; a forged params blob
  // claiming 2^20 answers must die at decode (count cap), not at reserve.
  zebralancer::TaskParams p = sample_task_params();
  p.num_answers = 1u << 20;
  const Bytes bytes = p.to_bytes();
  EXPECT_THROW(zebralancer::TaskParams::from_bytes(bytes), std::invalid_argument);
}

TEST(WireFormats, FaultVfsWriteOffsetOverflowIsNoSpace) {
  // Regression for the wraparound the unchecked-length audit found: a write
  // whose offset + size overflows u64 used to wrap past the bound checks and
  // index the image with a tiny end offset. It must refuse loudly instead.
  store::FaultVfs vfs;
  auto f = vfs.open("f", true);
  const std::uint8_t data[8] = {0};
  EXPECT_THROW(f->write(std::numeric_limits<std::uint64_t>::max() - 2, data, 8),
               store::NoSpace);
  // A sane write on the same handle still works afterwards.
  f->write(0, data, 8);
  EXPECT_EQ(f->size(), 8u);
}

}  // namespace
}  // namespace zl
