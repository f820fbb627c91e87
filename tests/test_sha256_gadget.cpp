// SHA-256 circuit gadget tests: every word-level operation and the full
// digest are checked bit-for-bit against the native FIPS 180-4
// implementation, plus tamper-unsatisfiability.
#include <gtest/gtest.h>

#include "snark/gadgets/sha256_gadget.h"

namespace zl::snark {
namespace {

bool satisfied(const CircuitBuilder& b) {
  return b.constraint_system().is_satisfied(b.assignment());
}

std::uint32_t rotr32(std::uint32_t x, unsigned n) { return (x >> n) | (x << (32 - n)); }

TEST(Sha256Gadget, WordRoundTrip) {
  CircuitBuilder b;
  for (const std::uint32_t v : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(word_value(word_constant(v)), v);
    const WordWires w = word_witness(b, v);
    EXPECT_EQ(word_value(w), v);
    EXPECT_EQ(word_to_wire(w).value, Fr::from_u64(v));
  }
  EXPECT_TRUE(satisfied(b));
}

TEST(Sha256Gadget, BitwiseOpsMatchNative) {
  Rng rng(701);
  CircuitBuilder b;
  for (int trial = 0; trial < 5; ++trial) {
    const std::uint32_t x = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint32_t y = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint32_t z = static_cast<std::uint32_t>(rng.next_u64());
    const WordWires wx = word_witness(b, x), wy = word_witness(b, y), wz = word_witness(b, z);
    EXPECT_EQ(word_value(word_xor(b, wx, wy)), x ^ y);
    EXPECT_EQ(word_value(word_rotr(wx, 7)), rotr32(x, 7));
    EXPECT_EQ(word_value(word_shr(wx, 3)), x >> 3);
    EXPECT_EQ(word_value(word_ch(b, wx, wy, wz)), (x & y) ^ (~x & z));
    EXPECT_EQ(word_value(word_maj(b, wx, wy, wz)), (x & y) ^ (x & z) ^ (y & z));
  }
  EXPECT_TRUE(satisfied(b));
}

TEST(Sha256Gadget, ModularAddition) {
  Rng rng(702);
  CircuitBuilder b;
  for (const std::size_t k : {1u, 2u, 5u, 8u}) {
    std::vector<WordWires> terms;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t v = static_cast<std::uint32_t>(rng.next_u64());
      terms.push_back(word_witness(b, v));
      sum += v;
    }
    EXPECT_EQ(word_value(word_add(b, terms)), static_cast<std::uint32_t>(sum));
  }
  EXPECT_TRUE(satisfied(b));
  EXPECT_THROW(word_add(b, {}), std::invalid_argument);
}

TEST(Sha256Gadget, DigestMatchesNative) {
  Rng rng(703);
  for (const std::size_t words : {1u, 8u, 13u}) {
    // Build the byte message matching the words (big-endian per FIPS).
    std::vector<std::uint32_t> msg;
    Bytes msg_bytes;
    for (std::size_t i = 0; i < words; ++i) {
      const std::uint32_t v = static_cast<std::uint32_t>(rng.next_u64());
      msg.push_back(v);
      append_u32_be(msg_bytes, v);
    }
    const Bytes native = Sha256::hash(msg_bytes);

    CircuitBuilder b;
    std::vector<WordWires> wires;
    for (const std::uint32_t v : msg) wires.push_back(word_witness(b, v));
    const std::array<WordWires, 8> digest = sha256_digest_gadget(b, wires);
    ASSERT_TRUE(satisfied(b)) << words << " words";
    ByteReader native_words(native, "sha256 digest");
    for (unsigned i = 0; i < 8; ++i) {
      EXPECT_EQ(word_value(digest[i]), native_words.u32()) << "word " << i;
    }
  }
}

TEST(Sha256Gadget, ConstraintCountIsSha256Scale) {
  CircuitBuilder b;
  std::vector<WordWires> wires = {word_witness(b, 42), word_witness(b, 43)};
  sha256_digest_gadget(b, wires);
  // One compression is ~25-30k constraints — the reason the paper's Fig. 4
  // proving time is ~70s and ours (MiMC) is ~2s.
  EXPECT_GT(b.num_constraints(), 20000u);
  EXPECT_LT(b.num_constraints(), 40000u);
}

TEST(Sha256Gadget, TamperedDigestUnsatisfiable) {
  CircuitBuilder b;
  std::vector<WordWires> wires = {word_witness(b, 0xabcdef01u)};
  const std::array<WordWires, 8> digest = sha256_digest_gadget(b, wires);
  // Constrain the first digest word to a wrong constant.
  const std::uint32_t truth = word_value(digest[0]);
  b.enforce_equal(word_to_wire(digest[0]), Wire::constant(Fr::from_u64(truth ^ 1)));
  EXPECT_FALSE(satisfied(b));
}

TEST(Sha256Gadget, RejectsOversizeMessages) {
  CircuitBuilder b;
  std::vector<WordWires> wires(14, word_constant(0));
  EXPECT_THROW(sha256_digest_gadget(b, wires), std::invalid_argument);
}

}  // namespace
}  // namespace zl::snark
