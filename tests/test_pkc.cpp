// Public-key crypto tests: RSA-OAEP / RSA signatures (paper §VI
// instantiation) and secp256k1 ECDSA (blockchain transaction signatures).
#include <gtest/gtest.h>

#include "crypto/rsa.h"
#include "ec/ecdsa.h"
#include "ec/glv.h"
#include "oracle/ecdsa_oracle.h"

namespace zl {
namespace {

// 1024-bit keys keep unit tests fast; the 2048-bit path is exercised by the
// ablation bench (bench_ablation) and one smoke test below.
RsaKeyPair test_key() {
  static const RsaKeyPair key = [] {
    Rng rng(101);
    return RsaKeyPair::generate(rng, 1024);
  }();
  return key;
}

TEST(Rsa, KeyGenerationShape) {
  const RsaKeyPair key = test_key();
  EXPECT_EQ(mpz_sizeinbase(key.pub.n.get_mpz_t(), 2), 1024u);
  EXPECT_EQ(key.pub.e, 65537);
  EXPECT_EQ(key.pub.modulus_bytes(), 128u);
}

TEST(Rsa, OaepRoundTrip) {
  Rng rng(102);
  const RsaKeyPair key = test_key();
  for (const std::size_t len : {0u, 1u, 30u, 62u}) {  // capacity = 128-66 = 62
    const Bytes msg = rng.bytes(len);
    const Bytes ct = rsa_oaep_encrypt(key.pub, msg, rng);
    EXPECT_EQ(ct.size(), 128u);
    EXPECT_EQ(rsa_oaep_decrypt(key, ct), msg);
  }
}

TEST(Rsa, OaepIsRandomized) {
  Rng rng(103);
  const RsaKeyPair key = test_key();
  const Bytes msg = to_bytes("same message");
  EXPECT_NE(rsa_oaep_encrypt(key.pub, msg, rng), rsa_oaep_encrypt(key.pub, msg, rng));
}

TEST(Rsa, OaepRejectsOversizeAndTampering) {
  Rng rng(104);
  const RsaKeyPair key = test_key();
  EXPECT_THROW(rsa_oaep_encrypt(key.pub, rng.bytes(63), rng), std::invalid_argument);
  Bytes ct = rsa_oaep_encrypt(key.pub, to_bytes("secret"), rng);
  ct[40] ^= 1;
  EXPECT_THROW(rsa_oaep_decrypt(key, ct), std::invalid_argument);
  EXPECT_THROW(rsa_oaep_decrypt(key, Bytes(5, 0x01)), std::invalid_argument);
}

TEST(Rsa, SignVerify) {
  Rng rng(105);
  const RsaKeyPair key = test_key();
  const Bytes msg = to_bytes("certificate binding pk_i to W_i");
  const Bytes sig = rsa_sign(key, msg);
  EXPECT_TRUE(rsa_verify(key.pub, msg, sig));
  EXPECT_FALSE(rsa_verify(key.pub, to_bytes("another message"), sig));
  Bytes bad = sig;
  bad[0] ^= 1;
  EXPECT_FALSE(rsa_verify(key.pub, msg, bad));
  EXPECT_FALSE(rsa_verify(key.pub, msg, Bytes(10, 0)));
  // Signature from a different key fails.
  Rng rng2(106);
  const RsaKeyPair other = RsaKeyPair::generate(rng2, 1024);
  EXPECT_FALSE(rsa_verify(other.pub, msg, sig));
}

TEST(Rsa, PublicKeySerialization) {
  const RsaKeyPair key = test_key();
  const Bytes enc = key.pub.to_bytes();
  EXPECT_EQ(RsaPublicKey::from_bytes(enc), key.pub);
  Bytes trailing = enc;
  trailing.push_back(0);
  EXPECT_THROW(RsaPublicKey::from_bytes(trailing), std::invalid_argument);
}

TEST(Rsa, FullSize2048Smoke) {
  Rng rng(107);
  const RsaKeyPair key = RsaKeyPair::generate(rng, 2048);
  EXPECT_EQ(key.pub.modulus_bytes(), 256u);
  const Bytes msg = rng.bytes(190);  // exactly the OAEP capacity at 2048 bits
  EXPECT_EQ(rsa_oaep_decrypt(key, rsa_oaep_encrypt(key.pub, msg, rng)), msg);
  EXPECT_TRUE(rsa_verify(key.pub, msg, rsa_sign(key, msg)));
}

TEST(Ecdsa, SignVerify) {
  Rng rng(111);
  const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
  const Bytes msg = to_bytes("transaction payload");
  const EcdsaSignature sig = key.sign(msg, rng);
  EXPECT_TRUE(ecdsa_verify(key.public_key_bytes(), msg, sig));
  EXPECT_FALSE(ecdsa_verify(key.public_key_bytes(), to_bytes("forged"), sig));
}

TEST(Ecdsa, RejectsTamperedSignatures) {
  Rng rng(112);
  const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
  const Bytes msg = to_bytes("msg");
  EcdsaSignature sig = key.sign(msg, rng);
  sig.r += 1;
  EXPECT_FALSE(ecdsa_verify(key.public_key_bytes(), msg, sig));
  sig = key.sign(msg, rng);
  sig.s = SecpPoint::order();  // out of range
  EXPECT_FALSE(ecdsa_verify(key.public_key_bytes(), msg, sig));
  sig = key.sign(msg, rng);
  Bytes bad_key = key.public_key_bytes();
  bad_key[10] ^= 1;
  EXPECT_FALSE(ecdsa_verify(bad_key, msg, sig));
}

TEST(Ecdsa, SignaturesFromOtherKeysRejected) {
  Rng rng(113);
  const EcdsaKeyPair a = EcdsaKeyPair::generate(rng);
  const EcdsaKeyPair b = EcdsaKeyPair::generate(rng);
  const Bytes msg = to_bytes("msg");
  EXPECT_FALSE(ecdsa_verify(b.public_key_bytes(), msg, a.sign(msg, rng)));
}

TEST(Ecdsa, SerializationRoundTrip) {
  Rng rng(114);
  const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
  const EcdsaSignature sig = key.sign(to_bytes("m"), rng);
  const EcdsaSignature decoded = EcdsaSignature::from_bytes(sig.to_bytes());
  EXPECT_EQ(decoded.r, sig.r);
  EXPECT_EQ(decoded.s, sig.s);
  EXPECT_TRUE(ecdsa_verify(key.public_key_bytes(), to_bytes("m"), decoded));
}

TEST(Ecdsa, AddressDerivation) {
  Rng rng(115);
  const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
  const Bytes addr = key.address();
  EXPECT_EQ(addr.size(), 20u);
  EXPECT_EQ(addr, ecdsa_address(key.public_key_bytes()));
  // Distinct keys get distinct addresses (one-task-only address freshness).
  const EcdsaKeyPair other = EcdsaKeyPair::generate(rng);
  EXPECT_NE(other.address(), addr);
}

// Signing is untouched by the verification engine: the key and signature
// bytes at a fixed seed were recorded at the commit before it landed.
TEST(Ecdsa, SignBytesGolden) {
  Rng rng(20261017);
  const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
  EXPECT_EQ(to_hex(key.public_key_bytes()),
            "04d4420fdf874d37a483985d5427b760d1ef3d918e96b8fbcb25a251b347e6403cdafe8a5c968a6907e16"
            "b9114d44a94e716a340a4978746526db7fce39c4cd65b");
  EXPECT_EQ(to_hex(key.sign(to_bytes("zebralancer"), rng).to_bytes()),
            "485f7c79bc8661ad351394ef7bceb81e09e8bdbeda7b84292c32b86a49a9408986fa636225e7b7022a5c2"
            "4e8e934c426aa6dad8933820fdc6bf550d69687a9fa");
  EXPECT_EQ(to_hex(key.sign(to_bytes("answer"), rng).to_bytes()),
            "dd96b781667c47d2d3340bfa41e9e3b3fdb8523138f76dadd884cea16ddd782fc4eb1b2506bb93441f67a"
            "db20a2877ffcc56dc57bab9abe42ac62fa45dd69405");
}

Bytes encode_point(const SecpPoint& p) {
  const auto [x, y] = p.to_affine();
  return concat({Bytes{0x04}, x.to_bytes(), y.to_bytes()});
}

BigInt message_scalar(const Bytes& message) {
  return bigint_from_bytes(keccak256(message)) % SecpPoint::order();
}

// The public key Q for which (r, s) verifies on `message` with x-coordinate
// point R: solves u1*G + u2*Q = R for Q.
SecpPoint key_for(const SecpPoint& big_r, const Bytes& message, const EcdsaSignature& sig) {
  const BigInt& n = SecpPoint::order();
  const BigInt w = mod_inverse(sig.s, n);
  const BigInt u1 = (message_scalar(message) * w) % n;
  const BigInt u2 = (sig.r * w) % n;
  return (big_r - SecpPoint::generator() * u1) * mod_inverse(u2, n);
}

// The fast verifier against the two-ladder oracle (tests/oracle): identical
// verdicts on valid, tampered (r, s, message, key) and high-s signatures.
TEST(Ecdsa, FastVerifyMatchesTwoLadderOracle) {
  Rng rng(116);
  const BigInt& n = SecpPoint::order();
  std::vector<EcdsaKeyPair> keys;
  for (int i = 0; i < 4; ++i) keys.push_back(EcdsaKeyPair::generate(rng));
  int cases = 0, accepted = 0;
  const auto check = [&](const Bytes& pub, const Bytes& msg, const EcdsaSignature& sig) {
    const bool oracle = oracle::ecdsa_verify_two_ladder(pub, msg, sig);
    EXPECT_EQ(ecdsa_verify(pub, msg, sig), oracle)
        << "case " << cases << " r = " << sig.r << " s = " << sig.s;
    ++cases;
    accepted += oracle ? 1 : 0;
  };
  for (int i = 0; i < 170; ++i) {
    const EcdsaKeyPair& key = keys[static_cast<std::size_t>(i) % keys.size()];
    const Bytes pub = key.public_key_bytes();
    const Bytes msg = to_bytes("submission " + std::to_string(i));
    const EcdsaSignature sig = key.sign(msg, rng);
    const Bytes other_key = keys[(static_cast<std::size_t>(i) + 1) % keys.size()]
                                .public_key_bytes();
    Bytes flipped = pub;  // almost surely off the curve
    flipped[1 + rng.uniform(64)] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    check(pub, msg, sig);
    check(pub, msg, {n - sig.r, sig.s});
    check(pub, msg, {sig.r, (sig.s + 1 + rng.uniform(1000)) % n});
    check(pub, to_bytes("submission " + std::to_string(i + 1)), sig);
    check(other_key, msg, sig);
    check(flipped, msg, sig);
    check(pub, msg, {sig.r, n - sig.s});  // the high-s twin verifies too
  }
  EXPECT_GE(cases, 1000);
  EXPECT_EQ(accepted, 2 * 170);  // each valid signature and its high-s twin
}

// secp_joint_mul against the two ladders it replaces, on random and edge
// scalars (0, 1, n - 1, the GLV eigenvalue and its negation).
TEST(Ecdsa, JointMulMatchesTwoLadderOracle) {
  Rng rng(117);
  const BigInt& n = SecpPoint::order();
  const BigInt& lam = detail::glv_curve<SecpPoint>().lambda;
  const std::vector<BigInt> edges = {BigInt(0), BigInt(1), BigInt(n - 1), lam, BigInt(n - lam)};
  const SecpPoint g = SecpPoint::generator();
  for (int i = 0; i < 40; ++i) {
    const SecpPoint q = g * (random_below(rng, n - 1) + 1);
    const BigInt u1 = i < 25 ? edges[static_cast<std::size_t>(i) % 5] : random_below(rng, n);
    const BigInt u2 = i < 25 ? edges[static_cast<std::size_t>(i) / 5] : random_below(rng, n);
    EXPECT_EQ(secp_joint_mul(u1, q, u2), g * u1 + q * u2) << "u1 = " << u1 << " u2 = " << u2;
  }
  // Q = G: both streams hit the same multiples; Q = -G cancels exactly.
  EXPECT_EQ(secp_joint_mul(BigInt(5), g, BigInt(7)), g * 12);
  EXPECT_TRUE(secp_joint_mul(BigInt(5), -g, BigInt(5)).is_infinity());
}

// x(R) >= n: r is x(R) - n, so verification must accept through the r + n
// comparison. No nonce reaches that range in practice (p - n ~ 2^128), so
// the test builds R directly and solves for the key that makes (r, s) valid.
TEST(Ecdsa, OracleAgreesWhenXOfRExceedsOrder) {
  const BigInt& n = SecpPoint::order();
  const BigInt& p = SecpFp::modulus_bigint();
  SecpPoint big_r;
  BigInt x = n + 1;
  for (;; x += 1) {
    ASSERT_LT(x, p);
    const SecpFp xf = SecpFp::from_bigint(x);
    const BigInt rhs = (xf * xf * xf + SecpFp::from_u64(7)).to_bigint();
    if (mod_pow(rhs, (p - 1) / 2, p) != 1) continue;  // not a square
    // p = 3 (mod 4): the square root is rhs^((p+1)/4).
    big_r = SecpPoint::from_affine(xf, SecpFp::from_bigint(mod_pow(rhs, (p + 1) / 4, p)));
    break;
  }
  const Bytes msg = to_bytes("x(R) above the group order");
  const EcdsaSignature sig{x - n, BigInt(0x5eed)};
  const Bytes pub = encode_point(key_for(big_r, msg, sig));
  EXPECT_TRUE(oracle::ecdsa_verify_two_ladder(pub, msg, sig));
  EXPECT_TRUE(ecdsa_verify(pub, msg, sig));
  // r = x(R) itself is out of range ([1, n)), and r - 1 is just wrong.
  EXPECT_FALSE(ecdsa_verify(pub, msg, {x, sig.s}));
  EXPECT_FALSE(ecdsa_verify(pub, msg, {x - n - 1, sig.s}));
}

// Q = -(u1/u2)*G sends u1*G + u2*Q to infinity: both verifiers reject, and
// neither throws from an affine conversion of the point at infinity.
TEST(Ecdsa, OracleAgreesOnInfinityResult) {
  const BigInt& n = SecpPoint::order();
  const Bytes msg = to_bytes("cancel");
  const EcdsaSignature sig{BigInt(0x1234567), BigInt(0x89abcdef)};
  const BigInt w = mod_inverse(sig.s, n);
  const BigInt u1 = (message_scalar(msg) * w) % n;
  const BigInt u2 = (sig.r * w) % n;
  const SecpPoint q = SecpPoint::generator() * ((n - (u1 * mod_inverse(u2, n)) % n) % n);
  ASSERT_TRUE((SecpPoint::generator() * u1 + q * u2).is_infinity());
  const Bytes pub = encode_point(q);
  EXPECT_FALSE(oracle::ecdsa_verify_two_ladder(pub, msg, sig));
  bool verdict = true;
  EXPECT_NO_THROW(verdict = ecdsa_verify(pub, msg, sig));
  EXPECT_FALSE(verdict);
}

}  // namespace
}  // namespace zl
