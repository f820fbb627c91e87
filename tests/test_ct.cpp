// Constant-time discipline tests (DESIGN.md §8).
//
// Three layers of coverage:
//   1. The taint harness itself: poison/unpoison range algebra, propagation,
//      violation handling, and the negative control — planted secret-dependent
//      branches MUST be caught (EXPECT_DEATH on the default abort handler).
//   2. Zeroization: secure_zero really wipes byte buffers and GMP limbs.
//   3. The instrumented production paths run clean: ECDSA sign, RSA private
//      ops, CPL-AA authentication, and task-answer decryption complete with
//      zero violations under an active harness even though their keys are
//      poisoned — the blinding/declassification mediations are doing their
//      job.
//
// The extra CtCheckBuild suite compiles only under the ZL_CT_CHECK option
// (cmake --preset ctcheck) and exercises the hot-path Fp hooks: taint follows
// field arithmetic, and a poisoned operand reaching operator== aborts.
#include <gtest/gtest.h>

#include <cstring>

#include "auth/cpl_auth.h"
#include "common/ct.h"
#include "crypto/bigint.h"
#include "crypto/bytes.h"
#include "ec/ecdsa.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "ec/glv.h"
#include "zebralancer/encryption.h"

namespace zl {
namespace {

// The violation handler is a plain function pointer; tests record the last
// reported site so a regression names the offending guard in the failure.
const char* g_last_site = nullptr;
void record_site(const char* site) { g_last_site = site; }

// ---------------------------------------------------------------------------
// secure_zero / ct_equal
// ---------------------------------------------------------------------------

TEST(SecureZero, WipesRawBufferAndBytes) {
  unsigned char buf[32];
  std::memset(buf, 0xAB, sizeof(buf));
  secure_zero(buf, sizeof(buf));
  for (unsigned char c : buf) EXPECT_EQ(c, 0);

  Bytes b{1, 2, 3, 4, 5};
  secure_zero(b);
  for (std::uint8_t c : b) EXPECT_EQ(c, 0);
  EXPECT_EQ(b.size(), 5u);  // wiped in place, not resized
}

TEST(SecureZero, WipesBigIntToZero) {
  BigInt v = bigint_from_decimal("123456789012345678901234567890123456789");
  secure_zero(v);
  EXPECT_EQ(v, 0);
}

TEST(CtEqual, AgreesWithEqualityOnDigests) {
  const Bytes a = Sha256::hash(Bytes{1, 2, 3});
  Bytes b = a;
  EXPECT_TRUE(ct_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, Bytes{}));  // length mismatch rejected up front
}

// ---------------------------------------------------------------------------
// Taint-set algebra
// ---------------------------------------------------------------------------

TEST(Taint, PoisonDeclassifyRoundTrip) {
  ct::ScopedHarness h;
  unsigned char secret[16] = {};
  EXPECT_FALSE(ct::tainted(secret, sizeof(secret)));
  ct::poison(secret, sizeof(secret));
  EXPECT_TRUE(ct::tainted(secret, sizeof(secret)));
  EXPECT_TRUE(ct::tainted(secret + 7, 1));  // any overlapping byte
  ct::declassify(secret, sizeof(secret));
  EXPECT_FALSE(ct::tainted(secret, sizeof(secret)));
}

TEST(Taint, UnpoisonSplitsCoveringRange) {
  ct::ScopedHarness h;
  unsigned char buf[32] = {};
  ct::poison(buf, sizeof(buf));
  ct::unpoison(buf + 8, 8);  // carve a hole in the middle
  EXPECT_TRUE(ct::tainted(buf, 8));
  EXPECT_FALSE(ct::tainted(buf + 8, 8));
  EXPECT_TRUE(ct::tainted(buf + 16, 16));
}

TEST(Taint, PropagateFollowsInputsAndScrubsCleanOutputs) {
  ct::ScopedHarness h;
  unsigned char a[8] = {}, b[8] = {}, out[8] = {};
  ct::poison(a, sizeof(a));
  ct::propagate(out, sizeof(out), a, sizeof(a), b, sizeof(b));
  EXPECT_TRUE(ct::tainted(out, sizeof(out)));
  // Recompute from two clean inputs: the stale taint on `out` must lift,
  // otherwise recycled stack slots accumulate false positives.
  ct::declassify(a, sizeof(a));
  ct::propagate(out, sizeof(out), a, sizeof(a), b, sizeof(b));
  EXPECT_FALSE(ct::tainted(out, sizeof(out)));
}

TEST(Taint, InertOutsideHarnessScope) {
  unsigned char secret[8] = {};
  ct::poison(secret, sizeof(secret));  // no-op: no scope active
  EXPECT_FALSE(ct::tainted(secret, sizeof(secret)));
  ct::branch(secret, sizeof(secret), "test-site");  // must not abort
  EXPECT_EQ(ct::violation_count(), 0u);
}

TEST(Taint, CtCheckedPoisonsStorageForLifetime) {
  ct::ScopedHarness h;
  ct::CtChecked<std::uint64_t> key(0xDEADBEEFu);
  EXPECT_TRUE(ct::tainted_object(key.secret()));
  const std::uint64_t pub = key.reveal();
  EXPECT_FALSE(ct::tainted_object(pub));
  EXPECT_TRUE(ct::tainted_object(key.secret()));  // original stays poisoned
}

// ---------------------------------------------------------------------------
// Negative controls: planted secret-dependent operations are caught
// ---------------------------------------------------------------------------

TEST(Violations, CountingHandlerRecordsPlantedBranch) {
  ct::ScopedHarness h;
  ct::set_violation_handler(record_site);
  g_last_site = nullptr;
  const BigInt secret(0xC0FFEEu);
  ct::poison(secret);
  (void)mod_inverse(secret, BigInt(101));  // variable-time on a secret: caught
  EXPECT_EQ(ct::violation_count(), 1u);
  ASSERT_NE(g_last_site, nullptr);
  EXPECT_NE(std::strstr(g_last_site, "mod_inverse"), nullptr);
}

using CtDeathTest = ::testing::Test;

TEST(CtDeathTest, ModInverseOnSecretAborts) {
  EXPECT_DEATH(
      {
        ct::enable();
        const BigInt secret(0xC0FFEEu);
        ct::poison(secret);
        (void)mod_inverse(secret, BigInt(101));
      },
      "mod_inverse");
}

TEST(CtDeathTest, ModPowOnSecretBaseAborts) {
  EXPECT_DEATH(
      {
        ct::enable();
        const BigInt secret(0xC0FFEEu);
        ct::poison(secret);
        (void)mod_pow(secret, BigInt(3), BigInt(1009));
      },
      "mod_pow");
}

TEST(CtDeathTest, NakedScalarMultOnSecretAborts) {
  EXPECT_DEATH(
      {
        ct::enable();
        const BigInt k = bigint_from_decimal("1311768467294899695");
        ct::poison(k);
        (void)(SecpPoint::generator() * k);
      },
      "variable-time in the scalar");
}

TEST(CtDeathTest, GlvDecomposeOnSecretAborts) {
  // GLV is public-scalar-only: the Babai decomposition and joint ladder are
  // variable-time in the scalar, so a tainted input must trip the guard
  // before any decomposition work happens.
  EXPECT_DEATH(
      {
        ct::enable();
        const BigInt k = bigint_from_decimal("1311768467294899695");
        ct::poison(k);
        (void)glv_decompose<G1>(k);
      },
      "variable-time");
}

TEST(CtDeathTest, GlvMulOnSecretScalarAborts) {
  EXPECT_DEATH(
      {
        ct::enable();
        const BigInt k = bigint_from_decimal("987654321987654321");
        ct::poison(k);
        (void)glv_mul(G1::generator(), k);
      },
      "variable-time");
}

TEST(CtDeathTest, EcdsaJointMulOnSecretScalarAborts) {
  // The verifier's joint multiplication decomposes both scalars with GLV and
  // walks their wNAF digits: public scalars only, either one poisoned dies.
  EXPECT_DEATH(
      {
        ct::enable();
        const BigInt u1 = bigint_from_decimal("1311768467294899695");
        ct::poison(u1);
        (void)secp_joint_mul(u1, SecpPoint::generator(), BigInt(7));
      },
      "variable-time");
  EXPECT_DEATH(
      {
        ct::enable();
        const BigInt u2 = bigint_from_decimal("987654321987654321");
        ct::poison(u2);
        (void)secp_joint_mul(BigInt(7), SecpPoint::generator(), u2);
      },
      "variable-time");
}

// ---------------------------------------------------------------------------
// Production paths run clean under an active harness
// ---------------------------------------------------------------------------

TEST(CtClean, EcdsaGenerateSignVerify) {
  Rng rng(31001);
  const Bytes msg{'z', 'e', 'b', 'r', 'a'};
  EcdsaSignature sig;
  Bytes pub;
  {
    ct::ScopedHarness h;
    ct::set_violation_handler(record_site);
    const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
    sig = key.sign(msg, rng);
    pub = key.public_key_bytes();
    EXPECT_EQ(ct::violation_count(), 0u)
        << "ECDSA touched a guard at: " << (g_last_site ? g_last_site : "?");
  }
  EXPECT_TRUE(ecdsa_verify(pub, msg, sig));
}

TEST(CtClean, RsaPrivateOpsWithPoisonedExponent) {
  Rng rng(31002);
  // 1024-bit keeps keygen fast; the blinding path is identical at 2048.
  const RsaKeyPair key = RsaKeyPair::generate(rng, 1024);
  const Bytes msg{'p', 'r', 'i', 'v', 'a', 't', 'e'};
  const Bytes ctext = rsa_oaep_encrypt(key.pub, msg, rng);
  Bytes decrypted, sig;
  {
    ct::ScopedHarness h;
    ct::set_violation_handler(record_site);
    ct::poison(key.d);  // the long-term secret is tainted for both ops
    decrypted = rsa_oaep_decrypt(key, ctext);
    sig = rsa_sign(key, msg);
    EXPECT_EQ(ct::violation_count(), 0u)
        << "RSA touched a guard at: " << (g_last_site ? g_last_site : "?");
  }
  EXPECT_EQ(decrypted, msg);
  EXPECT_TRUE(rsa_verify(key.pub, msg, sig));
}

// Under ZL_CT_CHECK the SNARK prover is a *documented* harness gap (DESIGN.md
// §8): witness generation genuinely branches on sk-derived wire values (e.g.
// the is-zero gadget's conditional inverse), so running authenticate inside a
// harness would report those — correctly, but they are accepted and out of
// scope for the source-level discipline this suite enforces. The default
// build's guards (scalar-mult entry, mod_pow/mod_inverse) still cover it.
#if !defined(ZL_CT_CHECK)
TEST(CtClean, CplAuthAuthenticate) {
  Rng rng(31003);
  const auto params = auth::auth_setup(/*merkle_depth=*/4, rng);
  auth::RegistrationAuthority ra(4);
  const Bytes prefix{'t', 'a', 's', 'k'};
  const Bytes rest{'a', 'n', 's', 'w', 'e', 'r'};
  auth::Attestation att;
  Fr root;
  {
    ct::ScopedHarness h;
    ct::set_violation_handler(record_site);
    const auth::UserKey key = auth::UserKey::generate(rng);
    const auth::Certificate cert = ra.register_identity("worker", key.pk);
    root = ra.registry_root();
    att = auth::authenticate(params, prefix, rest, key, cert, root, rng);
    EXPECT_EQ(ct::violation_count(), 0u)
        << "CPL-AA touched a guard at: " << (g_last_site ? g_last_site : "?");
  }
  EXPECT_TRUE(auth::verify(params, prefix, rest, root, att));
}
#endif  // !ZL_CT_CHECK

TEST(CtClean, TaskAnswerDecryption) {
  Rng rng(31004);
  const Fr answer = Fr::from_u64(77);
  Fr decrypted;
  {
    ct::ScopedHarness h;
    ct::set_violation_handler(record_site);
    const auto key = zebralancer::TaskEncKeyPair::generate(rng);
    const auto ctext = zebralancer::encrypt_answer(key.epk, answer, rng);
    decrypted = zebralancer::decrypt_answer(key.esk, ctext);
    EXPECT_EQ(ct::violation_count(), 0u)
        << "decryption touched a guard at: " << (g_last_site ? g_last_site : "?");
  }
  EXPECT_EQ(decrypted, answer);
}

TEST(CtClean, BlindedInverseMatchesPlainInverse) {
  Rng rng(31005);
  const BigInt m = bigint_from_decimal("115792089237316195423570985008687907852837564279074904382605163141518161494337");
  for (int i = 0; i < 8; ++i) {
    const BigInt v = random_below(rng, m);
    if (v == 0) continue;
    const BigInt expected = mod_inverse(v, m);
    ct::ScopedHarness h;
    ct::poison(v);
    EXPECT_EQ(mod_inverse_blinded(v, m, rng), expected);
    EXPECT_EQ(ct::violation_count(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Hot-path hooks (compiled only under the ZL_CT_CHECK build option)
// ---------------------------------------------------------------------------
#if defined(ZL_CT_CHECK)

TEST(CtCheckBuild, TaintFollowsFieldArithmetic) {
  ct::ScopedHarness h;
  Fr a = Fr::from_u64(5);
  const Fr b = Fr::from_u64(7);
  ct::poison_object(a);
  const Fr sum = a + b;
  EXPECT_TRUE(ct::tainted_object(sum)) << "taint must follow Fp::operator+";
  const Fr clean = b + b;
  EXPECT_FALSE(ct::tainted_object(clean));
  const Fr prod = sum * b;
  EXPECT_TRUE(ct::tainted_object(prod)) << "taint must follow mont_mul";
}

TEST(CtCheckBuild, TaintFollowsMontSqr) {
  // The dedicated squaring kernel has its own ZL_CT_PROP1 hook; a poisoned
  // operand must taint the square, and a clean operand must not.
  ct::ScopedHarness h;
  Fr a = Fr::from_u64(5);
  ct::poison_object(a);
  const Fr sq = a.squared();
  EXPECT_TRUE(ct::tainted_object(sq)) << "taint must follow mont_sqr";
  const Fr clean = Fr::from_u64(7).squared();
  EXPECT_FALSE(ct::tainted_object(clean));
}

TEST(CtCheckBuild, ZeroizeLiftsTaint) {
  ct::ScopedHarness h;
  Fr a = Fr::from_u64(5);
  ct::poison_object(a);
  a.zeroize();
  EXPECT_FALSE(ct::tainted_object(a));
  EXPECT_TRUE(a.is_zero());  // guard must not fire: taint was lifted
}

TEST(CtCheckBuildDeathTest, SecretFpEqualityAborts) {
  EXPECT_DEATH(
      {
        ct::enable();
        Fr a = Fr::from_u64(5);
        const Fr b = Fr::from_u64(5);
        ct::poison_object(a);
        (void)(a == b);
      },
      "Fp::operator==");
}

TEST(CtCheckBuildDeathTest, SecretIsZeroAborts) {
  EXPECT_DEATH(
      {
        ct::enable();
        Fr a = Fr::from_u64(5);
        ct::poison_object(a);
        (void)a.is_zero();
      },
      "Fp::is_zero");
}

#endif  // ZL_CT_CHECK

}  // namespace
}  // namespace zl
