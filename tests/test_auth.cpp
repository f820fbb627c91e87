// Security-game tests for common-prefix-linkable anonymous authentication,
// mirroring the paper's Definitions 1 (common-prefix-linkability) and 2
// (anonymity/unlinkability), plus correctness and unforgeability.
#include <gtest/gtest.h>

#include "auth/cpl_auth.h"
#include "common/thread_pool.h"
#include "crypto/keccak.h"

namespace zl::auth {
namespace {

constexpr unsigned kDepth = 8;

// Shared fixture: one Setup + RA + two registered honest users (W0, W1 as in
// the paper's anonymity game).
class CplAuthTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng = new Rng(201);
    params = new AuthParams(auth_setup(kDepth, *rng));
    ra = new RegistrationAuthority(kDepth);
    w0 = new UserKey(UserKey::generate(*rng));
    w1 = new UserKey(UserKey::generate(*rng));
    cert0 = new Certificate(ra->register_identity("worker-0", w0->pk));
    cert1 = new Certificate(ra->register_identity("worker-1", w1->pk));
    // Paths must be refreshed after later registrations.
    *cert0 = ra->current_certificate(cert0->leaf_index);
    *cert1 = ra->current_certificate(cert1->leaf_index);
  }
  static void TearDownTestSuite() {
    delete cert1;
    delete cert0;
    delete w1;
    delete w0;
    delete ra;
    delete params;
    delete rng;
  }

  static Rng* rng;
  static AuthParams* params;
  static RegistrationAuthority* ra;
  static UserKey *w0, *w1;
  static Certificate *cert0, *cert1;
};
Rng* CplAuthTest::rng = nullptr;
AuthParams* CplAuthTest::params = nullptr;
RegistrationAuthority* CplAuthTest::ra = nullptr;
UserKey* CplAuthTest::w0 = nullptr;
UserKey* CplAuthTest::w1 = nullptr;
Certificate* CplAuthTest::cert0 = nullptr;
Certificate* CplAuthTest::cert1 = nullptr;

TEST_F(CplAuthTest, Correctness) {
  const Bytes prefix = to_bytes("task-contract-address-0xabc");
  const Bytes rest = to_bytes("worker-address||ciphertext");
  const Attestation att =
      authenticate(*params, prefix, rest, *w0, *cert0, ra->registry_root(), *rng);
  EXPECT_TRUE(verify(*params, prefix, rest, ra->registry_root(), att));
}

// The prover's window tasks may run on any thread in any order; the proof
// bytes must not depend on it. The digest was recorded from the engine that
// split points into per-thread chunks and normalized the key on every proof.
TEST_F(CplAuthTest, ProofBytesIdenticalAcrossPoolWidths) {
  const unsigned saved = num_threads();
  const Bytes prefix = to_bytes("task-contract-address-0xabc");
  const Bytes rest = to_bytes("worker-address||ciphertext");
  for (const unsigned width : {1u, 2u, 3u, 4u}) {
    set_num_threads(width);
    Rng prove_rng(777);
    const Attestation att =
        authenticate(*params, prefix, rest, *w0, *cert0, ra->registry_root(), prove_rng);
    EXPECT_EQ(to_hex(keccak256(att.proof.to_bytes())),
              "01dceffe29c317c2335fa44213f67cb52be23598d8391bbd5468cc1232e1c322")
        << "width=" << width;
  }
  set_num_threads(saved);
}

TEST_F(CplAuthTest, VerificationBindsEveryStatementComponent) {
  const Bytes prefix = to_bytes("task-A");
  const Bytes rest = to_bytes("answer-1");
  const Fr root = ra->registry_root();
  const Attestation att = authenticate(*params, prefix, rest, *w0, *cert0, root, *rng);
  EXPECT_TRUE(verify(*params, prefix, rest, root, att));
  // Any component substitution must fail.
  EXPECT_FALSE(verify(*params, to_bytes("task-B"), rest, root, att));
  EXPECT_FALSE(verify(*params, prefix, to_bytes("answer-2"), root, att));
  EXPECT_FALSE(verify(*params, prefix, rest, root + Fr::one(), att));
  Attestation tampered = att;
  tampered.t1 = att.t1 + Fr::one();
  EXPECT_FALSE(verify(*params, prefix, rest, root, tampered));
  tampered = att;
  tampered.t2 = att.t2 + Fr::one();
  EXPECT_FALSE(verify(*params, prefix, rest, root, tampered));
  tampered = att;
  tampered.proof.a = tampered.proof.a + G1::generator();
  EXPECT_FALSE(verify(*params, prefix, rest, root, tampered));
}

TEST_F(CplAuthTest, CommonPrefixLinkability) {
  // Same user, same prefix, different message bodies => linked.
  const Bytes prefix = to_bytes("task-X");
  const Fr root = ra->registry_root();
  const Attestation a1 = authenticate(*params, prefix, to_bytes("m1"), *w0, *cert0, root, *rng);
  const Attestation a2 = authenticate(*params, prefix, to_bytes("m2"), *w0, *cert0, root, *rng);
  EXPECT_TRUE(link(a1, a2));
  EXPECT_TRUE(verify(*params, prefix, to_bytes("m1"), root, a1));
  EXPECT_TRUE(verify(*params, prefix, to_bytes("m2"), root, a2));
}

TEST_F(CplAuthTest, DifferentUsersSamePrefixUnlinked) {
  const Bytes prefix = to_bytes("task-X");
  const Fr root = ra->registry_root();
  const Attestation a0 = authenticate(*params, prefix, to_bytes("m"), *w0, *cert0, root, *rng);
  const Attestation a1 = authenticate(*params, prefix, to_bytes("m"), *w1, *cert1, root, *rng);
  EXPECT_FALSE(link(a0, a1));
}

TEST_F(CplAuthTest, SameUserDifferentPrefixesUnlinked) {
  // The anonymity side: across tasks, the same worker is unlinkable.
  const Fr root = ra->registry_root();
  const Attestation a1 =
      authenticate(*params, to_bytes("task-1"), to_bytes("m"), *w0, *cert0, root, *rng);
  const Attestation a2 =
      authenticate(*params, to_bytes("task-2"), to_bytes("m"), *w0, *cert0, root, *rng);
  EXPECT_FALSE(link(a1, a2));
  // Neither tag repeats anywhere across the two transcripts.
  EXPECT_NE(a1.t1, a2.t1);
  EXPECT_NE(a1.t2, a2.t2);
  EXPECT_NE(a1.t1, a2.t2);
}

TEST_F(CplAuthTest, TranscriptContainsNoIdentityData) {
  // Anonymity sanity: the serialized attestation never embeds pk or sk.
  const Fr root = ra->registry_root();
  const Attestation att =
      authenticate(*params, to_bytes("task-Z"), to_bytes("m"), *w0, *cert0, root, *rng);
  const std::string wire = to_hex(att.to_bytes());
  EXPECT_EQ(wire.find(to_hex(w0->pk.to_bytes())), std::string::npos);
  EXPECT_EQ(wire.find(to_hex(w0->sk.to_bytes())), std::string::npos);
  EXPECT_EQ(att.to_bytes().size(), Attestation::kByteSize);
}

TEST_F(CplAuthTest, MultiSubmissionGamePigeonhole) {
  // Definition 1's game: with q = 2 corrupted certificates, q+1 = 3
  // same-prefix attestations must contain a linked pair.
  const Bytes prefix = to_bytes("one-task");
  const Fr root = ra->registry_root();
  const std::vector<Attestation> atts = {
      authenticate(*params, prefix, to_bytes("a"), *w0, *cert0, root, *rng),
      authenticate(*params, prefix, to_bytes("b"), *w1, *cert1, root, *rng),
      authenticate(*params, prefix, to_bytes("c"), *w0, *cert0, root, *rng)};
  bool linked_pair_found = false;
  for (std::size_t i = 0; i < atts.size(); ++i) {
    for (std::size_t j = i + 1; j < atts.size(); ++j) {
      if (link(atts[i], atts[j])) linked_pair_found = true;
    }
  }
  EXPECT_TRUE(linked_pair_found);
}

TEST_F(CplAuthTest, UnforgeabilityUncertifiedKeyCannotAuthenticate) {
  // A key pair never registered at the RA has no valid witness.
  const UserKey rogue = UserKey::generate(*rng);
  Certificate fake;
  fake.leaf_index = 0;
  fake.path = cert0->path;  // stolen path for someone else's leaf
  EXPECT_THROW(
      authenticate(*params, to_bytes("t"), to_bytes("m"), rogue, fake, ra->registry_root(), *rng),
      std::invalid_argument);
}

TEST_F(CplAuthTest, StaleRootRejected) {
  // An attestation computed against an outdated registry root must fail
  // against the current one (and vice versa).
  RegistrationAuthority fresh_ra(kDepth);
  const UserKey u = UserKey::generate(*rng);
  const Certificate cert = fresh_ra.register_identity("only-user", u.pk);
  const Fr old_root = fresh_ra.registry_root();
  const Attestation att =
      authenticate(*params, to_bytes("p"), to_bytes("m"), u, cert, old_root, *rng);
  EXPECT_TRUE(verify(*params, to_bytes("p"), to_bytes("m"), old_root, att));
  fresh_ra.register_identity("second-user", UserKey::generate(*rng).pk);
  EXPECT_FALSE(verify(*params, to_bytes("p"), to_bytes("m"), fresh_ra.registry_root(), att));
}

TEST_F(CplAuthTest, SerializationRoundTrip) {
  const Fr root = ra->registry_root();
  const Attestation att =
      authenticate(*params, to_bytes("p"), to_bytes("m"), *w1, *cert1, root, *rng);
  const Attestation decoded = Attestation::from_bytes(att.to_bytes());
  EXPECT_TRUE(verify(*params, to_bytes("p"), to_bytes("m"), root, decoded));
  EXPECT_TRUE(link(att, decoded));
  EXPECT_THROW(Attestation::from_bytes(Bytes(10)), std::invalid_argument);
}

TEST(RegistrationAuthority, RejectsDuplicates) {
  Rng rng(202);
  RegistrationAuthority ra(4);
  const UserKey u = UserKey::generate(rng);
  ra.register_identity("alice", u.pk);
  EXPECT_THROW(ra.register_identity("alice", UserKey::generate(rng).pk), std::invalid_argument);
  EXPECT_THROW(ra.register_identity("alice-again", u.pk), std::invalid_argument);
  EXPECT_EQ(ra.num_registered(), 1u);
  EXPECT_THROW(ra.current_certificate(5), std::out_of_range);
}

TEST(UserKey, KeyDerivationIsDeterministic) {
  Rng rng(203);
  const UserKey u = UserKey::generate(rng);
  EXPECT_EQ(u.pk, mimc_compress(u.sk, Fr::zero()));
  const UserKey v = UserKey::generate(rng);
  EXPECT_NE(u.sk, v.sk);
  EXPECT_NE(u.pk, v.pk);
}

}  // namespace
}  // namespace zl::auth
