// Tests for the non-anonymous mode (paper §VI last paragraph) and for the
// k-submissions-per-identity extension (footnote 11).
#include <gtest/gtest.h>

#include "zebralancer/clients.h"
#include "zebralancer/scenario.h"

namespace zl::zebralancer {
namespace {

// 1024-bit RSA keeps unit tests fast; 2048-bit is exercised in test_pkc and
// the ablation bench.
constexpr int kRsaBits = 1024;

TEST(ClassicAuth, CertifyAuthenticateVerify) {
  Rng rng(601);
  auth::ClassicRegistrationAuthority ra(rng, kRsaBits);
  const auth::ClassicUserKey user = auth::ClassicUserKey::generate(rng, kRsaBits);
  const auth::ClassicCertificate cert = ra.certify("alice", user.key.pub);

  const Bytes prefix = to_bytes("task-A"), rest = to_bytes("message");
  const auth::ClassicAttestation att = auth::classic_authenticate(prefix, rest, user, cert);
  EXPECT_TRUE(auth::classic_verify(prefix, rest, ra.master_public_key(), att));
  // Binding: any component substitution fails.
  EXPECT_FALSE(auth::classic_verify(to_bytes("task-B"), rest, ra.master_public_key(), att));
  EXPECT_FALSE(auth::classic_verify(prefix, to_bytes("other"), ra.master_public_key(), att));
  auth::ClassicAttestation bad = att;
  bad.signature[4] ^= 1;
  EXPECT_FALSE(auth::classic_verify(prefix, rest, ra.master_public_key(), bad));
  bad = att;
  bad.certificate[4] ^= 1;
  EXPECT_FALSE(auth::classic_verify(prefix, rest, ra.master_public_key(), bad));
  bad = att;
  bad.public_key = Bytes(12, 0x01);
  EXPECT_FALSE(auth::classic_verify(prefix, rest, ra.master_public_key(), bad));
}

TEST(ClassicAuth, UncertifiedKeyRejected) {
  Rng rng(602);
  auth::ClassicRegistrationAuthority ra(rng, kRsaBits);
  auth::ClassicRegistrationAuthority rogue(rng, kRsaBits);
  const auth::ClassicUserKey user = auth::ClassicUserKey::generate(rng, kRsaBits);
  // Certified by the rogue RA, not the real one.
  const auth::ClassicCertificate cert = rogue.certify("mallory", user.key.pub);
  const auth::ClassicAttestation att =
      auth::classic_authenticate(to_bytes("p"), to_bytes("m"), user, cert);
  EXPECT_TRUE(auth::classic_verify(to_bytes("p"), to_bytes("m"), rogue.master_public_key(), att));
  EXPECT_FALSE(auth::classic_verify(to_bytes("p"), to_bytes("m"), ra.master_public_key(), att));
}

TEST(ClassicAuth, LinkIsIdentityEquality) {
  Rng rng(603);
  auth::ClassicRegistrationAuthority ra(rng, kRsaBits);
  const auth::ClassicUserKey u1 = auth::ClassicUserKey::generate(rng, kRsaBits);
  const auth::ClassicUserKey u2 = auth::ClassicUserKey::generate(rng, kRsaBits);
  const auto c1 = ra.certify("u1", u1.key.pub);
  const auto c2 = ra.certify("u2", u2.key.pub);
  const auto a1 = auth::classic_authenticate(to_bytes("p"), to_bytes("m1"), u1, c1);
  const auto a2 = auth::classic_authenticate(to_bytes("q"), to_bytes("m2"), u1, c1);
  const auto a3 = auth::classic_authenticate(to_bytes("p"), to_bytes("m1"), u2, c2);
  // Unlike the anonymous scheme, classic attestations link EVERYWHERE —
  // even across different prefixes. That is the privacy cost.
  EXPECT_TRUE(auth::classic_link(a1, a2));
  EXPECT_FALSE(auth::classic_link(a1, a3));
}

TEST(ClassicAuth, RaRejectsDuplicates) {
  Rng rng(604);
  auth::ClassicRegistrationAuthority ra(rng, kRsaBits);
  const auth::ClassicUserKey user = auth::ClassicUserKey::generate(rng, kRsaBits);
  ra.certify("alice", user.key.pub);
  EXPECT_THROW(ra.certify("alice", auth::ClassicUserKey::generate(rng, kRsaBits).key.pub),
               std::invalid_argument);
  EXPECT_THROW(ra.certify("alice2", user.key.pub), std::invalid_argument);
}

TEST(ClassicAuth, SerializationRoundTrip) {
  Rng rng(605);
  auth::ClassicRegistrationAuthority ra(rng, kRsaBits);
  const auth::ClassicUserKey user = auth::ClassicUserKey::generate(rng, kRsaBits);
  const auto cert = ra.certify("alice", user.key.pub);
  const auto att = auth::classic_authenticate(to_bytes("p"), to_bytes("m"), user, cert);
  const auto decoded = auth::ClassicAttestation::from_bytes(att.to_bytes());
  EXPECT_TRUE(auth::classic_verify(to_bytes("p"), to_bytes("m"), ra.master_public_key(), decoded));
  EXPECT_EQ(auth::ClassicCertificate::from_bytes(cert.to_bytes()).ra_signature,
            cert.ra_signature);
  Bytes trailing = att.to_bytes();
  trailing.push_back(0);
  EXPECT_THROW(auth::ClassicAttestation::from_bytes(trailing), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end: a classic-mode task on the test net, and the k-submission
// extension on an anonymous task.
// ---------------------------------------------------------------------------

class ClassicE2eTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng = new Rng(606);
    net = new TestNet({.merkle_depth = 6});
    params = new SystemParams(
        make_system_params(6, {RewardCircuitSpec{3, "majority-vote:4"}}, *rng));
    classic_ra = new auth::ClassicRegistrationAuthority(*rng, kRsaBits);
  }
  static void TearDownTestSuite() {
    delete classic_ra;
    delete params;
    delete net;
    delete rng;
  }
  static chain::Receipt confirm(const Bytes& tx_hash) {
    for (;;) {
      net->network().run_for(50);
      const auto receipt = net->client_node().chain().find_receipt(tx_hash);
      if (receipt.has_value()) return *receipt;
    }
  }
  static Rng* rng;
  static TestNet* net;
  static SystemParams* params;
  static auth::ClassicRegistrationAuthority* classic_ra;
};
Rng* ClassicE2eTest::rng = nullptr;
TestNet* ClassicE2eTest::net = nullptr;
SystemParams* ClassicE2eTest::params = nullptr;
auth::ClassicRegistrationAuthority* ClassicE2eTest::classic_ra = nullptr;

TEST_F(ClassicE2eTest, FullClassicTask) {
  const auth::ClassicUserKey req_key = auth::ClassicUserKey::generate(*rng, kRsaBits);
  const auto req_cert = classic_ra->certify("classic-requester", req_key.key.pub);
  RequesterClient requester(*net, *params, req_key, req_cert, classic_ra->master_public_key(),
                            net->fork_rng("creq"));
  const chain::Address task = requester.publish(
      {.budget = 3'000'000, .num_answers = 3, .policy_name = "majority-vote:4"});

  std::vector<auth::ClassicUserKey> keys;
  std::vector<std::unique_ptr<WorkerClient>> workers;
  std::vector<Bytes> pending;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(auth::ClassicUserKey::generate(*rng, kRsaBits));
    const auto cert = classic_ra->certify("classic-worker-" + std::to_string(i),
                                          keys.back().key.pub);
    workers.push_back(std::make_unique<WorkerClient>(
        *net, *params, keys.back(), cert, net->fork_rng("cw" + std::to_string(i))));
    pending.push_back(workers.back()->submit_answer(task, Fr::from_u64(i == 2 ? 1 : 3)));
  }
  for (const Bytes& h : pending) {
    const chain::Receipt r = confirm(h);
    EXPECT_TRUE(r.success) << r.error;
  }
  ASSERT_TRUE(requester.collection_complete());

  const std::vector<std::uint64_t> rewards = requester.instruct_rewards();
  const auto& state = net->client_node().chain().state();
  EXPECT_EQ(state.balance_of(task), 0u);
  // Paid by worker: the contract orders submissions by one-task address, so
  // match each slot to its sender. Workers 0 and 1 gave the majority label.
  const auto* contract = net->client_node().chain().state().contract_as<TaskContract>(task);
  ASSERT_NE(contract, nullptr);
  ASSERT_EQ(contract->submissions().size(), 3u);
  ASSERT_EQ(rewards.size(), 3u);
  const std::uint64_t expected[3] = {1'000'000, 1'000'000, 0};
  for (std::size_t w = 0; w < workers.size(); ++w) {
    std::size_t slot = 0;
    while (slot < 3 &&
           contract->submissions()[slot].worker_address != workers[w]->reward_address(task)) {
      ++slot;
    }
    ASSERT_LT(slot, 3u) << "worker " << w << " has no submission";
    EXPECT_EQ(rewards[slot], expected[w]) << "worker " << w;
  }
  // On chain the workers' public keys are visible — the identity linkage
  // the anonymous mode hides.
  EXPECT_FALSE(contract->submissions()[0].classic_pk.empty());
}

TEST_F(ClassicE2eTest, ClassicDoubleSubmissionRejected) {
  const auth::ClassicUserKey req_key = auth::ClassicUserKey::generate(*rng, kRsaBits);
  const auto req_cert = classic_ra->certify("classic-requester-2", req_key.key.pub);
  RequesterClient requester(*net, *params, req_key, req_cert, classic_ra->master_public_key(),
                            net->fork_rng("creq2"));
  const chain::Address task = requester.publish(
      {.budget = 3'000'000, .num_answers = 3, .policy_name = "majority-vote:4"});

  const auth::ClassicUserKey key = auth::ClassicUserKey::generate(*rng, kRsaBits);
  const auto cert = classic_ra->certify("greedy-classic", key.key.pub);
  WorkerClient first(*net, *params, key, cert, net->fork_rng("g1"));
  WorkerClient second(*net, *params, key, cert, net->fork_rng("g2"));
  EXPECT_TRUE(confirm(first.submit_answer(task, Fr::from_u64(1))).success);
  const chain::Receipt dup = confirm(second.submit_answer(task, Fr::from_u64(2)));
  EXPECT_FALSE(dup.success);
  EXPECT_NE(dup.error.find("double submission"), std::string::npos) << dup.error;
}

TEST_F(ClassicE2eTest, KSubmissionExtensionAllowsExactlyK) {
  // Footnote 11: k = 2 answers per identity on an ANONYMOUS task. The same
  // worker may submit twice; the third linked attestation is dropped.
  auth::UserKey req_key = auth::UserKey::generate(*rng);
  auto req_cert = net->register_participant("anon-requester-k", req_key.pk);
  auth::UserKey worker_key = auth::UserKey::generate(*rng);
  auto worker_cert = net->register_participant("anon-worker-k", worker_key.pk);
  req_cert = net->ra().current_certificate(req_cert.leaf_index);
  worker_cert = net->ra().current_certificate(worker_cert.leaf_index);

  RequesterClient requester(*net, *params, req_key, req_cert, net->fork_rng("kreq"));
  const chain::Address task = requester.publish({.budget = 3'000'000,
                                                 .num_answers = 3,
                                                 .policy_name = "majority-vote:4",
                                                 .max_submissions_per_identity = 2},
                                                net->on_chain_registry_root());

  WorkerClient w1(*net, *params, worker_key, worker_cert, net->fork_rng("k1"));
  WorkerClient w2(*net, *params, worker_key, worker_cert, net->fork_rng("k2"));
  WorkerClient w3(*net, *params, worker_key, worker_cert, net->fork_rng("k3"));
  EXPECT_TRUE(confirm(w1.submit_answer(task, Fr::from_u64(1))).success);
  EXPECT_TRUE(confirm(w2.submit_answer(task, Fr::from_u64(2))).success)
      << "second submission is allowed at k = 2";
  const chain::Receipt third = confirm(w3.submit_answer(task, Fr::from_u64(3)));
  EXPECT_FALSE(third.success) << "third must be dropped";
  EXPECT_NE(third.error.find("double submission"), std::string::npos) << third.error;
}


// Mines two more blocks and expects none mined after `height` to carry a
// transaction: a worker that refused to submit must not have sent anything,
// not even the faucet transfer for its one-task address.
void expect_nothing_sent(TestNet& net, std::uint64_t height) {
  net.advance_blocks(2);
  const chain::Blockchain& chain = net.client_node().chain();
  for (const Bytes& hash : chain.canonical_chain()) {
    const chain::Block* block = chain.block_by_hash(hash);
    ASSERT_NE(block, nullptr);
    if (block->header.number > height) {
      EXPECT_TRUE(block->transactions.empty()) << "block " << block->header.number;
    }
  }
}

TEST_F(ClassicE2eTest, StaleCertificateSendsNothing) {
  TestNet fresh({.seed = 607, .merkle_depth = 6});
  const auth::UserKey req_key = auth::UserKey::generate(*rng);
  auth::Certificate req_cert = fresh.register_participant("stale-requester", req_key.pk);
  const auth::UserKey worker_key = auth::UserKey::generate(*rng);
  const auth::Certificate worker_cert = fresh.register_participant("stale-worker", worker_key.pk);
  const auth::UserKey late_key = auth::UserKey::generate(*rng);
  fresh.register_participant("late-comer", late_key.pk);
  req_cert = fresh.ra().current_certificate(req_cert.leaf_index);

  RequesterClient requester(fresh, *params, req_key, req_cert, fresh.fork_rng("sreq"));
  const chain::Address task =
      requester.publish({.budget = 3'000'000, .num_answers = 3, .policy_name = "majority-vote:4"},
                        fresh.on_chain_registry_root());

  // The worker's path predates the late-comer: it no longer reaches the root.
  WorkerClient worker(fresh, *params, worker_key, worker_cert, fresh.fork_rng("swork"));
  const std::uint64_t height = fresh.height();
  EXPECT_THROW(worker.submit_answer(task, Fr::from_u64(1)), std::invalid_argument);
  expect_nothing_sent(fresh, height);
}

TEST_F(ClassicE2eTest, AuthModeMismatchRejectedBeforeSending) {
  TestNet fresh({.seed = 608, .merkle_depth = 6});
  const auth::UserKey anon_key = auth::UserKey::generate(*rng);
  const auth::Certificate anon_cert = fresh.register_participant("mismatch-anon", anon_key.pk);
  const auth::ClassicUserKey classic_key = auth::ClassicUserKey::generate(*rng, kRsaBits);
  const auto classic_cert = classic_ra->certify("mismatch-classic", classic_key.key.pub);
  const TaskSpec spec{.budget = 3'000'000, .num_answers = 3, .policy_name = "majority-vote:4"};

  RequesterClient anon_requester(fresh, *params, anon_key, anon_cert, fresh.fork_rng("mra"));
  const chain::Address anon_task = anon_requester.publish(spec, fresh.on_chain_registry_root());
  RequesterClient classic_requester(fresh, *params, classic_key, classic_cert,
                                    classic_ra->master_public_key(), fresh.fork_rng("mrc"));
  const chain::Address classic_task = classic_requester.publish(spec);

  WorkerClient anon_worker(fresh, *params, anon_key, anon_cert, fresh.fork_rng("mwa"));
  WorkerClient classic_worker(fresh, *params, classic_key, classic_cert, fresh.fork_rng("mwc"));
  const std::uint64_t height = fresh.height();
  EXPECT_THROW(anon_worker.submit_answer(classic_task, Fr::from_u64(1)), std::invalid_argument);
  EXPECT_THROW(classic_worker.submit_answer(anon_task, Fr::from_u64(1)), std::invalid_argument);
  expect_nothing_sent(fresh, height);
}

}  // namespace
}  // namespace zl::zebralancer
