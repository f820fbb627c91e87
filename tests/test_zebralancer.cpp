// ZebraLancer protocol tests: unit tests for encryption and policies,
// circuit/native agreement for every policy, reward-proof soundness, and
// the full end-to-end protocol on the simulated test net including the
// attack scenarios from the paper's security analysis (§V-C).
#include <gtest/gtest.h>

#include "zebralancer/scenario.h"

namespace zl::zebralancer {
namespace {

TEST(Encryption, RoundTrip) {
  Rng rng(401);
  const TaskEncKeyPair key = TaskEncKeyPair::generate(rng);
  EXPECT_EQ(mpz_sizeinbase(key.esk.get_mpz_t(), 2), kEskBits);
  for (const std::uint64_t a : {0ull, 1ull, 3ull, 12345ull}) {
    const AnswerCiphertext ct = encrypt_answer(key.epk, Fr::from_u64(a), rng);
    EXPECT_EQ(decrypt_answer(key.esk, ct), Fr::from_u64(a));
  }
}

TEST(Encryption, IsRandomizedAndKeySeparated) {
  Rng rng(402);
  const TaskEncKeyPair k1 = TaskEncKeyPair::generate(rng);
  const TaskEncKeyPair k2 = TaskEncKeyPair::generate(rng);
  const Fr answer = Fr::from_u64(2);
  const AnswerCiphertext c1 = encrypt_answer(k1.epk, answer, rng);
  const AnswerCiphertext c2 = encrypt_answer(k1.epk, answer, rng);
  EXPECT_FALSE(c1 == c2) << "semantic security requires randomized encryption";
  // Decrypting with the wrong key yields garbage, not the answer.
  EXPECT_NE(decrypt_answer(k2.esk, c1), answer);
}

TEST(Encryption, PlaceholderDecryptsToSentinelUnderAnyKey) {
  Rng rng(403);
  const Fr sentinel = Fr::from_u64(4);
  const AnswerCiphertext ct = placeholder_ciphertext(sentinel);
  for (int i = 0; i < 3; ++i) {
    const TaskEncKeyPair key = TaskEncKeyPair::generate(rng);
    EXPECT_EQ(decrypt_answer(key.esk, ct), sentinel);
  }
}

TEST(Encryption, SerializationRoundTrip) {
  Rng rng(404);
  const TaskEncKeyPair key = TaskEncKeyPair::generate(rng);
  const AnswerCiphertext ct = encrypt_answer(key.epk, Fr::from_u64(3), rng);
  EXPECT_EQ(AnswerCiphertext::from_bytes(ct.to_bytes()), ct);
  EXPECT_THROW(AnswerCiphertext::from_bytes(Bytes(3)), std::invalid_argument);
}

std::vector<Fr> fr_answers(const std::vector<std::uint64_t>& vals) {
  std::vector<Fr> out;
  for (const auto v : vals) out.push_back(Fr::from_u64(v));
  return out;
}

TEST(Policy, MajorityVoteNative) {
  const MajorityVotePolicy policy(4);
  // 3 workers: majority is 1.
  EXPECT_EQ(policy.rewards(fr_answers({1, 1, 2}), 100),
            (std::vector<std::uint64_t>{100, 100, 0}));
  // Tie between 0 and 2 -> lowest index (0) wins.
  EXPECT_EQ(policy.rewards(fr_answers({0, 2, 0, 2}), 50),
            (std::vector<std::uint64_t>{50, 0, 50, 0}));
  // ⊥ (= 4) never rewarded, and never elected majority.
  EXPECT_EQ(policy.rewards(fr_answers({4, 4, 3}), 10), (std::vector<std::uint64_t>{0, 0, 10}));
  EXPECT_EQ(policy.name(), "majority-vote:4");
  EXPECT_THROW(MajorityVotePolicy(1), std::invalid_argument);
}

TEST(Policy, ThresholdAndUniformNative) {
  const ThresholdAgreementPolicy threshold(4, 2);
  EXPECT_EQ(threshold.rewards(fr_answers({1, 1, 2}), 100),
            (std::vector<std::uint64_t>{100, 100, 0}));
  EXPECT_EQ(threshold.rewards(fr_answers({0, 1, 2}), 100),
            (std::vector<std::uint64_t>{0, 0, 0}));
  const UniformPolicy uniform(4);
  EXPECT_EQ(uniform.rewards(fr_answers({0, 3, 4}), 7), (std::vector<std::uint64_t>{7, 7, 0}));
}

TEST(Policy, ByNameRegistry) {
  EXPECT_EQ(IncentivePolicy::by_name("majority-vote:5")->name(), "majority-vote:5");
  EXPECT_EQ(IncentivePolicy::by_name("threshold:4:2")->name(), "threshold:4:2");
  EXPECT_EQ(IncentivePolicy::by_name("uniform:3")->name(), "uniform:3");
  EXPECT_THROW(IncentivePolicy::by_name("bogus"), std::invalid_argument);
}

// Exhaustive gadget/native agreement for all three policies on every
// 3-answer combination over {0..k} (including ⊥).
TEST(Policy, GadgetAgreesWithNativeExhaustively) {
  Rng rng(405);
  const std::vector<std::unique_ptr<IncentivePolicy>> policies = [] {
    std::vector<std::unique_ptr<IncentivePolicy>> out;
    out.push_back(std::make_unique<MajorityVotePolicy>(3));
    out.push_back(std::make_unique<ThresholdAgreementPolicy>(3, 2));
    out.push_back(std::make_unique<UniformPolicy>(3));
    return out;
  }();
  for (const auto& policy : policies) {
    const unsigned k = policy->num_choices();
    for (unsigned a0 = 0; a0 <= k; ++a0) {
      for (unsigned a1 = 0; a1 <= k; ++a1) {
        for (unsigned a2 = 0; a2 <= k; ++a2) {
          const std::vector<Fr> answers = fr_answers({a0, a1, a2});
          const std::vector<std::uint64_t> native = policy->rewards(answers, 30);
          snark::CircuitBuilder b;
          std::vector<snark::Wire> wires;
          for (const Fr& a : answers) wires.push_back(b.witness(a));
          const auto gadget =
              policy->rewards_gadget(b, wires, snark::Wire::constant(Fr::from_u64(30)));
          ASSERT_TRUE(b.constraint_system().is_satisfied(b.assignment()))
              << policy->name() << " " << a0 << a1 << a2;
          for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_EQ(gadget[i].value, Fr::from_u64(native[i]))
                << policy->name() << " answers " << a0 << a1 << a2 << " worker " << i;
          }
        }
      }
    }
  }
}

class RewardProofTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 3;
  static void SetUpTestSuite() {
    rng = new Rng(406);
    spec = new RewardCircuitSpec{kN, "majority-vote:4"};
    keys = new snark::Keypair(reward_setup(*spec, *rng));
  }
  static void TearDownTestSuite() {
    delete keys;
    delete spec;
    delete rng;
  }
  static Rng* rng;
  static RewardCircuitSpec* spec;
  static snark::Keypair* keys;
};
Rng* RewardProofTest::rng = nullptr;
RewardCircuitSpec* RewardProofTest::spec = nullptr;
snark::Keypair* RewardProofTest::keys = nullptr;

TEST_F(RewardProofTest, HonestInstructionVerifies) {
  const TaskEncKeyPair enc = TaskEncKeyPair::generate(*rng);
  std::vector<AnswerCiphertext> cts;
  for (const std::uint64_t a : {2ull, 2ull, 0ull}) {
    cts.push_back(encrypt_answer(enc.epk, Fr::from_u64(a), *rng));
  }
  const RewardInstruction inst = prove_rewards(keys->pk, *spec, enc, 100, cts, *rng);
  EXPECT_EQ(inst.rewards, (std::vector<std::uint64_t>{100, 100, 0}));
  const auto statement = reward_statement(enc.epk, 100, cts, inst.rewards);
  EXPECT_TRUE(snark::verify(keys->vk, statement, inst.proof));
}

TEST_F(RewardProofTest, FalseInstructionRejected) {
  // The false-reporting attack: the requester claims nobody was correct.
  const TaskEncKeyPair enc = TaskEncKeyPair::generate(*rng);
  std::vector<AnswerCiphertext> cts;
  for (const std::uint64_t a : {1ull, 1ull, 1ull}) {
    cts.push_back(encrypt_answer(enc.epk, Fr::from_u64(a), *rng));
  }
  const RewardInstruction honest = prove_rewards(keys->pk, *spec, enc, 100, cts, *rng);
  const std::vector<std::uint64_t> cheat = {0, 0, 0};
  EXPECT_FALSE(
      snark::verify(keys->vk, reward_statement(enc.epk, 100, cts, cheat), honest.proof));
  // Nor can the honest proof be re-bound to a different budget share.
  EXPECT_FALSE(
      snark::verify(keys->vk, reward_statement(enc.epk, 999, cts, honest.rewards), honest.proof));
}

TEST_F(RewardProofTest, WrongKeyCannotProve) {
  const TaskEncKeyPair enc = TaskEncKeyPair::generate(*rng);
  std::vector<AnswerCiphertext> cts;
  for (int i = 0; i < 3; ++i) cts.push_back(encrypt_answer(enc.epk, Fr::from_u64(1), *rng));
  TaskEncKeyPair wrong = TaskEncKeyPair::generate(*rng);
  wrong.epk = enc.epk;  // claims the task's epk but holds a different esk
  EXPECT_THROW(prove_rewards(keys->pk, *spec, wrong, 100, cts, *rng), std::invalid_argument);
}

TEST_F(RewardProofTest, PaddedSlotsEarnNothing) {
  const TaskEncKeyPair enc = TaskEncKeyPair::generate(*rng);
  std::vector<AnswerCiphertext> cts = {encrypt_answer(enc.epk, Fr::from_u64(2), *rng),
                                       encrypt_answer(enc.epk, Fr::from_u64(2), *rng),
                                       placeholder_ciphertext(Fr::from_u64(4))};
  const RewardInstruction inst = prove_rewards(keys->pk, *spec, enc, 100, cts, *rng);
  EXPECT_EQ(inst.rewards, (std::vector<std::uint64_t>{100, 100, 0}));
  EXPECT_TRUE(snark::verify(keys->vk, reward_statement(enc.epk, 100, cts, inst.rewards),
                            inst.proof));
}

// ---------------------------------------------------------------------------
// End-to-end protocol on the simulated test net (the §VI deployment, scaled
// to n = 3 for test latency; the full 3/5/7/9/11 sweep is the e2e bench).
// ---------------------------------------------------------------------------

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng = new Rng(407);
    net = new TestNet({.merkle_depth = 6});
    params = new SystemParams(
        make_system_params(6, {RewardCircuitSpec{3, "majority-vote:4"}}, *rng));

    requester_key = new auth::UserKey(auth::UserKey::generate(*rng));
    auto requester_cert = net->register_participant("requester", requester_key->pk);
    for (int i = 0; i < 3; ++i) {
      worker_keys[i] = new auth::UserKey(auth::UserKey::generate(*rng));
      worker_certs[i] = new auth::Certificate(
          net->register_participant("worker-" + std::to_string(i), worker_keys[i]->pk));
    }
    // Paths grew as registrations happened: refresh everyone.
    requester_cert = net->ra().current_certificate(requester_cert.leaf_index);
    for (int i = 0; i < 3; ++i) {
      *worker_certs[i] = net->ra().current_certificate(worker_certs[i]->leaf_index);
    }
    requester = new RequesterClient(*net, *params, *requester_key, requester_cert,
                                    net->fork_rng("requester"));
    for (int i = 0; i < 3; ++i) {
      workers[i] = new WorkerClient(*net, *params, *worker_keys[i], *worker_certs[i],
                                    net->fork_rng("worker-" + std::to_string(i)));
    }
  }
  static void TearDownTestSuite() {
    for (auto*& w : workers) delete w;
    delete requester;
    for (auto*& k : worker_keys) delete k;
    for (auto*& c : worker_certs) delete c;
    delete requester_key;
    delete params;
    delete net;
    delete rng;
  }

  static Rng* rng;
  static TestNet* net;
  static SystemParams* params;
  static auth::UserKey* requester_key;
  static auth::UserKey* worker_keys[3];
  static auth::Certificate* worker_certs[3];
  static RequesterClient* requester;
  static WorkerClient* workers[3];
};
Rng* EndToEndTest::rng = nullptr;
TestNet* EndToEndTest::net = nullptr;
SystemParams* EndToEndTest::params = nullptr;
auth::UserKey* EndToEndTest::requester_key = nullptr;
auth::UserKey* EndToEndTest::worker_keys[3] = {};
auth::Certificate* EndToEndTest::worker_certs[3] = {};
RequesterClient* EndToEndTest::requester = nullptr;
WorkerClient* EndToEndTest::workers[3] = {};

TEST_F(EndToEndTest, FullImageAnnotationTask) {
  const Fr root = net->on_chain_registry_root();
  ASSERT_EQ(root, net->ra().registry_root());

  // TaskPublish.
  const TaskSpec spec{.budget = 3'000'000,
                      .num_answers = 3,
                      .policy_name = "majority-vote:4",
                      .answer_deadline_blocks = 200,
                      .instruct_deadline_blocks = 200};
  const chain::Address task = requester->publish(spec, root);
  ASSERT_FALSE(task.is_zero());

  // AnswerCollection: workers 0 and 1 label the image "2", worker 2 says "0".
  const Fr labels[3] = {Fr::from_u64(2), Fr::from_u64(2), Fr::from_u64(0)};
  std::vector<Bytes> tx_hashes;
  for (int i = 0; i < 3; ++i) {
    tx_hashes.push_back(workers[i]->submit_answer(task, labels[i]));
  }
  // Wait until all three submissions are confirmed.
  for (const Bytes& h : tx_hashes) {
    const std::uint64_t deadline = net->network().now() + 300'000;
    for (;;) {
      net->network().run_for(50);
      const auto receipt = net->client_node().chain().find_receipt(h);
      if (receipt.has_value()) {
        EXPECT_TRUE(receipt->success) << receipt->error;
        break;
      }
      ASSERT_LT(net->network().now(), deadline) << "submission not confirmed";
    }
  }
  ASSERT_TRUE(requester->collection_complete());

  // Answers share blocks, so the chain, not the call order, orders them:
  // attribute each on-chain slot to its worker by the reward address.
  const auto slot_owners = [&] {
    const auto* contract = net->client_node().chain().state().contract_as<TaskContract>(task);
    std::vector<int> owner;
    for (const auto& s : contract->submissions()) {
      int w = 0;
      while (w < 3 && !(workers[w]->reward_address(task) == s.worker_address)) ++w;
      owner.push_back(w);
    }
    return owner;
  };

  // The requester (and only she) reads the answers.
  const std::vector<Fr> decrypted = requester->decrypted_answers();
  ASSERT_EQ(decrypted.size(), 3u);
  std::vector<int> owner = slot_owners();
  ASSERT_EQ(owner.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_LT(owner[k], 3) << "slot " << k << " belongs to no worker";
    EXPECT_EQ(decrypted[k], labels[owner[k]]) << "slot " << k;
  }

  // On chain there are only ciphertexts — no plaintext answer appears.
  for (const auto& s :
       net->client_node().chain().state().contract_as<TaskContract>(task)->submissions()) {
    EXPECT_NE(s.ciphertext.payload, labels[0]);
    EXPECT_NE(s.ciphertext.payload, labels[2]);
  }

  // Reward: majority is 2 => workers 0 and 1 get budget/3, worker 2 gets 0.
  const std::uint64_t w0_before =
      net->client_node().chain().state().balance_of(workers[0]->reward_address(task));
  const std::uint64_t w2_before =
      net->client_node().chain().state().balance_of(workers[2]->reward_address(task));
  const std::vector<std::uint64_t> rewards = requester->instruct_rewards();
  // instruct_rewards stepped the network: re-read the settled order.
  owner = slot_owners();
  const std::uint64_t expected[3] = {1'000'000, 1'000'000, 0};
  ASSERT_EQ(rewards.size(), 3u);
  ASSERT_EQ(owner.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_LT(owner[k], 3) << "slot " << k << " belongs to no worker";
    EXPECT_EQ(rewards[k], expected[owner[k]]) << "slot " << k << " (worker " << owner[k] << ")";
  }

  const auto& state = net->client_node().chain().state();
  EXPECT_EQ(state.balance_of(workers[0]->reward_address(task)), w0_before + 1'000'000);
  EXPECT_EQ(state.balance_of(workers[2]->reward_address(task)), w2_before)
      << "the minority answer earns nothing";
  const auto* contract = state.contract_as<TaskContract>(task);
  ASSERT_NE(contract, nullptr);
  EXPECT_TRUE(contract->finalized());
  EXPECT_TRUE(contract->rewarded());
  // Contract balance fully disbursed (remainder refunded to alpha_R).
  EXPECT_EQ(state.balance_of(task), 0u);

  // Watchtower audit: the stored instruction + pi_reward re-verify against
  // on-chain state in one batch; a non-contract address fails the audit.
  EXPECT_EQ(contract->rewards(), rewards);
  EXPECT_TRUE(audit_rewarded_tasks(state, {task}).empty());
  const chain::Address bogus = chain::Address::from_bytes(Bytes(20, 0xab));
  EXPECT_EQ(audit_rewarded_tasks(state, {task, bogus, task}),
            (std::vector<std::size_t>{1}));
}

}  // namespace
}  // namespace zl::zebralancer
