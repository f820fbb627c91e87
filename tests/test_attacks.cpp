// Adversarial integration tests — every attack discussed in the paper's
// security analysis (§V-C) is mounted against the live test net and must be
// defeated by the protocol:
//   * free-riders: double submission, copy-and-resubmit (footnote 9),
//     uncertified identities, submission outside the collection window
//   * false-reporters: wrong reward vectors, non-requester instructions,
//     withheld instructions (timeout fallback), missing budget deposit
//   * a requester submitting to her own task (reward downgrading)
#include <gtest/gtest.h>

#include "zebralancer/scenario.h"

namespace zl::zebralancer {
namespace {

constexpr unsigned kDepth = 6;

class AttackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng = new Rng(501);
    net = new TestNet({.merkle_depth = kDepth});
    params = new SystemParams(
        make_system_params(kDepth, {RewardCircuitSpec{2, "majority-vote:4"}}, *rng));

    requester_key = new auth::UserKey(auth::UserKey::generate(*rng));
    worker_key[0] = new auth::UserKey(auth::UserKey::generate(*rng));
    worker_key[1] = new auth::UserKey(auth::UserKey::generate(*rng));
    auto rc = net->register_participant("requester", requester_key->pk);
    auto w0 = net->register_participant("worker-0", worker_key[0]->pk);
    auto w1 = net->register_participant("worker-1", worker_key[1]->pk);
    rc = net->ra().current_certificate(rc.leaf_index);
    w0 = net->ra().current_certificate(w0.leaf_index);
    w1 = net->ra().current_certificate(w1.leaf_index);
    requester_cert = new auth::Certificate(rc);
    worker_cert[0] = new auth::Certificate(w0);
    worker_cert[1] = new auth::Certificate(w1);
  }
  static void TearDownTestSuite() {
    delete worker_cert[1];
    delete worker_cert[0];
    delete requester_cert;
    delete worker_key[1];
    delete worker_key[0];
    delete requester_key;
    delete params;
    delete net;
    delete rng;
  }

  /// Publish a fresh 2-answer task; returns (client, task address).
  static std::pair<std::unique_ptr<RequesterClient>, chain::Address> publish_task(
      std::uint64_t ta_blocks = 300, std::uint64_t ti_blocks = 300) {
    auto client = std::make_unique<RequesterClient>(
        *net, *params, *requester_key, *requester_cert, net->fork_rng("req"));
    const chain::Address task =
        client->publish({.budget = 2'000'000,
                         .num_answers = 2,
                         .policy_name = "majority-vote:4",
                         .answer_deadline_blocks = ta_blocks,
                         .instruct_deadline_blocks = ti_blocks},
                        net->on_chain_registry_root());
    return {std::move(client), task};
  }

  /// Submit and wait for the receipt.
  static chain::Receipt confirm(const Bytes& tx_hash) {
    const std::uint64_t deadline = net->network().now() + 300'000;
    for (;;) {
      net->network().run_for(50);
      const auto receipt = net->client_node().chain().find_receipt(tx_hash);
      if (receipt.has_value()) return *receipt;
      if (net->network().now() >= deadline) throw std::runtime_error("tx not confirmed");
    }
  }

  /// Hand-crafted submission from an arbitrary wallet with arbitrary
  /// attestation/ciphertext (for replay/copy attacks).
  static chain::Receipt raw_submit(chain::Wallet& wallet, const chain::Address& task,
                                   const auth::Attestation& att, const AnswerCiphertext& ct) {
    const chain::Transaction tx = wallet.make_transaction(
        task, 0, 2'000'000, "submit", TaskContract::encode_submit_args(att.to_bytes(), ct));
    return net->submit_and_confirm(tx);
  }

  static const TaskContract& task_at(const chain::Address& addr) {
    const auto* c = net->client_node().chain().state().contract_as<TaskContract>(addr);
    if (c == nullptr) throw std::runtime_error("no contract");
    return *c;
  }

  static Rng* rng;
  static TestNet* net;
  static SystemParams* params;
  static auth::UserKey* requester_key;
  static auth::UserKey* worker_key[2];
  static auth::Certificate* requester_cert;
  static auth::Certificate* worker_cert[2];
};
Rng* AttackTest::rng = nullptr;
TestNet* AttackTest::net = nullptr;
SystemParams* AttackTest::params = nullptr;
auth::UserKey* AttackTest::requester_key = nullptr;
auth::UserKey* AttackTest::worker_key[2] = {};
auth::Certificate* AttackTest::requester_cert = nullptr;
auth::Certificate* AttackTest::worker_cert[2] = {};

TEST_F(AttackTest, DoubleSubmissionDropped) {
  auto [client, task] = publish_task();
  WorkerClient honest(*net, *params, *worker_key[0], *worker_cert[0], net->fork_rng("w0"));
  EXPECT_TRUE(confirm(honest.submit_answer(task, Fr::from_u64(1))).success);

  // Same identity submits again — fresh one-task address, fresh attestation,
  // but the t1 tag links: the contract must drop it.
  WorkerClient again(*net, *params, *worker_key[0], *worker_cert[0], net->fork_rng("w0b"));
  const chain::Receipt second = confirm(again.submit_answer(task, Fr::from_u64(2)));
  EXPECT_FALSE(second.success);
  EXPECT_NE(second.error.find("double submission"), std::string::npos) << second.error;
  EXPECT_EQ(task_at(task).submissions().size(), 1u);
}

TEST_F(AttackTest, CopyAttackReplayRejected) {
  // Free-riding (footnote 9): the adversary observes worker 0's broadcast
  // (C_i, pi_i) before confirmation and resubmits it from his own address.
  auto [client, task] = publish_task();
  const Fr root = net->on_chain_registry_root();

  // Build worker 0's legitimate submission by hand so we hold its parts.
  Rng wrng = net->fork_rng("victim");
  chain::Wallet victim_wallet(wrng);
  net->fund(victim_wallet.address(), 3'000'000);
  const JubjubPoint epk = JubjubPoint::from_bytes(task_at(task).params().epk);
  const AnswerCiphertext ct = encrypt_answer(epk, Fr::from_u64(3), wrng);
  const Bytes rest = concat({victim_wallet.address().to_bytes(), ct.to_bytes()});
  const auth::Attestation att = auth::authenticate(params->auth, task.to_bytes(), rest,
                                                   *worker_key[0], *worker_cert[0], root, wrng);

  // The attacker races it from his own funded address. Verification binds
  // the attested alpha_i to the actual sender, so the copy must fail even
  // though it arrives FIRST.
  Rng arng = net->fork_rng("attacker");
  chain::Wallet attacker_wallet(arng);
  net->fund(attacker_wallet.address(), 3'000'000);
  const chain::Receipt stolen = raw_submit(attacker_wallet, task, att, ct);
  EXPECT_FALSE(stolen.success);
  EXPECT_NE(stolen.error.find("attestation invalid"), std::string::npos) << stolen.error;

  // The victim's original still goes through afterwards.
  const chain::Receipt original = raw_submit(victim_wallet, task, att, ct);
  EXPECT_TRUE(original.success) << original.error;
}

TEST_F(AttackTest, UncertifiedIdentityRejected) {
  // A rogue RA certifies an identity the real RA never saw; its root is not
  // the on-chain root, so the attestation cannot verify.
  auto [client, task] = publish_task();
  Rng orng = net->fork_rng("outsider");
  const auth::UserKey outsider = auth::UserKey::generate(orng);
  auth::RegistrationAuthority rogue_ra(kDepth);
  const auth::Certificate rogue_cert = rogue_ra.register_identity("outsider", outsider.pk);

  chain::Wallet wallet(orng);
  net->fund(wallet.address(), 3'000'000);
  const JubjubPoint epk = JubjubPoint::from_bytes(task_at(task).params().epk);
  const AnswerCiphertext ct = encrypt_answer(epk, Fr::from_u64(1), orng);
  const Bytes rest = concat({wallet.address().to_bytes(), ct.to_bytes()});
  // The outsider can only prove membership under the rogue root.
  const auth::Attestation att = auth::authenticate(
      params->auth, task.to_bytes(), rest, outsider, rogue_cert, rogue_ra.registry_root(), orng);
  const chain::Receipt receipt = raw_submit(wallet, task, att, ct);
  EXPECT_FALSE(receipt.success);
  EXPECT_NE(receipt.error.find("attestation invalid"), std::string::npos) << receipt.error;
}

TEST_F(AttackTest, RequesterCannotSubmitToOwnTask) {
  // Downgrading attack: the requester anonymously submits an answer to her
  // own task. Link(pi_i, pi_R) exposes her.
  auto [client, task] = publish_task();
  WorkerClient disguised(*net, *params, *requester_key, *requester_cert,
                         net->fork_rng("disguised"));
  const chain::Receipt receipt = confirm(disguised.submit_answer(task, Fr::from_u64(0)));
  EXPECT_FALSE(receipt.success);
  EXPECT_NE(receipt.error.find("requester cannot submit"), std::string::npos) << receipt.error;
}

TEST_F(AttackTest, WithheldInstructionTriggersFallbackSplit) {
  // False-reporting by silence: the requester collects answers but never
  // sends an instruction. After T_I anyone can finalize; each submitter
  // gets tau/||W|| and the remainder returns to alpha_R.
  auto [client, task] = publish_task(/*ta=*/8, /*ti=*/8);
  WorkerClient w0(*net, *params, *worker_key[0], *worker_cert[0], net->fork_rng("f0"));
  const chain::Receipt sub = confirm(w0.submit_answer(task, Fr::from_u64(1)));
  ASSERT_TRUE(sub.success) << sub.error;
  const chain::Address reward_addr = w0.reward_address(task);
  const std::uint64_t before = net->client_node().chain().state().balance_of(reward_addr);

  // Let both deadlines lapse.
  net->advance_blocks(20);
  ASSERT_GT(net->height(), task_at(task).instruction_deadline());

  Rng prng = net->fork_rng("poker");
  chain::Wallet poker(prng);
  net->fund(poker.address(), 1'000'000);
  const chain::Receipt fin = net->submit_and_confirm(
      poker.make_transaction(task, 0, 500'000, "finalize", {}));
  ASSERT_TRUE(fin.success) << fin.error;

  const auto& state = net->client_node().chain().state();
  // tau / ||W|| = 2'000'000 / 1.
  EXPECT_EQ(state.balance_of(reward_addr), before + 2'000'000);
  EXPECT_EQ(state.balance_of(task), 0u);
  EXPECT_TRUE(task_at(task).finalized());
  EXPECT_FALSE(task_at(task).rewarded());
}

TEST_F(AttackTest, EarlyFinalizeAndForeignRewardRejected) {
  auto [client, task] = publish_task();
  // Finalize before the window closes: rejected.
  Rng prng = net->fork_rng("early");
  chain::Wallet poker(prng);
  net->fund(poker.address(), 5'000'000);  // enough for both probes' gas
  const chain::Receipt early = net->submit_and_confirm(
      poker.make_transaction(task, 0, 500'000, "finalize", {}));
  EXPECT_FALSE(early.success);
  // Reward instruction from anyone but alpha_R: rejected before any proof
  // is even checked.
  const chain::Receipt foreign = net->submit_and_confirm(poker.make_transaction(
      task, 0, 2'000'000, "reward",
      TaskContract::encode_reward_args({1'000'000, 1'000'000}, snark::Proof{})));
  EXPECT_FALSE(foreign.success);
  EXPECT_NE(foreign.error.find("not the requester"), std::string::npos) << foreign.error;
}

TEST_F(AttackTest, SubmissionAfterDeadlineRejected) {
  auto [client, task] = publish_task(/*ta=*/5, /*ti=*/50);
  net->advance_blocks(10);
  ASSERT_GT(net->height(), task_at(task).collection_deadline());
  WorkerClient late(*net, *params, *worker_key[1], *worker_cert[1], net->fork_rng("late"));
  EXPECT_THROW(late.submit_answer(task, Fr::from_u64(1)), std::invalid_argument)
      << "client-side validation notices the closed window";
}

TEST_F(AttackTest, BudgetNotDepositedRejectsDeployment) {
  // Craft a deployment whose attached value is below the declared budget
  // (Algorithm 1 line 3).
  Rng drng = net->fork_rng("cheap");
  chain::Wallet wallet(drng);
  const chain::Address alpha_r = wallet.address();
  const chain::Address alpha_c = chain::Address::for_contract(alpha_r, 0);
  const auth::Attestation att =
      auth::authenticate(params->auth, alpha_c.to_bytes(), alpha_r.to_bytes(), *requester_key,
                         *requester_cert, net->on_chain_registry_root(), drng);
  TaskParams p;
  p.requester_address = alpha_r;
  p.requester_attestation = att.to_bytes();
  p.registry_root = net->on_chain_registry_root();
  p.budget = 2'000'000;
  Rng erng = net->fork_rng("enc");
  p.epk = TaskEncKeyPair::generate(erng).epk.to_bytes();
  p.num_answers = 2;
  p.answer_deadline_blocks = 10;
  p.instruct_deadline_blocks = 10;
  p.policy_name = "majority-vote:4";
  p.auth_vk = params->auth.keys.vk.to_bytes();
  p.reward_vk = params->reward_keypair({2, "majority-vote:4"}).vk.to_bytes();

  net->fund(alpha_r, 6'000'000);
  const Bytes args = p.to_bytes();
  // Attach only half the budget.
  const chain::Receipt receipt = net->submit_and_confirm(wallet.make_transaction(
      chain::Address(), 1'000'000, 2'000'000 + 2 * args.size(), TaskContract::kContractType,
      args));
  EXPECT_FALSE(receipt.success);
  EXPECT_NE(receipt.error.find("budget not deposited"), std::string::npos) << receipt.error;
}

}  // namespace
}  // namespace zl::zebralancer
