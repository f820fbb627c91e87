// The pipelined §VI lifecycle: a worker's funding transfer and answer are
// sent back to back, so answers share blocks and the miner orders them.
// These tests pin what that may and may not change: an unfunded answer
// simply never lands, rewards prove against the settled submission order,
// a task takes a bounded number of blocks, and one block of answers to one
// task prepares the task's auth key once.
#include <gtest/gtest.h>

#include "obs/obs.h"
#include "zebralancer/scenario.h"

namespace zl::zebralancer {
namespace {

constexpr unsigned kDepth = 6;
constexpr const char* kPolicy = "majority-vote:4";

/// A requester and `n` workers registered on `net`, with certificates
/// fetched once the registry is complete.
struct Participants {
  std::unique_ptr<RequesterClient> requester;
  std::vector<std::unique_ptr<WorkerClient>> workers;
};

Participants register_participants(TestNet& net, const SystemParams& params, unsigned n,
                                   Rng& rng) {
  const auth::UserKey requester_key = auth::UserKey::generate(rng);
  const std::size_t requester_leaf =
      net.register_participant("requester", requester_key.pk).leaf_index;
  std::vector<auth::UserKey> keys;
  std::vector<std::size_t> leaves;
  for (unsigned i = 0; i < n; ++i) {
    keys.push_back(auth::UserKey::generate(rng));
    leaves.push_back(
        net.register_participant("worker-" + std::to_string(i), keys.back().pk).leaf_index);
  }
  Participants p;
  p.requester = std::make_unique<RequesterClient>(
      net, params, requester_key, net.ra().current_certificate(requester_leaf),
      net.fork_rng("requester"));
  for (unsigned i = 0; i < n; ++i) {
    p.workers.push_back(std::make_unique<WorkerClient>(
        net, params, keys[i], net.ra().current_certificate(leaves[i]),
        net.fork_rng("worker-" + std::to_string(i))));
  }
  return p;
}

/// Run the network until every hash has a receipt on the client node.
void await_receipts(TestNet& net, const std::vector<Bytes>& hashes) {
  const std::uint64_t deadline = net.network().now() + 300'000;
  for (const Bytes& h : hashes) {
    while (!net.client_node().chain().find_receipt(h).has_value()) {
      ASSERT_LT(net.network().now(), deadline) << "submission not confirmed";
      net.network().run_for(50);
    }
  }
}

/// Worker index behind each on-chain submission slot, matched by the
/// one-task reward address (-1 for a slot no worker sent).
std::vector<int> slot_owners(const TestNet& net, const chain::Address& task,
                             const std::vector<std::unique_ptr<WorkerClient>>& workers) {
  std::vector<int> owners;
  const auto* contract = net.client_node().chain().state().contract_as<TaskContract>(task);
  if (contract == nullptr) return owners;
  for (const TaskContract::Submission& s : contract->submissions()) {
    int owner = -1;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (workers[w]->reward_address(task) == s.worker_address) owner = static_cast<int>(w);
    }
    owners.push_back(owner);
  }
  return owners;
}

TEST(PipelinedLifecycle, UnfundedAnswerNeverGetsAReceipt) {
  // The faucet covers the requester's funding (budget + deploy gas + 3M)
  // but not one worker's 3M on top: the worker's transfer stays unmined, so
  // its answer stays unfunded.
  Rng rng(1701);
  TestNet net({.faucet_supply = 8'000'000, .seed = 1701, .merkle_depth = kDepth});
  const SystemParams params = make_system_params(kDepth, {RewardCircuitSpec{2, kPolicy}}, rng);
  Participants p = register_participants(net, params, 1, rng);
  const chain::Address task = p.requester->publish(
      {.budget = 2'000'000, .num_answers = 2, .policy_name = kPolicy},
      net.on_chain_registry_root());

  Bytes answer;
  ASSERT_NO_THROW(answer = p.workers[0]->submit_answer(task, Fr::from_u64(1)));
  ASSERT_NO_THROW(net.advance_blocks(8));
  const chain::Blockchain& chain = net.client_node().chain();
  EXPECT_FALSE(chain.find_receipt(answer).has_value()) << "an unfunded answer cannot land";
  EXPECT_EQ(chain.state().balance_of(p.workers[0]->reward_address(task)), 0u);
  EXPECT_TRUE(chain.state().contract_as<TaskContract>(task)->submissions().empty());
  EXPECT_FALSE(p.requester->collection_complete());
}

TEST(PipelinedLifecycle, RewardsProveAgainstSettledOrder) {
  // Slow gossip (40–60 ms per hop against ~64 ms blocks) makes the two
  // miners race often. At this seed they mine competing blocks that hold
  // the same three answers in different orders: the client node first sees
  // one order, the other branch wins. A reward proof over the first order
  // reverts ("reward proof invalid"); instruct_rewards must wait until the
  // order is settled and prove against that.
  constexpr unsigned kN = 3;
  Rng rng(9001);
  const SystemParams params = make_system_params(kDepth, {RewardCircuitSpec{kN, kPolicy}}, rng);
  constexpr std::uint64_t kSeed = 61;  // see the scenario above
  TestNet net({.base_latency_ms = 40, .jitter_ms = 20, .seed = kSeed, .merkle_depth = kDepth});
  Rng key_rng(kSeed);
  Participants p = register_participants(net, params, kN, key_rng);
  const chain::Address task = p.requester->publish(
      {.budget = 3'000'000, .num_answers = kN, .policy_name = kPolicy},
      net.on_chain_registry_root());
  const Fr labels[kN] = {Fr::from_u64(2), Fr::from_u64(2), Fr::from_u64(0)};
  std::vector<Bytes> hashes;
  for (unsigned i = 0; i < kN; ++i) hashes.push_back(p.workers[i]->submit_answer(task, labels[i]));
  await_receipts(net, hashes);
  const std::vector<int> first_seen = slot_owners(net, task, p.workers);

  std::vector<std::uint64_t> rewards;
  ASSERT_NO_THROW(rewards = p.requester->instruct_rewards());
  const std::vector<int> settled = slot_owners(net, task, p.workers);
  ASSERT_NE(first_seen, settled) << "scenario lost: no competing block reordered the answers";

  // Paid by worker, not by position: the majority label 2 earns the share.
  const std::uint64_t expected[kN] = {1'000'000, 1'000'000, 0};
  ASSERT_EQ(rewards.size(), kN);
  ASSERT_EQ(settled.size(), kN);
  for (std::size_t k = 0; k < kN; ++k) {
    ASSERT_GE(settled[k], 0) << "slot " << k;
    EXPECT_EQ(rewards[k], expected[settled[k]]) << "slot " << k;
  }
  const auto* contract = net.client_node().chain().state().contract_as<TaskContract>(task);
  ASSERT_NE(contract, nullptr);
  EXPECT_TRUE(contract->rewarded());
  EXPECT_EQ(contract->rewards(), rewards);
}

/// One n = 11 task run end to end on the default TestNet; the tests below
/// read what it recorded.
class ElevenAnswerTask : public ::testing::Test {
 protected:
  static constexpr unsigned kN = 11;

  static void SetUpTestSuite() {
    zl::obs::reset();
    Rng rng(1103);
    params = new SystemParams(make_system_params(kDepth, {RewardCircuitSpec{kN, kPolicy}}, rng));
    net = new TestNet({.seed = 1103, .merkle_depth = kDepth});
    Participants p = register_participants(*net, *params, kN, rng);
    publish_height = net->height();
    task = p.requester->publish(
        {.budget = 1'000'000ull * kN, .num_answers = kN, .policy_name = kPolicy},
        net->on_chain_registry_root());
    for (unsigned i = 0; i < kN; ++i) {
      answer_hashes.push_back(p.workers[i]->submit_answer(task, Fr::from_u64(i % 3)));
    }
    await_receipts(*net, answer_hashes);
    p.requester->instruct_rewards();
    reward_block = net->client_node().chain().confirmation_block(p.requester->reward_tx_hash());
    run_obs = zl::obs::snapshot();
  }
  static void TearDownTestSuite() {
    delete net;
    delete params;
  }

  static SystemParams* params;
  static TestNet* net;
  static chain::Address task;
  static std::uint64_t publish_height;
  static std::vector<Bytes> answer_hashes;
  static std::optional<std::uint64_t> reward_block;
  static zl::obs::Snapshot run_obs;  // obs of the run alone
};
SystemParams* ElevenAnswerTask::params = nullptr;
TestNet* ElevenAnswerTask::net = nullptr;
chain::Address ElevenAnswerTask::task;
std::uint64_t ElevenAnswerTask::publish_height = 0;
std::vector<Bytes> ElevenAnswerTask::answer_hashes;
std::optional<std::uint64_t> ElevenAnswerTask::reward_block;
zl::obs::Snapshot ElevenAnswerTask::run_obs;

TEST_F(ElevenAnswerTask, BlocksFromPublishToRewardBounded) {
  // Funding, deploy, funding, answers, the settle block, reward: about six
  // blocks when nothing forks. Blocking on every funding took ~35.
  ASSERT_TRUE(reward_block.has_value()) << "reward not on the canonical chain";
  EXPECT_LE(*reward_block - publish_height, 10u);
  const auto* contract = net->client_node().chain().state().contract_as<TaskContract>(task);
  ASSERT_NE(contract, nullptr);
  EXPECT_TRUE(contract->rewarded());
  EXPECT_EQ(contract->submissions().size(), kN);
  if (ZL_OBS_ENABLED) {
    // The waits are traced: one settle, and confirmations only for the RA
    // contract, its root updates, the deploy and the reward (fundings do
    // not wait).
    ASSERT_NE(run_obs.span("testnet.settle_collection"), nullptr);
    EXPECT_EQ(run_obs.span("testnet.settle_collection")->count, 1u);
    ASSERT_NE(run_obs.span("testnet.submit_and_confirm"), nullptr);
    EXPECT_EQ(run_obs.span("testnet.submit_and_confirm")->count, 1u + (kN + 1) + 2);
  }
}

TEST_F(ElevenAnswerTask, AnswerBlockPreparesAuthKeyOnce) {
  if (!ZL_OBS_ENABLED) GTEST_SKIP() << "needs the obs counters";
  // The answers were funded together, so they land in one block.
  const chain::Blockchain& chain = net->client_node().chain();
  const std::optional<std::uint64_t> block_number = chain.confirmation_block(answer_hashes[0]);
  ASSERT_TRUE(block_number.has_value());
  for (const Bytes& h : answer_hashes) EXPECT_EQ(chain.confirmation_block(h), block_number);

  // Rebuild the block's pre-state on a fresh replica, then prevalidate the
  // block: 11 auth-proof prechecks under one key, one key preparation.
  const std::vector<Bytes> canonical = chain.canonical_chain();
  chain::Blockchain replica(chain.genesis_config());
  for (std::uint64_t n = 1; n < *block_number; ++n) {
    ASSERT_TRUE(replica.add_block(*chain.block_by_hash(canonical[n])));
  }
  const chain::Block& answers = *chain.block_by_hash(canonical[*block_number]);
  zl::obs::reset();
  chain::prevalidate_block(replica.state(), answers.transactions);
  const zl::obs::Snapshot snap = zl::obs::snapshot();
  EXPECT_EQ(snap.counter("validation.snark_precheck.items"), kN);
  EXPECT_EQ(snap.counter("snark.prepare_key"), 1u);
}

}  // namespace
}  // namespace zl::zebralancer
