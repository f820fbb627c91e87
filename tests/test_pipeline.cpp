// The pipelined §VI lifecycle: a worker's funding transfer and answer are
// sent back to back, so answers share blocks and the miner orders them.
// These tests pin what that may and may not change: an unfunded answer
// simply never lands, a reward proved at once still pays by worker when a
// competing block reorders the answers (the contract keeps submissions in
// a canonical order), a task takes a bounded number of blocks, one block
// of answers to one task prepares the task's auth key once, and a replay
// of the task finds every proof the contract checks already verified.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "chain/validation.h"
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

/// Worker index of each answer in the client node's canonical chain order:
/// by including block, then position in that block. This is the arrival
/// order a miner chose; the contract does not store it.
std::vector<int> chain_order(const TestNet& net, const std::vector<Bytes>& answers) {
  const chain::Blockchain& chain = net.client_node().chain();
  const std::vector<Bytes> canonical = chain.canonical_chain();
  std::vector<std::pair<std::pair<std::uint64_t, std::size_t>, int>> keyed;
  for (std::size_t w = 0; w < answers.size(); ++w) {
    const std::optional<std::uint64_t> number = chain.confirmation_block(answers[w]);
    if (!number.has_value()) continue;
    const std::vector<chain::Transaction>& txs =
        chain.block_by_hash(canonical[*number])->transactions;
    std::size_t pos = 0;
    while (pos < txs.size() && txs[pos].hash() != answers[w]) ++pos;
    keyed.push_back({{*number, pos}, static_cast<int>(w)});
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<int> order;
  for (const auto& entry : keyed) order.push_back(entry.second);
  return order;
}

/// Hashes of the canonical blocks that include the answers.
std::set<Bytes> including_blocks(const TestNet& net, const std::vector<Bytes>& answers) {
  const chain::Blockchain& chain = net.client_node().chain();
  const std::vector<Bytes> canonical = chain.canonical_chain();
  std::set<Bytes> blocks;
  for (const Bytes& h : answers) {
    const std::optional<std::uint64_t> number = chain.confirmation_block(h);
    if (number.has_value()) blocks.insert(canonical[*number]);
  }
  return blocks;
}

/// One n = 3 task under slow gossip (40–60 ms per hop against ~64 ms
/// blocks), so the two miners race often. The requester proves its reward
/// as soon as every answer has a receipt on its node, with no wait for the
/// answers' blocks to settle. Records the chain's answer order at that
/// point and after the reward, and checks that every worker was paid by
/// its own answer: the majority label 2 earns the share.
struct RaceOutcome {
  std::vector<int> first_order;  // chain order when the requester proved
  std::set<Bytes> first_blocks;  // the blocks that held the answers then
  std::vector<int> final_order;  // chain order once the reward confirmed
  std::set<Bytes> final_blocks;
};

void run_race(std::uint64_t seed, RaceOutcome& out) {
  constexpr unsigned kN = 3;
  Rng rng(9001);
  const SystemParams params = make_system_params(kDepth, {RewardCircuitSpec{kN, kPolicy}}, rng);
  TestNet net({.base_latency_ms = 40, .jitter_ms = 20, .seed = seed, .merkle_depth = kDepth});
  Rng key_rng(seed);
  Participants p = register_participants(net, params, kN, key_rng);
  const chain::Address task = p.requester->publish(
      {.budget = 3'000'000, .num_answers = kN, .policy_name = kPolicy},
      net.on_chain_registry_root());
  const Fr labels[kN] = {Fr::from_u64(2), Fr::from_u64(2), Fr::from_u64(0)};
  std::vector<Bytes> hashes;
  for (unsigned i = 0; i < kN; ++i) hashes.push_back(p.workers[i]->submit_answer(task, labels[i]));
  await_receipts(net, hashes);
  out.first_order = chain_order(net, hashes);
  out.first_blocks = including_blocks(net, hashes);

  std::vector<std::uint64_t> rewards;
  ASSERT_NO_THROW(rewards = p.requester->instruct_rewards());
  out.final_order = chain_order(net, hashes);
  out.final_blocks = including_blocks(net, hashes);

  // Paid by worker, not by position.
  const std::uint64_t expected[kN] = {1'000'000, 1'000'000, 0};
  const std::vector<int> owners = slot_owners(net, task, p.workers);
  ASSERT_EQ(rewards.size(), kN);
  ASSERT_EQ(owners.size(), kN);
  for (std::size_t k = 0; k < kN; ++k) {
    ASSERT_GE(owners[k], 0) << "slot " << k;
    EXPECT_EQ(rewards[k], expected[owners[k]]) << "slot " << k;
  }
  const auto* contract = net.client_node().chain().state().contract_as<TaskContract>(task);
  ASSERT_NE(contract, nullptr);
  EXPECT_TRUE(contract->rewarded());
  EXPECT_EQ(contract->rewards(), rewards);
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
  // At this seed the miners mine competing blocks that hold the same three
  // answers in different orders: the client node first sees one block
  // order, and the other branch wins after the requester has proved. An
  // arrival-order reward statement would revert ("reward proof invalid");
  // the canonical submission order makes the first proof valid on both.
  constexpr std::uint64_t kSeed = 61;
  RaceOutcome race;
  ASSERT_NO_FATAL_FAILURE(run_race(kSeed, race));
  bool first_block_orphaned = false;
  for (const Bytes& block : race.first_blocks) {
    if (!race.final_blocks.contains(block)) first_block_orphaned = true;
  }
  ASSERT_TRUE(first_block_orphaned) << "scenario lost: the first answer blocks stayed canonical";
  ASSERT_NE(race.first_order, race.final_order)
      << "scenario lost: the winning blocks hold the answers in the same order";
}

/// The other seeds of tools/reorg_sweep (besides 61 above) at which the
/// winning branch reorders the answers after the requester has proved:
/// with an arrival-order statement and no settle wait, each reverted.
class ReorderedAnswersStillPay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReorderedAnswersStillPay, AtSeed) {
  RaceOutcome race;
  ASSERT_NO_FATAL_FAILURE(run_race(GetParam(), race));
  EXPECT_NE(race.first_order, race.final_order) << "seed no longer reorders the answers";
}

INSTANTIATE_TEST_SUITE_P(PipelinedLifecycle, ReorderedAnswersStillPay,
                         ::testing::Values(94, 98),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

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
  // Funding, deploy, funding, answers, reward: about five blocks when
  // nothing forks. Blocking on every funding took ~35.
  ASSERT_TRUE(reward_block.has_value()) << "reward not on the canonical chain";
  EXPECT_LE(*reward_block - publish_height, 10u);
  const auto* contract = net->client_node().chain().state().contract_as<TaskContract>(task);
  ASSERT_NE(contract, nullptr);
  EXPECT_TRUE(contract->rewarded());
  EXPECT_EQ(contract->submissions().size(), kN);
  if (ZL_OBS_ENABLED) {
    // The waits are traced: confirmations only for the RA contract, its
    // root updates, the deploy and the reward (fundings do not wait), and
    // no other wait: the reward is proved as soon as collection completes.
    for (const auto& entry : run_obs.spans) {
      const std::string& name = entry.first;
      if (name.starts_with("testnet.")) {
        EXPECT_EQ(name, "testnet.submit_and_confirm");
      }
    }
    ASSERT_NE(run_obs.span("testnet.submit_and_confirm"), nullptr);
    EXPECT_EQ(run_obs.span("testnet.submit_and_confirm")->count, 1u + (kN + 1) + 2);
  }
}

TEST_F(ElevenAnswerTask, RestoreRejectsOutOfOrderSubmissions) {
  const auto* contract = net->client_node().chain().state().contract_as<TaskContract>(task);
  ASSERT_NE(contract, nullptr);
  std::vector<TaskContract::Submission> subs = contract->submissions();
  ASSERT_EQ(subs.size(), kN);
  // The snapshot layout, rebuilt from the public state with the
  // submissions in the given order.
  const auto encode = [&](const std::vector<TaskContract::Submission>& order) {
    Bytes out;
    append_frame(out, contract->params().to_bytes());
    append_u32_be(out, static_cast<std::uint32_t>(order.size()));
    for (const TaskContract::Submission& s : order) {
      append_frame(out, s.worker_address.to_bytes());
      append_frame(out, s.attestation.to_bytes());
      append_frame(out, s.classic_pk);
      append_frame(out, s.ciphertext.to_bytes());
    }
    append_u64_be(out, contract->deploy_block());
    append_u64_be(out, contract->collection_end_block());
    out.push_back(contract->finalized() ? 1 : 0);
    out.push_back(contract->rewarded() ? 1 : 0);
    append_u32_be(out, static_cast<std::uint32_t>(contract->rewards().size()));
    for (const std::uint64_t r : contract->rewards()) append_u64_be(out, r);
    append_frame(out, contract->reward_proof().to_bytes());
    return out;
  };
  const Bytes canonical = encode(subs);
  ASSERT_EQ(contract->snapshot_state(), canonical) << "layout drifted from snapshot_state";
  TaskContract restored;
  ASSERT_NO_THROW(restored.restore_state(canonical));
  EXPECT_EQ(restored.snapshot_state(), canonical);

  // Stored submissions are sorted by one-task address; a snapshot that
  // lists two out of that order is corrupt, not a different task.
  std::swap(subs[3], subs[7]);
  EXPECT_THROW(TaskContract().restore_state(encode(subs)), std::invalid_argument);
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

  // Replay the whole task, through the reward block, into a cold replica:
  // every proof the contract checks (the deploy, the kN submits and the
  // reward) was warmed by prevalidation under the same key the handler
  // looks up, so the precheck and the handler verify the same triple.
  ASSERT_TRUE(reward_block.has_value());
  chain::clear_validation_caches();
  zl::obs::reset();
  chain::Blockchain full_replay(chain.genesis_config());
  for (std::uint64_t n = 1; n <= *reward_block; ++n) {
    ASSERT_TRUE(full_replay.add_block(*chain.block_by_hash(canonical[n])));
  }
  const zl::obs::Snapshot replay = zl::obs::snapshot();
  EXPECT_EQ(replay.counter("validation.snark_precheck.items"), kN + 2);
  EXPECT_EQ(replay.counter("validation.snark_cache.hit"), kN + 2);
  EXPECT_EQ(replay.counter("validation.snark_cache.miss"), 0u);
}

}  // namespace
}  // namespace zl::zebralancer
