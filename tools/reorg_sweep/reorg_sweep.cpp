// reorg_sweep — the reward path under competing blocks, over 100 seeds.
//
//   reorg_sweep        # prints one line per notable seed, then a summary
//
// Each seed runs one n = 3 task (majority-vote:4, labels 2, 2, 0) on a
// TestNet with slow gossip: 40 ms per hop plus up to 20 ms jitter, against
// ~64 ms blocks, so the two miners often mine competing blocks that hold
// the same answers in different orders. The requester proves its reward
// instruction as soon as every answer has a receipt on its node. A seed
// fails if anything throws (a reverted reward instruction throws), if the
// task is not rewarded, or if a worker is not paid by its own answer.
// Seeds whose answers the chain reordered after the requester first saw
// them are listed: they are the ones an arrival-order reward statement
// would break. Exits non-zero on any failing seed.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "zebralancer/scenario.h"

namespace {

using namespace zl;
using namespace zl::zebralancer;

constexpr unsigned kDepth = 6;
constexpr unsigned kN = 3;
constexpr const char* kPolicy = "majority-vote:4";
constexpr std::uint64_t kSeeds = 100;

/// Worker index of each answer in the client node's canonical chain order:
/// by including block, then position in that block. Unconfirmed answers
/// are left out.
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

struct Outcome {
  bool reordered = false;  // the chain's answer order changed after first sight
  std::string failure;     // empty = rewarded, every worker paid by its answer
};

Outcome run_seed(const SystemParams& params, std::uint64_t seed) {
  Outcome out;
  TestNet net({.base_latency_ms = 40, .jitter_ms = 20, .seed = seed, .merkle_depth = kDepth});
  Rng rng(seed);
  const auth::UserKey requester_key = auth::UserKey::generate(rng);
  const std::size_t requester_leaf =
      net.register_participant("requester", requester_key.pk).leaf_index;
  std::vector<auth::UserKey> keys;
  std::vector<std::size_t> leaves;
  for (unsigned i = 0; i < kN; ++i) {
    keys.push_back(auth::UserKey::generate(rng));
    leaves.push_back(
        net.register_participant("worker-" + std::to_string(i), keys.back().pk).leaf_index);
  }
  RequesterClient requester(net, params, requester_key,
                            net.ra().current_certificate(requester_leaf),
                            net.fork_rng("requester"));
  std::vector<std::unique_ptr<WorkerClient>> workers;
  for (unsigned i = 0; i < kN; ++i) {
    workers.push_back(std::make_unique<WorkerClient>(
        net, params, keys[i], net.ra().current_certificate(leaves[i]),
        net.fork_rng("worker-" + std::to_string(i))));
  }
  const chain::Address task = requester.publish(
      {.budget = 3'000'000, .num_answers = kN, .policy_name = kPolicy},
      net.on_chain_registry_root());
  const Fr labels[kN] = {Fr::from_u64(2), Fr::from_u64(2), Fr::from_u64(0)};
  std::vector<Bytes> answers;
  for (unsigned i = 0; i < kN; ++i) answers.push_back(workers[i]->submit_answer(task, labels[i]));

  const std::uint64_t deadline = net.network().now() + 300'000;
  for (const Bytes& h : answers) {
    while (!net.client_node().chain().find_receipt(h).has_value()) {
      if (net.network().now() >= deadline) {
        out.failure = "answers not confirmed";
        return out;
      }
      net.network().run_for(50);
    }
  }
  const std::vector<int> first_seen = chain_order(net, answers);

  std::vector<std::uint64_t> rewards;
  try {
    rewards = requester.instruct_rewards();
  } catch (const std::exception& e) {
    out.failure = std::string("threw: ") + e.what();
  }
  out.reordered = chain_order(net, answers) != first_seen;
  if (!out.failure.empty()) return out;

  // Paid by worker, not by position: the majority label 2 earns the share.
  const std::uint64_t expected[kN] = {1'000'000, 1'000'000, 0};
  const auto* contract = net.client_node().chain().state().contract_as<TaskContract>(task);
  if (contract == nullptr || !contract->rewarded()) {
    out.failure = "task not rewarded";
    return out;
  }
  const std::vector<TaskContract::Submission>& subs = contract->submissions();
  if (subs.size() != kN || rewards.size() != kN) {
    out.failure = "wrong submission count";
    return out;
  }
  for (std::size_t k = 0; k < kN; ++k) {
    std::size_t w = 0;
    while (w < kN && workers[w]->reward_address(task) != subs[k].worker_address) ++w;
    if (w == kN || rewards[k] != expected[w]) {
      out.failure = "slot " + std::to_string(k) + " paid wrongly";
      return out;
    }
  }
  return out;
}

}  // namespace

int main() {
  Rng rng(9001);
  const SystemParams params =
      make_system_params(kDepth, {RewardCircuitSpec{kN, kPolicy}}, rng);
  std::uint64_t reordered = 0;
  std::uint64_t failed = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Outcome outcome;
    try {
      outcome = run_seed(params, seed);
    } catch (const std::exception& e) {
      outcome.failure = std::string("threw: ") + e.what();
    }
    if (outcome.reordered) ++reordered;
    if (!outcome.failure.empty()) ++failed;
    if (outcome.reordered || !outcome.failure.empty()) {
      std::printf("seed %llu:%s %s\n", static_cast<unsigned long long>(seed),
                  outcome.reordered ? " answers reordered after first sight;" : "",
                  outcome.failure.empty() ? "rewarded, paid by worker"
                                          : ("FAILED: " + outcome.failure).c_str());
      std::fflush(stdout);
    }
  }
  std::printf("reorg_sweep: %llu seeds, %llu reordered after first sight, %llu failed\n",
              static_cast<unsigned long long>(kSeeds), static_cast<unsigned long long>(reordered),
              static_cast<unsigned long long>(failed));
  return failed == 0 ? 0 : 1;
}
