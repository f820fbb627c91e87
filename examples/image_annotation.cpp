// The paper's §VI experiment: an image annotation task ([10]-style
// multiplicative incentives simplified to majority voting) with n workers,
// including a straggler who never answers — the contract pads the missing
// slot with ⊥ at the deadline and the reward proof still goes through.
//
//   $ ./examples/image_annotation [n]       (default n = 5)
#include <cstdio>
#include <cstdlib>

#include "zebralancer/scenario.h"

using namespace zl;
using namespace zl::zebralancer;

int main(int argc, char** argv) {
  const unsigned n = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 5;
  if (n < 2 || n > 11) {
    std::fprintf(stderr, "usage: %s [n in 2..11]\n", argv[0]);
    return 1;
  }
  std::printf("=== image annotation with n = %u workers (one never answers) ===\n\n", n);

  Rng rng(7777);
  TestNet net({.merkle_depth = 8});
  std::printf("[*] offline SNARK setup for (n=%u, majority-vote:4)...\n", n);
  const SystemParams params =
      make_system_params(8, {RewardCircuitSpec{n, "majority-vote:4"}}, rng);

  // Register everyone.
  auth::UserKey requester_key = auth::UserKey::generate(rng);
  auto requester_cert = net.register_participant("requester", requester_key.pk);
  std::vector<auth::UserKey> worker_keys;
  std::vector<auth::Certificate> worker_certs;
  for (unsigned i = 0; i < n; ++i) {
    worker_keys.push_back(auth::UserKey::generate(rng));
    worker_certs.push_back(
        net.register_participant("worker-" + std::to_string(i), worker_keys.back().pk));
  }
  requester_cert = net.ra().current_certificate(requester_cert.leaf_index);
  for (unsigned i = 0; i < n; ++i) {
    worker_certs[i] = net.ra().current_certificate(worker_certs[i].leaf_index);
  }

  // Publish with a short answering deadline so the straggler's slot closes.
  RequesterClient requester(net, params, requester_key, requester_cert, net.fork_rng("req"));
  const std::uint64_t budget = 1'000'000 * n;
  const chain::Address task = requester.publish({.budget = budget,
                                                 .num_answers = n,
                                                 .policy_name = "majority-vote:4",
                                                 .answer_deadline_blocks = 60,
                                                 .instruct_deadline_blocks = 200},
                                                net.on_chain_registry_root());
  std::printf("[*] task 0x%s published, budget %llu wei, deadline +60 blocks\n",
              task.to_hex().c_str(), static_cast<unsigned long long>(budget));

  // n-1 workers answer; labels split ~2:1 between "2" and "0".
  std::vector<Bytes> pending;
  std::vector<WorkerClient> workers;
  workers.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers.emplace_back(net, params, worker_keys[i], worker_certs[i],
                         net.fork_rng("worker-" + std::to_string(i)));
  }
  for (unsigned i = 0; i + 1 < n; ++i) {
    const std::uint64_t label = (i % 3 == 2) ? 0 : 2;
    std::printf("[*] worker-%u submits label %llu\n", i, static_cast<unsigned long long>(label));
    pending.push_back(workers[i].submit_answer(task, Fr::from_u64(label)));
  }
  std::printf("[*] worker-%u never answers (free to do so — only submitted work binds)\n", n - 1);
  for (const Bytes& h : pending) {
    while (!net.client_node().chain().find_receipt(h).has_value()) net.network().run_for(50);
  }

  // Let the answering deadline lapse so collection completes with n-1. The
  // contract is re-read after stepping: a reorg replaces the chain state.
  const auto task_contract = [&] {
    return net.client_node().chain().state().contract_as<TaskContract>(task);
  };
  const std::uint64_t deadline = task_contract()->collection_deadline();
  while (net.height() <= deadline) net.network().run_for(200);
  std::printf("[*] answering deadline passed at block %llu; %zu/%u answers collected\n",
              static_cast<unsigned long long>(net.height()), task_contract()->submissions().size(),
              n);

  const std::vector<std::uint64_t> rewards = requester.instruct_rewards();
  std::printf("[*] reward proof verified on chain; missing slot padded with ⊥ and paid 0\n\n");

  // Answers share blocks, so the chain orders them: slot k holds the k-th
  // on-chain answer. Attribute each slot to its worker by the one-task
  // address it came from; the majority label 2 earns budget / n.
  const std::vector<Fr> answers = requester.decrypted_answers();
  const auto& submissions = task_contract()->submissions();
  bool attributed = submissions.size() == n - 1 && answers.size() == n - 1;
  std::printf("%-10s %-8s %-12s\n", "worker", "label", "reward(wei)");
  for (unsigned i = 0; i + 1 < n && attributed; ++i) {
    std::size_t k = 0;
    while (k < submissions.size() &&
           !(submissions[k].worker_address == workers[i].reward_address(task))) {
      ++k;
    }
    if (k == submissions.size()) {
      attributed = false;
      break;
    }
    const std::uint64_t label = (i % 3 == 2) ? 0 : 2;
    std::printf("%-10u %-8s %-12llu\n", i, answers[k].to_bigint().get_str().c_str(),
                static_cast<unsigned long long>(rewards[k]));
    attributed = answers[k] == Fr::from_u64(label) && rewards[k] == (label == 2 ? budget / n : 0);
  }
  if (!attributed) {
    std::fprintf(stderr, "FAIL: answers or rewards do not match the workers who sent them\n");
    return 1;
  }
  std::printf("%-10u %-8s %-12s\n", n - 1, "⊥", "0 (never submitted)");
  std::printf("\nblocks mined: %zu, chain height: %llu\n", net.total_blocks_mined(),
              static_cast<unsigned long long>(net.height()));
  return 0;
}
