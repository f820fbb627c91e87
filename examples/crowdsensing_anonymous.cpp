// Mobile crowdsensing across multiple tasks — the privacy scenario from the
// paper's introduction: a commuter repeatedly contributes to traffic
// monitoring tasks. With naive authentication her participation history
// would be public; with ZebraLancer her submissions across tasks are
// UNLINKABLE, while a double submission to one task is caught immediately.
//
//   $ ./examples/crowdsensing_anonymous
#include <cstdio>
#include <stdexcept>

#include "zebralancer/scenario.h"

using namespace zl;
using namespace zl::zebralancer;

int main() {
  std::printf("=== anonymous mobile crowdsensing: 2 tasks, threshold incentives ===\n\n");

  Rng rng(31337);
  TestNet net({.merkle_depth = 6});
  const RewardCircuitSpec spec{3, "threshold:8:2"};  // 8 road-condition codes
  const SystemParams params = make_system_params(6, {spec}, rng);

  auth::UserKey requester_key = auth::UserKey::generate(rng);
  auto requester_cert = net.register_participant("city-traffic-dept", requester_key.pk);
  auth::UserKey commuter = auth::UserKey::generate(rng);  // our protagonist
  auto commuter_cert = net.register_participant("commuter-7", commuter.pk);
  auth::UserKey others[2] = {auth::UserKey::generate(rng), auth::UserKey::generate(rng)};
  auth::Certificate other_certs[2] = {net.register_participant("driver-a", others[0].pk),
                                      net.register_participant("driver-b", others[1].pk)};
  requester_cert = net.ra().current_certificate(requester_cert.leaf_index);
  commuter_cert = net.ra().current_certificate(commuter_cert.leaf_index);
  for (int i = 0; i < 2; ++i) other_certs[i] = net.ra().current_certificate(other_certs[i].leaf_index);

  // Two sensing tasks published by the city on different days/roads.
  const auto run_task = [&](const char* label, std::uint64_t code) {
    RequesterClient req(net, params, requester_key, requester_cert, net.fork_rng(label));
    const chain::Address task = req.publish(
        {.budget = 3'000'000, .num_answers = 3, .policy_name = "threshold:8:2"},
        net.on_chain_registry_root());
    std::printf("[*] task '%s' at 0x%s\n", label, task.to_hex().c_str());

    WorkerClient cw(net, params, commuter, commuter_cert, net.fork_rng(std::string(label) + "c"));
    WorkerClient ow0(net, params, others[0], other_certs[0], net.fork_rng(std::string(label) + "0"));
    WorkerClient ow1(net, params, others[1], other_certs[1], net.fork_rng(std::string(label) + "1"));
    std::vector<Bytes> pending = {cw.submit_answer(task, Fr::from_u64(code)),
                                  ow0.submit_answer(task, Fr::from_u64(code)),
                                  ow1.submit_answer(task, Fr::from_u64(7))};
    for (const Bytes& h : pending) {
      while (!net.client_node().chain().find_receipt(h).has_value()) net.network().run_for(50);
    }
    const auto rewards = req.instruct_rewards();
    std::printf("    rewards: %llu / %llu / %llu wei (agreement threshold = 2)\n",
                (unsigned long long)rewards[0], (unsigned long long)rewards[1],
                (unsigned long long)rewards[2]);
    // Return the commuter's on-chain linkability tag for this task. Answers
    // share blocks, so find the commuter's slot by its one-task address.
    const auto* contract = net.client_node().chain().state().contract_as<TaskContract>(task);
    for (const TaskContract::Submission& s : contract->submissions()) {
      if (s.worker_address == cw.reward_address(task)) return s.attestation.t1;
    }
    throw std::runtime_error("the commuter's submission is not on chain");
  };

  const Fr tag_monday = run_task("route-66-monday", 3);   // code 3: congestion
  const Fr tag_tuesday = run_task("route-9-tuesday", 3);

  std::printf("\n[*] the commuter joined BOTH tasks. Can the public link her?\n");
  std::printf("    task-1 tag t1 = %s...\n", to_hex(tag_monday.to_bytes()).substr(0, 24).c_str());
  std::printf("    task-2 tag t1 = %s...\n", to_hex(tag_tuesday.to_bytes()).substr(0, 24).c_str());
  std::printf("    tags %s -> submissions are UNLINKABLE across tasks\n",
              tag_monday == tag_tuesday ? "EQUAL (!!)" : "differ");

  // Within one task, a second submission from the same identity links.
  std::printf("\n[*] the commuter now tries to double-claim inside one task...\n");
  RequesterClient req(net, params, requester_key, requester_cert, net.fork_rng("extra"));
  const chain::Address task = req.publish(
      {.budget = 3'000'000, .num_answers = 3, .policy_name = "threshold:8:2"},
      net.on_chain_registry_root());
  WorkerClient once(net, params, commuter, commuter_cert, net.fork_rng("once"));
  WorkerClient twice(net, params, commuter, commuter_cert, net.fork_rng("twice"));
  const Bytes first = once.submit_answer(task, Fr::from_u64(1));
  while (!net.client_node().chain().find_receipt(first).has_value()) net.network().run_for(50);
  const Bytes second = twice.submit_answer(task, Fr::from_u64(2));
  while (!net.client_node().chain().find_receipt(second).has_value()) net.network().run_for(50);
  const auto receipt = *net.client_node().chain().find_receipt(second);
  std::printf("    second submission: %s (%s)\n", receipt.success ? "ACCEPTED (!!)" : "dropped",
              receipt.error.c_str());
  if (tag_monday == tag_tuesday || receipt.success) {
    std::fprintf(stderr, "FAIL: tags linked across tasks or a double claim was accepted\n");
    return 1;
  }
  std::printf("\n=== anonymity across tasks, accountability within a task ===\n");
  return 0;
}
