// Sealed-bid procurement auction — the auction-based incentive class the
// paper's model covers (§IV, [7][8]): a city buys 2 sensing slots from the
// cheapest anonymous bidders; everything (bids included) stays encrypted on
// chain, and the clearing computation is enforced by the reward zk-SNARK.
//
//   $ ./examples/sealed_bid_auction
#include <cstdio>

#include "zebralancer/scenario.h"

using namespace zl;
using namespace zl::zebralancer;

int main() {
  std::printf("=== sealed-bid uniform-price reverse auction (2 slots, 4 bidders) ===\n\n");

  Rng rng(4242);
  TestNet net({.merkle_depth = 6});
  const SystemParams params = make_system_params(6, {RewardCircuitSpec{4, "auction:2"}}, rng);

  auth::UserKey req_key = auth::UserKey::generate(rng);
  auto req_cert = net.register_participant("city-procurement", req_key.pk);
  std::vector<auth::UserKey> keys;
  std::vector<auth::Certificate> certs;
  const char* names[4] = {"bidder-a", "bidder-b", "bidder-c", "bidder-d"};
  for (int i = 0; i < 4; ++i) {
    keys.push_back(auth::UserKey::generate(rng));
    certs.push_back(net.register_participant(names[i], keys.back().pk));
  }
  req_cert = net.ra().current_certificate(req_cert.leaf_index);
  for (int i = 0; i < 4; ++i) certs[i] = net.ra().current_certificate(certs[i].leaf_index);

  RequesterClient requester(net, params, req_key, req_cert, net.fork_rng("req"));
  const chain::Address task = requester.publish(
      {.budget = 4'000'000, .num_answers = 4, .policy_name = "auction:2"},
      net.on_chain_registry_root());
  std::printf("[*] auction contract at 0x%s; budget 4'000'000 wei deposited\n",
              task.to_hex().c_str());

  const std::uint64_t bids[4] = {700, 450, 820, 500};
  std::vector<WorkerClient> bidders;
  std::vector<Bytes> pending;
  for (int i = 0; i < 4; ++i) {
    bidders.emplace_back(net, params, keys[i], certs[i], net.fork_rng(names[i]));
    std::printf("[*] %s submits an ENCRYPTED bid (nobody on chain can read it)\n", names[i]);
    pending.push_back(bidders.back().submit_answer(task, Fr::from_u64(bids[i])));
  }
  for (const Bytes& h : pending) {
    while (!net.client_node().chain().find_receipt(h).has_value()) net.network().run_for(50);
  }

  std::printf("\n[*] the requester decrypts off-chain and proves the clearing correct...\n");
  const std::vector<std::uint64_t> rewards = requester.instruct_rewards();

  // Bids share blocks, so the chain orders them: rewards[k] pays the k-th
  // on-chain bid. Attribute each payment to its bidder by the one-task
  // address the bid came from.
  const auto* contract = net.client_node().chain().state().contract_as<TaskContract>(task);
  const std::uint64_t expected[4] = {0, 700, 0, 700};
  bool attributed = contract != nullptr && contract->submissions().size() == 4;
  std::printf("\n%-10s %-8s %-14s\n", "bidder", "bid", "payment(wei)");
  for (int i = 0; i < 4 && attributed; ++i) {
    const chain::Address bidder = bidders[i].reward_address(task);
    std::size_t k = 0;
    while (k < 4 && !(contract->submissions()[k].worker_address == bidder)) ++k;
    if (k == 4) {
      attributed = false;
      break;
    }
    std::printf("%-10s %-8llu %-14llu %s\n", names[i],
                static_cast<unsigned long long>(bids[i]),
                static_cast<unsigned long long>(rewards[k]),
                rewards[k] > 0 ? "<- wins a slot" : "");
    attributed = rewards[k] == expected[i];
  }
  if (!attributed) {
    std::fprintf(stderr, "FAIL: payments do not match the bidders' clearing outcome\n");
    return 1;
  }
  std::printf(
      "\nThe two lowest bidders (450, 500) win and are both paid the third-\n"
      "lowest bid (700) — the truthful uniform clearing price — enforced by\n"
      "the on-chain SNARK check, with no bid ever revealed publicly.\n");
  return 0;
}
