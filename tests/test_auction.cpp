// Sealed-bid uniform-price reverse auction policy: native semantics, exact
// gadget agreement (including adversarial out-of-range bids), reward-proof
// round trips, and an end-to-end procurement auction on the test net.
#include <gtest/gtest.h>

#include "zebralancer/scenario.h"

namespace zl::zebralancer {
namespace {

std::vector<Fr> bids(const std::vector<std::uint64_t>& vals) {
  std::vector<Fr> out;
  for (const auto v : vals) out.push_back(Fr::from_u64(v));
  return out;
}

TEST(AuctionPolicy, UniformPriceBasics) {
  const SealedBidAuctionPolicy policy(2);  // two winners
  // Bids 30, 10, 20, 40: winners are 10 and 20; clearing price = 30.
  EXPECT_EQ(policy.rewards(bids({30, 10, 20, 40}), 1000),
            (std::vector<std::uint64_t>{0, 30, 30, 0}));
  // Clearing price capped at the share.
  EXPECT_EQ(policy.rewards(bids({30, 10, 20, 40}), 25),
            (std::vector<std::uint64_t>{0, 25, 25, 0}));
  // Fewer valid bids than winners: everyone valid wins at the full share.
  EXPECT_EQ(policy.rewards(bids({0, 10, 0, 0}), 1000),
            (std::vector<std::uint64_t>{0, 1000, 0, 0}));
  // Exactly k valid bids: no (k+1)-th bid, so the share clears.
  EXPECT_EQ(policy.rewards(bids({10, 20, 0, 0}), 1000),
            (std::vector<std::uint64_t>{1000, 1000, 0, 0}));
}

TEST(AuctionPolicy, TiesBreakTowardEarlierSubmission) {
  const SealedBidAuctionPolicy policy(1);
  // Equal lowest bids: the earlier submission wins; price = the tie value.
  EXPECT_EQ(policy.rewards(bids({20, 20, 50}), 1000),
            (std::vector<std::uint64_t>{20, 0, 0}));
}

TEST(AuctionPolicy, InvalidBidsExcluded) {
  const SealedBidAuctionPolicy policy(2);
  // 0 = no bid (also the ⊥ placeholder); 2^16 = out of range.
  EXPECT_EQ(policy.rewards(bids({0, 5, 1u << 16, 7}), 1000),
            (std::vector<std::uint64_t>{0, 1000, 0, 1000}));
  // A malicious huge field element is just as invalid.
  std::vector<Fr> evil = bids({5, 7, 0, 0});
  evil[2] = Fr::from_bigint(Fr::modulus_bigint() - 12345);
  const auto rewards = policy.rewards(evil, 1000);
  EXPECT_EQ(rewards[2], 0u);
  EXPECT_EQ(rewards[0], 1000u);
}

TEST(AuctionPolicy, RegistryAndValidation) {
  EXPECT_EQ(IncentivePolicy::by_name("auction:3")->name(), "auction:3");
  EXPECT_EQ(IncentivePolicy::by_name("auction:3")->bottom(), Fr::zero());
  EXPECT_THROW(SealedBidAuctionPolicy(0), std::invalid_argument);
}

TEST(AuctionPolicy, GadgetAgreesWithNative) {
  Rng rng(951);
  const SealedBidAuctionPolicy policy(2);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<Fr> answers;
    for (int i = 0; i < 4; ++i) {
      switch (rng.uniform(5)) {
        case 0:
          answers.push_back(Fr::zero());  // no bid
          break;
        case 1:
          answers.push_back(Fr::from_bigint(random_below(rng, Fr::modulus_bigint())));  // garbage
          break;
        default:
          answers.push_back(Fr::from_u64(1 + rng.uniform((1u << 16) - 1)));
          break;
      }
    }
    const std::uint64_t share = 1 + rng.uniform(100'000);
    const std::vector<std::uint64_t> native = policy.rewards(answers, share);

    snark::CircuitBuilder b;
    std::vector<snark::Wire> wires;
    for (const Fr& a : answers) wires.push_back(b.witness(a));
    const auto gadget =
        policy.rewards_gadget(b, wires, snark::Wire::constant(Fr::from_u64(share)));
    ASSERT_TRUE(b.constraint_system().is_satisfied(b.assignment())) << "trial " << trial;
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(gadget[i].value, Fr::from_u64(native[i])) << "trial " << trial << " slot " << i;
    }
  }
}

TEST(AuctionPolicy, DuplicateAndBoundaryBidsSweep) {
  const SealedBidAuctionPolicy policy(2);
  // Exhaustive-ish sweep over small bid tuples including duplicates.
  for (const std::uint64_t a : {0ull, 1ull, 2ull, 65535ull}) {
    for (const std::uint64_t c : {0ull, 1ull, 2ull, 65535ull}) {
      for (const std::uint64_t d : {1ull, 2ull}) {
        const std::vector<Fr> answers = bids({a, c, d});
        const auto native = policy.rewards(answers, 500);
        snark::CircuitBuilder b;
        std::vector<snark::Wire> wires;
        for (const Fr& v : answers) wires.push_back(b.witness(v));
        const auto gadget =
            policy.rewards_gadget(b, wires, snark::Wire::constant(Fr::from_u64(500)));
        ASSERT_TRUE(b.constraint_system().is_satisfied(b.assignment()));
        for (std::size_t i = 0; i < 3; ++i) {
          EXPECT_EQ(gadget[i].value, Fr::from_u64(native[i])) << a << "," << c << "," << d;
        }
      }
    }
  }
}

TEST(AuctionPolicy, RewardProofRoundTrip) {
  Rng rng(952);
  const RewardCircuitSpec spec{3, "auction:1"};
  const snark::Keypair keys = reward_setup(spec, rng);
  const TaskEncKeyPair enc = TaskEncKeyPair::generate(rng);
  std::vector<AnswerCiphertext> cts;
  for (const std::uint64_t bid : {500ull, 200ull, 350ull}) {
    cts.push_back(encrypt_answer(enc.epk, Fr::from_u64(bid), rng));
  }
  const RewardInstruction inst = prove_rewards(keys.pk, spec, enc, 1'000'000, cts, rng);
  // Winner: 200 (lowest); clearing price: 350 (2nd lowest).
  EXPECT_EQ(inst.rewards, (std::vector<std::uint64_t>{0, 350, 0}));
  EXPECT_TRUE(
      snark::verify(keys.vk, reward_statement(enc.epk, 1'000'000, cts, inst.rewards), inst.proof));
  // Overpaying the winner is unprovable/unverifiable.
  EXPECT_FALSE(snark::verify(
      keys.vk, reward_statement(enc.epk, 1'000'000, cts, {0, 400, 0}), inst.proof));
}

TEST(AuctionPolicy, EndToEndProcurementAuction) {
  // A crowdsensing procurement: the city buys 1 sensing slot from the
  // cheapest of 3 anonymous bidders.
  Rng rng(953);
  TestNet net({.merkle_depth = 6});
  const SystemParams params = make_system_params(6, {RewardCircuitSpec{3, "auction:1"}}, rng);

  auth::UserKey req_key = auth::UserKey::generate(rng);
  auto req_cert = net.register_participant("auction-requester", req_key.pk);
  std::vector<auth::UserKey> keys;
  std::vector<auth::Certificate> certs;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(auth::UserKey::generate(rng));
    certs.push_back(net.register_participant("bidder-" + std::to_string(i), keys.back().pk));
  }
  req_cert = net.ra().current_certificate(req_cert.leaf_index);
  for (int i = 0; i < 3; ++i) certs[i] = net.ra().current_certificate(certs[i].leaf_index);

  RequesterClient requester(net, params, req_key, req_cert, net.fork_rng("areq"));
  const chain::Address task = requester.publish(
      {.budget = 3'000'000, .num_answers = 3, .policy_name = "auction:1"},
      net.on_chain_registry_root());

  const std::uint64_t bid_values[3] = {900, 400, 650};
  std::vector<WorkerClient> bidders;
  std::vector<Bytes> pending;
  for (int i = 0; i < 3; ++i) {
    bidders.emplace_back(net, params, keys[i], certs[i], net.fork_rng("bid" + std::to_string(i)));
    pending.push_back(bidders.back().submit_answer(task, Fr::from_u64(bid_values[i])));
  }
  for (const Bytes& h : pending) {
    while (!net.client_node().chain().find_receipt(h).has_value()) net.network().run_for(50);
  }
  const std::vector<std::uint64_t> rewards = requester.instruct_rewards();
  // Bidder 1 wins at the second-lowest price 650. Bids share blocks, so the
  // chain orders them: attribute each paid slot to its bidder by address.
  const auto& state = net.client_node().chain().state();
  const auto* contract = state.contract_as<TaskContract>(task);
  ASSERT_NE(contract, nullptr);
  ASSERT_EQ(contract->submissions().size(), 3u);
  ASSERT_EQ(rewards.size(), 3u);
  const std::uint64_t expected[3] = {0, 650, 0};
  for (std::size_t k = 0; k < 3; ++k) {
    int bidder = 0;
    while (bidder < 3 &&
           !(bidders[bidder].reward_address(task) == contract->submissions()[k].worker_address)) {
      ++bidder;
    }
    ASSERT_LT(bidder, 3) << "slot " << k << " belongs to no bidder";
    EXPECT_EQ(rewards[k], expected[bidder]) << "slot " << k << " (bidder " << bidder << ")";
  }
  EXPECT_EQ(state.balance_of(task), 0u);
}

}  // namespace
}  // namespace zl::zebralancer
