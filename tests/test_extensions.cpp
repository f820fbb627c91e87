// Tests for the paper's future-work extensions implemented in this repo:
// off-chain content-addressed storage (open question 2 / footnote 13) and
// the reputation registry (open question 1), plus the generic cross-
// contract call mechanism they ride on.
#include <gtest/gtest.h>

#include "chain/datastore.h"
#include "zebralancer/classic_clients.h"
#include "zebralancer/reputation.h"
#include "zebralancer/scenario.h"

namespace zl::zebralancer {
namespace {

TEST(OffChainStore, PutGetVerify) {
  chain::OffChainStore store;
  const Bytes blob = to_bytes("a 2MB image, conceptually");
  const Bytes digest = store.put(blob);
  EXPECT_EQ(digest.size(), 32u);
  EXPECT_TRUE(store.contains(digest));
  EXPECT_EQ(store.get(digest), blob);
  EXPECT_FALSE(store.get(Bytes(32, 0xee)).has_value());
  EXPECT_TRUE(chain::OffChainStore::verify(digest, blob));
  EXPECT_FALSE(chain::OffChainStore::verify(digest, to_bytes("tampered")));
  // Content addressing: same blob, same digest; idempotent size accounting.
  EXPECT_EQ(store.put(blob), digest);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.total_bytes(), blob.size());
}

TEST(ReputationRegistry, OwnerGatingAndScores) {
  chain::ChainState state;
  ReputationRegistryContract::register_type();
  Rng rng(801);
  chain::Wallet owner(rng), stranger(rng), reporter(rng);
  state.credit(owner.address(), 10'000'000);
  state.credit(stranger.address(), 10'000'000);
  state.credit(reporter.address(), 10'000'000);
  const chain::Address miner;

  const chain::Receipt dep = state.apply_transaction(
      owner.make_transaction(chain::Address(), 0, 200'000,
                             ReputationRegistryContract::kContractType, {}),
      1, miner);
  ASSERT_TRUE(dep.success) << dep.error;
  const chain::Address registry = dep.created_contract;

  // Stranger cannot authorize.
  const chain::Receipt bad_auth = state.apply_transaction(
      stranger.make_transaction(registry, 0, 100'000, "authorize",
                                reporter.address().to_bytes()),
      2, miner);
  EXPECT_FALSE(bad_auth.success);

  // Owner authorizes the reporter (an EOA here; task contracts in e2e).
  ASSERT_TRUE(state
                  .apply_transaction(owner.make_transaction(registry, 0, 100'000, "authorize",
                                                            reporter.address().to_bytes()),
                                     3, miner)
                  .success);

  const Bytes digest = keccak256(to_bytes("worker-pk"));
  const Bytes plus = ReputationRegistryContract::encode_record_args(digest, 1);
  // Unauthorized record rejected; authorized accepted.
  EXPECT_FALSE(
      state.apply_transaction(stranger.make_transaction(registry, 0, 100'000, "record", plus),
                              3, miner)
          .success);
  ASSERT_TRUE(
      state.apply_transaction(reporter.make_transaction(registry, 0, 100'000, "record", plus),
                              4, miner)
          .success);
  ASSERT_TRUE(
      state
          .apply_transaction(
              reporter.make_transaction(registry, 0, 100'000, "record",
                                        ReputationRegistryContract::encode_record_args(digest, -1)),
              5, miner)
          .success);
  const auto* contract = state.contract_as<ReputationRegistryContract>(registry);
  ASSERT_NE(contract, nullptr);
  EXPECT_EQ(contract->score(digest), 0);  // +1 then -1
  EXPECT_EQ(contract->score(keccak256(to_bytes("never-seen"))), 0);
}

TEST(ReputationRegistry, SnapshotBytesPinnedAndShortDigestRejected) {
  chain::ChainState state;
  ReputationRegistryContract::register_type();
  Rng rng(803);
  chain::Wallet owner(rng);
  state.credit(owner.address(), 10'000'000);
  const chain::Address miner;
  const chain::Receipt dep = state.apply_transaction(
      owner.make_transaction(chain::Address(), 0, 200'000,
                             ReputationRegistryContract::kContractType, {}),
      1, miner);
  ASSERT_TRUE(dep.success) << dep.error;
  const chain::Address registry = dep.created_contract;
  ASSERT_TRUE(state
                  .apply_transaction(owner.make_transaction(registry, 0, 100'000, "authorize",
                                                            owner.address().to_bytes()),
                                     2, miner)
                  .success);
  // Recorded in name order, which is not digest order: the snapshot lists
  // scores sorted by digest, and its digest is pinned to the bytes earlier
  // builds (which sorted by hex string) wrote.
  for (int i = 0; i < 5; ++i) {
    const Bytes args = ReputationRegistryContract::encode_record_args(
        keccak256(to_bytes("worker-" + std::to_string(i))), i - 2);
    ASSERT_TRUE(
        state.apply_transaction(owner.make_transaction(registry, 0, 100'000, "record", args), 3,
                                miner)
            .success);
  }
  const auto* contract = state.contract_as<ReputationRegistryContract>(registry);
  ASSERT_NE(contract, nullptr);
  const std::optional<Bytes> snapshot = contract->snapshot_state();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(to_hex(keccak256(*snapshot)),
            "62cffdcff2986ec85e7c08e28ea613f0e698a3603896d1e5615efa20aeb259d7");

  ReputationRegistryContract restored;
  restored.restore_state(*snapshot);
  EXPECT_EQ(restored.snapshot_state(), snapshot);
  const Bytes top = keccak256(to_bytes("worker-4"));
  EXPECT_EQ(restored.score(top), 2);
  EXPECT_EQ(restored.score(Bytes(top.begin(), top.end() - 1)), 0) << "31-byte digest";

  // A stored digest frame that is not 32 bytes is corruption, not a key.
  Bytes corrupt;
  append_frame(corrupt, owner.address().to_bytes());
  append_u32_be(corrupt, 0);  // no reporters
  append_u32_be(corrupt, 1);  // one score
  append_frame(corrupt, Bytes(31, 0xab));
  append_u64_be(corrupt, 7);
  EXPECT_THROW(ReputationRegistryContract().restore_state(corrupt), std::invalid_argument);
}

class ExtensionE2eTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng = new Rng(802);
    net = new TestNet({.merkle_depth = 6});
    ReputationRegistryContract::register_type();
    params = new SystemParams(
        make_system_params(6, {RewardCircuitSpec{2, "majority-vote:4"}}, *rng));
    classic_ra = new auth::ClassicRegistrationAuthority(*rng, 1024);
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
Rng* ExtensionE2eTest::rng = nullptr;
TestNet* ExtensionE2eTest::net = nullptr;
SystemParams* ExtensionE2eTest::params = nullptr;
auth::ClassicRegistrationAuthority* ExtensionE2eTest::classic_ra = nullptr;

TEST_F(ExtensionE2eTest, DataIntensiveTaskUsesOffChainStorage) {
  // A "2 MB" image rides off-chain; only its digest is in the contract.
  const Bytes image = net->fork_rng("image").bytes(4096);

  auth::UserKey req_key = auth::UserKey::generate(*rng);
  auto req_cert = net->register_participant("data-requester", req_key.pk);
  auth::UserKey worker_key = auth::UserKey::generate(*rng);
  auto worker_cert = net->register_participant("data-worker", worker_key.pk);
  req_cert = net->ra().current_certificate(req_cert.leaf_index);
  worker_cert = net->ra().current_certificate(worker_cert.leaf_index);

  RequesterClient requester(*net, *params, req_key, req_cert, net->fork_rng("dreq"));
  TaskSpec spec{.budget = 2'000'000, .num_answers = 2, .policy_name = "majority-vote:4"};
  spec.task_data = image;
  const chain::Address task = requester.publish(spec, net->on_chain_registry_root());

  const auto* contract = net->client_node().chain().state().contract_as<TaskContract>(task);
  ASSERT_NE(contract, nullptr);
  EXPECT_EQ(contract->params().task_data_digest, Sha256::hash(image));

  // The worker fetches and digest-verifies the blob, then participates.
  WorkerClient worker(*net, *params, worker_key, worker_cert, net->fork_rng("dwork"));
  const auto fetched = worker.fetch_task_data(task);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, image);
  const chain::Receipt r = confirm(worker.submit_answer(task, Fr::from_u64(1)));
  EXPECT_TRUE(r.success) << r.error;
}

TEST_F(ExtensionE2eTest, ClassicTaskReportsReputation) {
  // Deploy a registry owned by a coordinator wallet.
  Rng orng = net->fork_rng("rep-owner");
  chain::Wallet owner(orng);
  net->fund(owner.address(), 10'000'000);
  const chain::Receipt dep = net->submit_and_confirm(owner.make_transaction(
      chain::Address(), 0, 200'000, ReputationRegistryContract::kContractType, {}));
  ASSERT_TRUE(dep.success) << dep.error;
  const chain::Address registry = dep.created_contract;

  // Classic-mode task wired to the registry.
  const auth::ClassicUserKey req_key = auth::ClassicUserKey::generate(*rng, 1024);
  const auto req_cert = classic_ra->certify("rep-requester", req_key.key.pub);
  ClassicRequesterClient requester(*net, *params, req_key, req_cert,
                                   classic_ra->master_public_key(), net->fork_rng("rreq"));
  TaskSpec spec{.budget = 2'000'000, .num_answers = 2, .policy_name = "majority-vote:4"};
  spec.reputation_registry = registry;
  const chain::Address task = requester.publish(spec);

  // The registry owner authorizes this task to report.
  ASSERT_TRUE(net->submit_and_confirm(
                     owner.make_transaction(registry, 0, 100'000, "authorize", task.to_bytes()))
                  .success);

  // Two workers: one agrees with the majority, one dissents.
  const auth::ClassicUserKey k0 = auth::ClassicUserKey::generate(*rng, 1024);
  const auth::ClassicUserKey k1 = auth::ClassicUserKey::generate(*rng, 1024);
  const auto c0 = classic_ra->certify("rep-w0", k0.key.pub);
  const auto c1 = classic_ra->certify("rep-w1", k1.key.pub);
  ClassicWorkerClient w0(*net, k0, c0, net->fork_rng("rw0"));
  ClassicWorkerClient w1(*net, k1, c1, net->fork_rng("rw1"));
  ASSERT_TRUE(confirm(w0.submit_answer(task, Fr::from_u64(2))).success);
  ASSERT_TRUE(confirm(w1.submit_answer(task, Fr::from_u64(2))).success);

  requester.instruct_rewards();

  const auto* reg =
      net->client_node().chain().state().contract_as<ReputationRegistryContract>(registry);
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->score(keccak256(k0.key.pub.to_bytes())), 1);
  EXPECT_EQ(reg->score(keccak256(k1.key.pub.to_bytes())), 1);
  EXPECT_EQ(reg->score(keccak256(req_key.key.pub.to_bytes())), 0);
}

TEST_F(ExtensionE2eTest, UnauthorizedReputationReportDoesNotBlockPayout) {
  // A task wired to a registry that never authorized it: the payout still
  // completes; the reputation report is skipped best-effort.
  Rng orng = net->fork_rng("rep-owner-2");
  chain::Wallet owner(orng);
  net->fund(owner.address(), 10'000'000);
  const chain::Receipt dep = net->submit_and_confirm(owner.make_transaction(
      chain::Address(), 0, 200'000, ReputationRegistryContract::kContractType, {}));
  const chain::Address registry = dep.created_contract;

  const auth::ClassicUserKey req_key = auth::ClassicUserKey::generate(*rng, 1024);
  const auto req_cert = classic_ra->certify("rep-requester-2", req_key.key.pub);
  ClassicRequesterClient requester(*net, *params, req_key, req_cert,
                                   classic_ra->master_public_key(), net->fork_rng("rreq2"));
  TaskSpec spec{.budget = 2'000'000, .num_answers = 2, .policy_name = "majority-vote:4"};
  spec.reputation_registry = registry;  // never authorized
  const chain::Address task = requester.publish(spec);

  const auth::ClassicUserKey k0 = auth::ClassicUserKey::generate(*rng, 1024);
  const auto c0 = classic_ra->certify("rep2-w0", k0.key.pub);
  ClassicWorkerClient w0(*net, k0, c0, net->fork_rng("r2w0"));
  ASSERT_TRUE(confirm(w0.submit_answer(task, Fr::from_u64(1))).success);
  const auth::ClassicUserKey k1 = auth::ClassicUserKey::generate(*rng, 1024);
  const auto c1 = classic_ra->certify("rep2-w1", k1.key.pub);
  ClassicWorkerClient w1(*net, k1, c1, net->fork_rng("r2w1"));
  ASSERT_TRUE(confirm(w1.submit_answer(task, Fr::from_u64(1))).success);

  const auto rewards = requester.instruct_rewards();  // must not throw
  EXPECT_EQ(rewards, (std::vector<std::uint64_t>{1'000'000, 1'000'000}));
  const auto* reg =
      net->client_node().chain().state().contract_as<ReputationRegistryContract>(registry);
  EXPECT_EQ(reg->score(keccak256(k0.key.pub.to_bytes())), 0) << "report skipped";
}

}  // namespace
}  // namespace zl::zebralancer
