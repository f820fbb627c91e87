#pragma once
// Off-chain clients (paper Fig. 3): requester and worker clients wrap a
// blockchain node with the ZebraLancer protocol logic — one-task-only
// wallets, answer encryption, anonymous attestations, zk-SNARK proving.

#include <map>
#include <optional>

#include "auth/cpl_auth.h"
#include "chain/network.h"
#include "zebralancer/task_contract.h"

namespace zl::zebralancer {

/// The offline-established public parameters PP (paper: "Establishments of
/// zk-SNARKs (off-line)"): the CPL-AA SNARK plus one reward SNARK per task
/// shape (n, policy).
struct SystemParams {
  auth::AuthParams auth;
  std::map<std::string, snark::Keypair> reward_keys;

  static std::string spec_key(const RewardCircuitSpec& spec) {
    return std::to_string(spec.num_answers) + "|" + spec.policy_name;
  }
  const snark::Keypair& reward_keypair(const RewardCircuitSpec& spec) const {
    return reward_keys.at(spec_key(spec));
  }
  bool has_reward_keypair(const RewardCircuitSpec& spec) const {
    return reward_keys.contains(spec_key(spec));
  }
};

/// Generate PP for a registry of `merkle_depth` and the given task shapes.
SystemParams make_system_params(unsigned merkle_depth,
                                const std::vector<RewardCircuitSpec>& specs, Rng& rng);

class TestNet;  // scenario driver (scenario.h)

struct TaskSpec {
  std::uint64_t budget = 0;
  std::uint32_t num_answers = 0;
  std::string policy_name;
  std::uint64_t answer_deadline_blocks = 30;
  std::uint64_t instruct_deadline_blocks = 30;
  std::uint32_t max_submissions_per_identity = 1;  // footnote 11's k
  /// Task data blob (e.g. the image to annotate). Stored off-chain in the
  /// content-addressed store; only its digest goes on chain (footnote 13).
  Bytes task_data;
  /// Reputation registry address (classic mode only; zero = no reporting).
  chain::Address reputation_registry;
};

class RequesterClient {
 public:
  RequesterClient(TestNet& net, const SystemParams& params, const auth::UserKey& key,
                  const auth::Certificate& cert, Rng rng);

  /// TaskPublish: fresh one-task address, task keypair, attestation over
  /// alpha_C || alpha_R, deploy with the budget deposited. Returns alpha_C.
  chain::Address publish(const TaskSpec& spec, const Fr& registry_root);

  /// Whether the contract has collected n answers (or the deadline passed).
  bool collection_complete() const;

  /// Reward phase: retrieve + decrypt all ciphertexts, compute rewards per
  /// the policy, prove, and send the instruction. Returns the rewards.
  std::vector<std::uint64_t> instruct_rewards();

  /// Retrieve and decrypt the collected answers (requester-only knowledge).
  std::vector<Fr> decrypted_answers() const;

  const chain::Address& task_address() const { return task_address_; }
  const chain::Address& one_task_address() const;
  const TaskEncKeyPair& enc_key() const { return enc_key_; }

  /// Transaction hashes of the publish / reward steps (for gas accounting
  /// in the experiment harness).
  const Bytes& deploy_tx_hash() const { return deploy_tx_hash_; }
  const Bytes& reward_tx_hash() const { return reward_tx_hash_; }

 private:
  const TaskContract& contract() const;

  TestNet& net_;
  const SystemParams& params_;
  auth::UserKey key_;
  auth::Certificate cert_;
  Rng rng_;
  std::unique_ptr<chain::Wallet> wallet_;  // one-task-only alpha_R
  TaskEncKeyPair enc_key_;
  RewardCircuitSpec spec_;
  TaskSpec task_spec_;
  chain::Address task_address_;
  Bytes deploy_tx_hash_;
  Bytes reward_tx_hash_;
};

class WorkerClient {
 public:
  WorkerClient(TestNet& net, const SystemParams& params, const auth::UserKey& key,
               const auth::Certificate& cert, Rng rng);

  /// AnswerCollection: validate the task, fresh one-task address, encrypt
  /// under the task's epk, authenticate alpha_C || alpha_i || C_i, submit.
  /// Returns the submission transaction hash (confirmation is the caller's
  /// concern: the chain decides).
  Bytes submit_answer(const chain::Address& task_address, const Fr& answer);

  /// The one-task address used for the given task (where rewards arrive).
  chain::Address reward_address(const chain::Address& task_address) const;

  /// Refresh the certificate path from the RA (registry may have grown).
  void set_certificate(const auth::Certificate& cert) { cert_ = cert; }

  /// Fetch (and digest-verify) the task's off-chain data blob, if any.
  std::optional<Bytes> fetch_task_data(const chain::Address& task_address) const;

 private:
  TestNet& net_;
  const SystemParams& params_;
  auth::UserKey key_;
  auth::Certificate cert_;
  Rng rng_;
  std::map<chain::Address, std::unique_ptr<chain::Wallet>> task_wallets_;  // task -> wallet
};

}  // namespace zl::zebralancer
