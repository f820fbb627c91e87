#pragma once
// Off-chain clients (paper Fig. 3): requester and worker clients wrap a
// blockchain node with the ZebraLancer protocol logic — one-task-only
// wallets, answer encryption, attestations, zk-SNARK proving.
//
// Each client serves either authentication mode (paper §VI: the protocol
// "can be trivially extended to support non-anonymous mode"); the identity
// it is built with picks the mode. The outsource-then-prove reward phase is
// the same in both — data confidentiality and fair exchange do not depend on
// anonymity. In the classic mode participants still use one-task-only
// wallets for payments, but their certified public key rides along with
// every submission, so anyone can link their whole participation history —
// the exact privacy loss the anonymous mode exists to prevent (and what
// makes the classic mode "cost nearly nothing").

#include <map>
#include <optional>
#include <variant>

#include "auth/classic_auth.h"
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

/// Anonymous identity (§V-A): CPL-AA key and the RA's registry certificate.
struct AnonymousIdentity {
  auth::UserKey key;
  auth::Certificate cert;
};

/// Classic identity (§VI): certified RSA key. `mpk` is the RA's master key,
/// which a requester publishes in its task; a worker leaves it empty.
struct ClassicIdentity {
  auth::ClassicUserKey key;
  auth::ClassicCertificate cert;
  RsaPublicKey mpk;
};

/// A client's identity; its alternative is the client's authentication mode.
using Identity = std::variant<AnonymousIdentity, ClassicIdentity>;

class RequesterClient {
 public:
  RequesterClient(TestNet& net, const SystemParams& params, const auth::UserKey& key,
                  const auth::Certificate& cert, Rng rng);
  RequesterClient(TestNet& net, const SystemParams& params, const auth::ClassicUserKey& key,
                  const auth::ClassicCertificate& cert, const RsaPublicKey& mpk, Rng rng);

  /// TaskPublish: fresh one-task address, task keypair, attestation over
  /// alpha_C || alpha_R, deploy with the budget deposited. Returns alpha_C.
  /// `registry_root` is the anonymous mode's RA registry root; the classic
  /// mode ignores it.
  chain::Address publish(const TaskSpec& spec, const Fr& registry_root = Fr::zero());

  /// Whether the contract has collected n answers (or the deadline passed).
  bool collection_complete() const;

  /// Reward phase: retrieve + decrypt all ciphertexts, compute rewards per
  /// the policy, prove, and send the instruction. Proves at once: the
  /// contract keeps submissions in a canonical order, so a reorg that only
  /// reorders the answers leaves the proof valid. Throws if the instruction
  /// reverts; the caller may call again before instruction_deadline().
  /// Returns the rewards, in the contract's submission order.
  std::vector<std::uint64_t> instruct_rewards();

  /// Retrieve and decrypt the collected answers (requester-only knowledge).
  std::vector<Fr> decrypted_answers() const;

  const chain::Address& task_address() const { return task_address_; }

  /// Transaction hashes of the publish / reward steps (for gas accounting
  /// in the experiment harness).
  const Bytes& deploy_tx_hash() const { return deploy_tx_hash_; }
  const Bytes& reward_tx_hash() const { return reward_tx_hash_; }

 private:
  const TaskContract& contract() const;

  TestNet& net_;
  const SystemParams& params_;
  Identity identity_;
  Rng rng_;
  std::unique_ptr<chain::Wallet> wallet_;  // one-task-only alpha_R
  TaskEncKeyPair enc_key_;
  RewardCircuitSpec spec_;
  chain::Address task_address_;
  Bytes deploy_tx_hash_;
  Bytes reward_tx_hash_;
};

class WorkerClient {
 public:
  WorkerClient(TestNet& net, const SystemParams& params, const auth::UserKey& key,
               const auth::Certificate& cert, Rng rng);
  WorkerClient(TestNet& net, const SystemParams& params, const auth::ClassicUserKey& key,
               const auth::ClassicCertificate& cert, Rng rng);

  /// AnswerCollection: validate the task (its mode must be this worker's),
  /// fresh one-task address, encrypt under the task's epk, authenticate
  /// alpha_C || alpha_i || C_i, then fund alpha_i and submit. Nothing is
  /// sent when a check or the attestation fails. Returns the submission
  /// transaction hash without waiting for the funding transfer or the answer
  /// to confirm (the caller's concern: the chain decides, and orders answers
  /// that share a block).
  Bytes submit_answer(const chain::Address& task_address, const Fr& answer);

  /// The one-task address used for the given task (where rewards arrive).
  chain::Address reward_address(const chain::Address& task_address) const;

  /// Fetch (and digest-verify) the task's off-chain data blob, if any.
  std::optional<Bytes> fetch_task_data(const chain::Address& task_address) const;

 private:
  TestNet& net_;
  const SystemParams& params_;
  Identity identity_;
  Rng rng_;
  std::map<chain::Address, std::unique_ptr<chain::Wallet>> task_wallets_;  // task -> wallet
};

}  // namespace zl::zebralancer
