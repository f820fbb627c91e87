#pragma once
// The crowdsourcing task contract — a faithful implementation of the
// paper's Algorithm 1 on our contract runtime:
//
//   deploy   : checks the budget deposit and the requester's anonymous
//              attestation over alpha_C || alpha_R (lines 3-4)
//   submit   : collects anonymously authenticated encrypted answers,
//              Verify + Link against every prior attestation including the
//              requester's; drops double submissions and replays (lines 6-9)
//   reward   : the requester's instruction R + pi_reward, checked by the
//              snark_verify precompile, then per-answer transfers and the
//              refund of the remainder (lines 11-17, 21)
//   finalize : timeout fallback — tau/||W|| to every submitter, remainder
//              refunded (lines 18-21)
//
// Deadlines are measured in blocks ("the contract program is driven by a
// discrete clock that increments with validating each newly proposed
// block"). Like Ethereum, timeout paths execute when poked by any
// transaction rather than spontaneously.

#include "auth/cpl_auth.h"
#include "chain/contract.h"
#include "zebralancer/reward_circuit.h"

namespace zl::zebralancer {

/// Which authentication scheme a task uses (paper §VI: the protocol
/// "can be trivially extended to support non-anonymous mode").
enum class AuthMode : std::uint8_t {
  kAnonymous = 0,  // common-prefix-linkable anonymous authentication (§V-A)
  kClassic = 1,    // certified RSA signatures; identity is public
};

/// Constructor parameters of a task contract (the paper's Param, serialized
/// into the deployment transaction).
struct TaskParams {
  AuthMode auth_mode = AuthMode::kAnonymous;
  chain::Address requester_address;              // alpha_R (one-task-only)
  Bytes requester_attestation;                   // pi_R (per auth_mode)
  Fr registry_root = Fr::zero();                 // RA registry root (anonymous mode)
  Bytes classic_mpk;                             // RA RSA master key (classic mode)
  std::uint64_t budget = 0;                      // tau, in wei
  Bytes epk;                                     // task encryption key (Jubjub, 64B)
  std::uint32_t num_answers = 0;                 // n
  /// Paper footnote 11: each identity may submit up to k answers per task
  /// "by modifying the checking condition programmed in the smart
  /// contract". Default is the paper's k = 1.
  std::uint32_t max_submissions_per_identity = 1;
  std::uint64_t answer_deadline_blocks = 0;      // T_A
  std::uint64_t instruct_deadline_blocks = 0;    // T_I
  std::string policy_name;                       // codified reward policy R
  /// Content address (SHA-256) of the task's data blob (e.g. the image to
  /// annotate) in off-chain storage; empty when the task carries no blob.
  /// Only the 32-byte digest lives on chain (paper footnote 13).
  Bytes task_data_digest;
  /// Reputation registry to report outcomes to at reward time (zero = none;
  /// honoured only in classic mode, where identities are stable).
  chain::Address reputation_registry;
  Bytes auth_vk;                                 // verifying key, CPL-AA circuit
  Bytes reward_vk;                               // verifying key, reward circuit

  Bytes to_bytes() const;
  static TaskParams from_bytes(const Bytes& bytes);
};

class TaskContract : public chain::Contract {
 public:
  static constexpr const char* kContractType = "zebralancer-task";
  /// Registers the type with the global ContractFactory (idempotent).
  static void register_type();

  struct Submission {
    chain::Address worker_address;  // alpha_i
    auth::Attestation attestation;  // pi_i, anonymous mode (t1 is the Link tag)
    Bytes classic_pk;               // certified public key, classic mode
    AnswerCiphertext ciphertext;    // C_i
  };

  void on_deploy(chain::CallContext& ctx, const Bytes& ctor_args) override;
  void invoke(chain::CallContext& ctx, const std::string& method, const Bytes& args) override;

  /// The snark_verify a deploy (asked of a blank instance), submit or reward
  /// transaction will issue: the same triple its handler verifies, built by
  /// the same helper. Empty where the handler would revert before the proof.
  std::vector<chain::SnarkPrecheck> snark_prechecks(const chain::Transaction& tx) const override;

  /// Durable-state hooks (chain snapshots / crash recovery).
  std::optional<Bytes> snapshot_state() const override;
  void restore_state(const Bytes& state) override;

  // --- transparent on-chain state (readable by anyone, §III transparency) ---
  const TaskParams& params() const { return params_; }
  /// Accepted submissions sorted by (one-task address, ciphertext bytes),
  /// not arrival order; slot i of every rewards vector is submissions()[i].
  const std::vector<Submission>& submissions() const { return submissions_; }
  std::uint64_t deploy_block() const { return deploy_block_; }
  bool finalized() const { return finalized_; }
  bool rewarded() const { return rewarded_; }
  /// The accepted reward instruction and its proof (valid once rewarded():
  /// on-chain state is transparent, so anyone can re-check the payout).
  const std::vector<std::uint64_t>& rewards() const { return rewards_; }
  const snark::Proof& reward_proof() const { return reward_proof_; }
  const snark::VerifyingKey& reward_vk() const { return reward_vk_; }
  /// Ciphertext list padded with the deterministic ⊥ placeholder to n (the
  /// reward statement is built over exactly n ciphertexts).
  std::vector<AnswerCiphertext> padded_ciphertexts() const;
  /// The public statement the stored reward proof was verified against
  /// (rebuilt from on-chain ciphertexts + the accepted instruction).
  std::vector<Fr> reward_audit_statement() const;
  std::uint64_t collection_deadline() const {
    return deploy_block_ + params_.answer_deadline_blocks;
  }
  /// Block that closed collection: the one holding the n-th answer, or the
  /// answering deadline when fewer arrived. The submission list is final
  /// once this block is final.
  std::uint64_t collection_end_block() const {
    return collection_end_block_ != 0 ? collection_end_block_ : collection_deadline();
  }
  /// Block at which the instruction window closes.
  std::uint64_t instruction_deadline() const;
  bool collection_complete(std::uint64_t block_number) const;
  std::uint64_t share() const { return params_.budget / params_.num_answers; }

  /// Wire encodings for the two calls. `attestation` is the serialized
  /// attestation of the task's auth_mode.
  static Bytes encode_submit_args(const Bytes& attestation, const AnswerCiphertext& ct);
  static Bytes encode_reward_args(const std::vector<std::uint64_t>& rewards,
                                  const snark::Proof& proof);

 private:
  /// A submit call's args, decoded once. `attested` is alpha_i || C_i, the
  /// message the attestation signs after alpha_C. In anonymous mode
  /// `attestation` is the decoded CPL-AA attestation and `proof_check` the
  /// snark_verify that checks it.
  struct SubmitCall {
    Bytes attestation_bytes;  // serialized attestation of the task's auth_mode
    AnswerCiphertext ciphertext;
    Bytes attested;
    auth::Attestation attestation;
    chain::SnarkPrecheck proof_check;
  };
  /// A reward call's args, decoded once: the instruction and the
  /// snark_verify of pi_reward over the current submissions.
  struct RewardCall {
    std::vector<std::uint64_t> rewards;
    chain::SnarkPrecheck proof_check;
  };

  /// pi_R over alpha_C || alpha_R for a task deployed at `self` (anonymous
  /// mode only).
  static chain::SnarkPrecheck deploy_check(const chain::Address& self, const TaskParams& params);
  SubmitCall submit_call(const chain::Address& self, const chain::Address& sender,
                         const Bytes& args) const;
  RewardCall reward_call(const Bytes& args) const;
  std::vector<Fr> reward_statement_for(const std::vector<std::uint64_t>& rewards) const;

  void handle_submit(chain::CallContext& ctx, const Bytes& args);
  void handle_reward(chain::CallContext& ctx, const Bytes& args);
  void handle_finalize(chain::CallContext& ctx);

  TaskParams params_;
  snark::VerifyingKey auth_vk_;
  snark::VerifyingKey reward_vk_;
  std::vector<Submission> submissions_;
  std::uint64_t deploy_block_ = 0;
  std::uint64_t collection_end_block_ = 0;  // set when the n-th answer lands
  bool finalized_ = false;
  bool rewarded_ = false;
  std::vector<std::uint64_t> rewards_;  // accepted instruction (rewarded_ only)
  snark::Proof reward_proof_;           // its pi_reward
};

/// Watchtower/auditor batch pass over finished tasks: re-verifies the stored
/// reward proof of every rewarded task at `addresses` against on-chain state
/// in one snark::verify_batch call (parallel Miller loops). Returns the
/// indices (into `addresses`) that FAIL the audit — an address that is not a
/// rewarded task contract also fails. Empty result = every payout proven.
std::vector<std::size_t> audit_rewarded_tasks(const chain::ChainState& state,
                                              const std::vector<chain::Address>& addresses);

}  // namespace zl::zebralancer
