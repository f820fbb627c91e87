#include "zebralancer/task_contract.h"

#include <algorithm>
#include <memory>

#include "auth/classic_auth.h"
#include "chain/state.h"
#include "crypto/keccak.h"
#include "obs/obs.h"
#include "zebralancer/reputation.h"

namespace zl::zebralancer {

using chain::CallContext;
using chain::ContractRevert;
using chain::GasSchedule;

namespace {

// Wire caps for every frame this contract decodes (payloads arrive in
// attacker-signed transactions; state frames come off disk). Each bound sits
// well above anything the encoders emit while keeping a forged length from
// driving a giant allocation.
constexpr std::size_t kMaxAttestationBytes = 16u << 10;
constexpr std::size_t kMaxRsaKeyBytes = 16u << 10;
constexpr std::size_t kMaxFieldBytes = 32;
constexpr std::size_t kMaxPointBytes = 64;
constexpr std::size_t kMaxNameBytes = 64;
constexpr std::size_t kMaxDigestBytes = 64;
constexpr std::size_t kMaxVkBytes = 1u << 20;
constexpr std::size_t kMaxProofBytes = 512;
constexpr std::size_t kMaxParamsBytes = 4u << 20;
constexpr std::size_t kMaxCiphertextBytes = 1u << 16;
// Upper bound on num_answers (and so on submission/reward counts). Enforced
// at deploy time so the reward path's count cap can never strand a task.
constexpr std::uint32_t kMaxAnswers = 1u << 16;

/// The canonical submission order: by one-task address (fresh per worker
/// and task, so it leaks nothing about arrival), then ciphertext bytes.
/// Competing blocks holding the same answers in any order thus yield the
/// same reward statement, payments and reputation reports.
bool submitted_before(const TaskContract::Submission& a, const TaskContract::Submission& b) {
  if (a.worker_address != b.worker_address) return a.worker_address < b.worker_address;
  return a.ciphertext.to_bytes() < b.ciphertext.to_bytes();
}

bool verified(const CallContext& ctx, const chain::SnarkPrecheck& check) {
  return ctx.snark_verify(check.vk, check.statement, check.proof);
}

}  // namespace

Bytes TaskParams::to_bytes() const {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(auth_mode));
  append_frame(out, requester_address.to_bytes());
  append_frame(out, requester_attestation);
  append_frame(out, registry_root.to_bytes());
  append_frame(out, classic_mpk);
  append_u64_be(out, budget);
  append_frame(out, epk);
  append_u32_be(out, num_answers);
  append_u32_be(out, max_submissions_per_identity);
  append_u64_be(out, answer_deadline_blocks);
  append_u64_be(out, instruct_deadline_blocks);
  append_frame(out, zl::to_bytes(policy_name));
  append_frame(out, task_data_digest);
  append_frame(out, reputation_registry.to_bytes());
  append_frame(out, auth_vk);
  append_frame(out, reward_vk);
  return out;
}

TaskParams TaskParams::from_bytes(const Bytes& bytes) {
  TaskParams p;
  ByteReader r(bytes, "TaskParams");
  if (bytes.empty() || bytes[0] > 1) throw std::invalid_argument("TaskParams: bad auth mode");
  p.auth_mode = static_cast<AuthMode>(r.u8());
  p.requester_address = chain::Address::from_bytes(r.frame(chain::Address::kSize));
  p.requester_attestation = r.frame(kMaxAttestationBytes);
  p.registry_root = Fr::from_bytes(r.frame(kMaxFieldBytes));
  p.classic_mpk = r.frame(kMaxRsaKeyBytes);
  p.budget = r.u64();
  p.epk = r.frame(kMaxPointBytes);
  // num_answers sizes reserves and the padded-ciphertext vector downstream:
  // cap it at decode time so a forged params blob can never carry an absurd
  // count into the contract (on_deploy re-checks for programmatic callers).
  p.num_answers = r.count(kMaxAnswers);
  p.max_submissions_per_identity = r.u32();
  p.answer_deadline_blocks = r.u64();
  p.instruct_deadline_blocks = r.u64();
  const Bytes policy = r.frame(kMaxNameBytes);
  p.policy_name = std::string(policy.begin(), policy.end());
  p.task_data_digest = r.frame(kMaxDigestBytes);
  p.reputation_registry = chain::Address::from_bytes(r.frame(chain::Address::kSize));
  p.auth_vk = r.frame(kMaxVkBytes);
  p.reward_vk = r.frame(kMaxVkBytes);
  r.expect_end();
  return p;
}

void TaskContract::register_type() {
  if (!chain::ContractFactory::instance().knows(kContractType)) {
    chain::ContractFactory::instance().register_type(
        kContractType, [] { return std::make_unique<TaskContract>(); });
  }
}

std::vector<chain::SnarkPrecheck> TaskContract::snark_prechecks(
    const chain::Transaction& tx) const {
  std::vector<chain::SnarkPrecheck> out;
  if (tx.is_contract_creation()) {
    const TaskParams params = TaskParams::from_bytes(tx.payload());
    // A deposit short of the budget reverts before the proof.
    if (params.auth_mode == AuthMode::kAnonymous && tx.value() >= params.budget) {
      out.push_back(deploy_check(chain::Address::for_contract(tx.from(), tx.nonce()), params));
    }
    return out;
  }
  if (finalized_) return out;
  if (tx.method() == "submit" && params_.auth_mode == AuthMode::kAnonymous &&
      submissions_.size() < params_.num_answers) {
    out.push_back(std::move(submit_call(tx.to(), tx.from(), tx.payload()).proof_check));
  } else if (tx.method() == "reward") {
    out.push_back(std::move(reward_call(tx.payload()).proof_check));
  }
  return out;
}

chain::SnarkPrecheck TaskContract::deploy_check(const chain::Address& self,
                                                const TaskParams& params) {
  const auth::Attestation att = auth::Attestation::from_bytes(params.requester_attestation);
  snark::VerifyingKey vk = snark::VerifyingKey::from_bytes(params.auth_vk);
  return {std::move(vk),
          auth::auth_statement(self.to_bytes(), params.requester_address.to_bytes(),
                               params.registry_root, att),
          att.proof};
}

void TaskContract::on_deploy(CallContext& ctx, const Bytes& ctor_args) {
  ctx.charge(GasSchedule::kStorageWrite + ctor_args.size() * 2);
  TaskParams params = TaskParams::from_bytes(ctor_args);
  if (params.num_answers == 0) throw ContractRevert("n must be positive");
  if (params.num_answers > kMaxAnswers) throw ContractRevert("n over protocol cap");
  // Validate policy name and epk encoding up front.
  IncentivePolicy::by_name(params.policy_name);
  JubjubPoint::from_bytes(params.epk);

  // Algorithm 1, line 3: budget deposited?
  if (ctx.self_balance() < params.budget) throw ContractRevert("budget not deposited");

  // Algorithm 1, line 3: requester identified? Verify pi_R over
  // alpha_C || alpha_R (anonymous: against the RA registry root; classic:
  // an RSA certificate chain under the RA's master key).
  if (params.auth_mode == AuthMode::kAnonymous) {
    chain::SnarkPrecheck check = deploy_check(ctx.self, params);
    if (!verified(ctx, check)) throw ContractRevert("requester not identified");
    auth_vk_ = std::move(check.vk);
  } else {
    ctx.charge(2 * GasSchedule::kRsaVerify);
    const auto att = auth::ClassicAttestation::from_bytes(params.requester_attestation);
    if (!auth::classic_verify(ctx.self.to_bytes(), params.requester_address.to_bytes(),
                              RsaPublicKey::from_bytes(params.classic_mpk), att)) {
      throw ContractRevert("requester not identified");
    }
  }

  params_ = std::move(params);
  reward_vk_ = snark::VerifyingKey::from_bytes(params_.reward_vk);
  deploy_block_ = ctx.block_number;
  ZL_OBS_COUNTER_ADD("task.deployed", 1);
  ctx.log("task published: n=" + std::to_string(params_.num_answers) +
          " policy=" + params_.policy_name);
}

std::optional<Bytes> TaskContract::snapshot_state() const {
  // Every field invoke()/on_deploy() can touch, in declaration order. The
  // attestation frame is empty in classic mode (where submissions carry a
  // certified public key instead); the proof frame is empty until rewarded.
  Bytes out;
  append_frame(out, params_.to_bytes());
  append_u32_be(out, static_cast<std::uint32_t>(submissions_.size()));
  for (const Submission& s : submissions_) {
    append_frame(out, s.worker_address.to_bytes());
    append_frame(out, params_.auth_mode == AuthMode::kAnonymous ? s.attestation.to_bytes()
                                                                : Bytes{});
    append_frame(out, s.classic_pk);
    append_frame(out, s.ciphertext.to_bytes());
  }
  append_u64_be(out, deploy_block_);
  append_u64_be(out, collection_end_block_);
  out.push_back(finalized_ ? 1 : 0);
  out.push_back(rewarded_ ? 1 : 0);
  append_u32_be(out, static_cast<std::uint32_t>(rewards_.size()));
  for (const std::uint64_t r : rewards_) append_u64_be(out, r);
  append_frame(out, rewarded_ ? reward_proof_.to_bytes() : Bytes{});
  return out;
}

void TaskContract::restore_state(const Bytes& state) {
  // Both counts used to feed reserve() unchecked, so a corrupt snapshot
  // could demand a multi-gigabyte reservation before the loop's truncation
  // throw; count() bounds them before any allocation.
  ByteReader r(state, "TaskContract state");
  params_ = TaskParams::from_bytes(r.frame(kMaxParamsBytes));
  if (params_.auth_mode == AuthMode::kAnonymous) {
    auth_vk_ = snark::VerifyingKey::from_bytes(params_.auth_vk);
  }
  reward_vk_ = snark::VerifyingKey::from_bytes(params_.reward_vk);
  const std::uint32_t n_subs = r.count(kMaxAnswers);
  submissions_.clear();
  submissions_.reserve(n_subs);
  for (std::uint32_t i = 0; i < n_subs; ++i) {
    Submission s;
    s.worker_address = chain::Address::from_bytes(r.frame(chain::Address::kSize));
    const Bytes att = r.frame(kMaxAttestationBytes);
    if (!att.empty()) s.attestation = auth::Attestation::from_bytes(att);
    s.classic_pk = r.frame(kMaxRsaKeyBytes);
    s.ciphertext = AnswerCiphertext::from_bytes(r.frame(kMaxCiphertextBytes));
    submissions_.push_back(std::move(s));
  }
  if (!std::is_sorted(submissions_.begin(), submissions_.end(), submitted_before)) {
    throw std::invalid_argument("TaskContract state: submissions out of canonical order");
  }
  deploy_block_ = r.u64();
  collection_end_block_ = r.u64();
  finalized_ = r.u8() != 0;
  rewarded_ = r.u8() != 0;
  const std::uint32_t n_rewards = r.count(kMaxAnswers);
  rewards_.clear();
  rewards_.reserve(n_rewards);
  for (std::uint32_t i = 0; i < n_rewards; ++i) rewards_.push_back(r.u64());
  const Bytes proof = r.frame(kMaxProofBytes);
  if (!proof.empty()) reward_proof_ = snark::Proof::from_bytes(proof);
  r.expect_end();
}

std::uint64_t TaskContract::instruction_deadline() const {
  return collection_end_block() + params_.instruct_deadline_blocks;
}

bool TaskContract::collection_complete(std::uint64_t block_number) const {
  return submissions_.size() >= params_.num_answers || block_number > collection_deadline();
}

void TaskContract::invoke(CallContext& ctx, const std::string& method, const Bytes& args) {
  if (method == "submit") {
    handle_submit(ctx, args);
  } else if (method == "reward") {
    handle_reward(ctx, args);
  } else if (method == "finalize") {
    handle_finalize(ctx);
  } else {
    throw ContractRevert("unknown method");
  }
}

Bytes TaskContract::encode_submit_args(const Bytes& attestation, const AnswerCiphertext& ct) {
  Bytes out;
  append_frame(out, attestation);
  append_frame(out, ct.to_bytes());
  return out;
}

Bytes TaskContract::encode_reward_args(const std::vector<std::uint64_t>& rewards,
                                       const snark::Proof& proof) {
  Bytes out;
  append_u32_be(out, static_cast<std::uint32_t>(rewards.size()));
  for (const std::uint64_t r : rewards) append_u64_be(out, r);
  append_frame(out, proof.to_bytes());
  return out;
}

TaskContract::SubmitCall TaskContract::submit_call(const chain::Address& self,
                                                   const chain::Address& sender,
                                                   const Bytes& args) const {
  SubmitCall call;
  ByteReader r(args, "submit args");
  call.attestation_bytes = r.frame(kMaxAttestationBytes);
  call.ciphertext = AnswerCiphertext::from_bytes(r.frame(kMaxCiphertextBytes));
  if (!r.at_end()) throw ContractRevert("malformed submission");
  // The attested message is alpha_C || alpha_i || C_i with alpha_i taken
  // from the *actual transaction sender*: a copied ciphertext+attestation
  // replayed from a different address fails verification (footnote 9 — this
  // is exactly what defeats the free-riding copy attack).
  call.attested = concat({sender.to_bytes(), call.ciphertext.to_bytes()});
  if (params_.auth_mode == AuthMode::kAnonymous) {
    call.attestation = auth::Attestation::from_bytes(call.attestation_bytes);
    call.proof_check = {auth_vk_,
                        auth::auth_statement(self.to_bytes(), call.attested,
                                             params_.registry_root, call.attestation),
                        call.attestation.proof};
  }
  return call;
}

void TaskContract::handle_submit(CallContext& ctx, const Bytes& args) {
  if (finalized_) throw ContractRevert("task finished");
  if (submissions_.size() >= params_.num_answers) throw ContractRevert("already n answers");
  if (ctx.block_number > collection_deadline()) throw ContractRevert("answering closed");

  const SubmitCall call = submit_call(ctx.self, ctx.sender, args);
  Submission submission;
  submission.worker_address = ctx.sender;
  submission.ciphertext = call.ciphertext;
  if (params_.auth_mode == AuthMode::kAnonymous) {
    if (!verified(ctx, call.proof_check)) throw ContractRevert("attestation invalid");
    const auth::Attestation& att = call.attestation;
    // Link against the requester's attestation (she must not submit to her
    // own task) and every accepted submission (one answer per identity).
    const auth::Attestation requester_att =
        auth::Attestation::from_bytes(params_.requester_attestation);
    ctx.charge(GasSchedule::kLinkCheck);
    if (auth::link(att, requester_att)) throw ContractRevert("requester cannot submit");
    std::uint32_t linked = 0;
    for (const Submission& prior : submissions_) {
      ctx.charge(GasSchedule::kLinkCheck);
      if (auth::link(att, prior.attestation)) ++linked;
    }
    if (linked >= params_.max_submissions_per_identity) {
      throw ContractRevert("double submission");
    }
    submission.attestation = att;
  } else {
    ctx.charge(2 * GasSchedule::kRsaVerify);
    const auto att = auth::ClassicAttestation::from_bytes(call.attestation_bytes);
    if (!auth::classic_verify(ctx.self.to_bytes(), call.attested,
                              RsaPublicKey::from_bytes(params_.classic_mpk), att)) {
      throw ContractRevert("attestation invalid");
    }
    const auto requester_att =
        auth::ClassicAttestation::from_bytes(params_.requester_attestation);
    ctx.charge(GasSchedule::kLinkCheck);
    if (auth::classic_link(att, requester_att)) throw ContractRevert("requester cannot submit");
    std::uint32_t linked = 0;
    for (const Submission& prior : submissions_) {
      ctx.charge(GasSchedule::kLinkCheck);
      if (prior.classic_pk == att.public_key) ++linked;
    }
    if (linked >= params_.max_submissions_per_identity) {
      throw ContractRevert("double submission");
    }
    submission.classic_pk = att.public_key;
  }

  ctx.charge(GasSchedule::kStorageWrite);
  submissions_.insert(
      std::upper_bound(submissions_.begin(), submissions_.end(), submission, submitted_before),
      std::move(submission));
  ZL_OBS_COUNTER_ADD("task.submissions", 1);
  if (submissions_.size() == params_.num_answers) {
    collection_end_block_ = ctx.block_number;
    ctx.log("collection complete at block " + std::to_string(ctx.block_number));
  }
}

std::vector<AnswerCiphertext> TaskContract::padded_ciphertexts() const {
  const std::unique_ptr<IncentivePolicy> policy = IncentivePolicy::by_name(params_.policy_name);
  std::vector<AnswerCiphertext> cts;
  cts.reserve(params_.num_answers);
  for (const Submission& s : submissions_) cts.push_back(s.ciphertext);
  while (cts.size() < params_.num_answers) {
    cts.push_back(placeholder_ciphertext(policy->bottom()));
  }
  return cts;
}

TaskContract::RewardCall TaskContract::reward_call(const Bytes& args) const {
  RewardCall call;
  ByteReader r(args, "reward args");
  const std::uint32_t count = r.count(kMaxAnswers);
  if (count != params_.num_answers) throw ContractRevert("wrong instruction arity");
  call.rewards.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) call.rewards.push_back(r.u64());
  const snark::Proof proof = snark::Proof::from_bytes(r.frame(kMaxProofBytes));
  if (!r.at_end()) throw ContractRevert("malformed instruction");
  call.proof_check = {reward_vk_, reward_statement_for(call.rewards), proof};
  return call;
}

std::vector<Fr> TaskContract::reward_statement_for(
    const std::vector<std::uint64_t>& rewards) const {
  return reward_statement(JubjubPoint::from_bytes(params_.epk), share(), padded_ciphertexts(),
                          rewards);
}

void TaskContract::handle_reward(CallContext& ctx, const Bytes& args) {
  if (finalized_) throw ContractRevert("task finished");
  if (ctx.sender != params_.requester_address) throw ContractRevert("not the requester");
  if (!collection_complete(ctx.block_number)) throw ContractRevert("collection still open");
  if (ctx.block_number > instruction_deadline()) throw ContractRevert("instruction window closed");

  RewardCall call = reward_call(args);
  // libsnark.Verifier((P, R), pi_reward, PP) — Algorithm 1 line 14.
  if (!verified(ctx, call.proof_check)) throw ContractRevert("reward proof invalid");

  // Lines 15-17, 21: pay each worker, refund the remainder. The accepted
  // instruction and proof stay in contract state for later batch audits.
  finalized_ = true;
  rewarded_ = true;
  rewards_ = std::move(call.rewards);
  reward_proof_ = call.proof_check.proof;
  for (std::size_t i = 0; i < submissions_.size(); ++i) {
    if (rewards_[i] > 0) ctx.transfer(submissions_[i].worker_address, rewards_[i]);
  }
  ctx.transfer(params_.requester_address, ctx.self_balance());
  ZL_OBS_COUNTER_ADD("task.rewarded", 1);
  ctx.log("rewards distributed");

  // Reputation extension (open question 1): report outcomes for stable
  // (classic-mode) identities. Best-effort — an unauthorized or missing
  // registry must not unwind the payout.
  if (!params_.reputation_registry.is_zero() && params_.auth_mode == AuthMode::kClassic) {
    for (std::size_t i = 0; i < submissions_.size(); ++i) {
      const Bytes digest = keccak256(submissions_[i].classic_pk);
      const std::int64_t delta = rewards_[i] > 0 ? 1 : -1;
      try {
        ctx.call_contract(params_.reputation_registry, "record",
                          ReputationRegistryContract::encode_record_args(digest, delta));
      } catch (const ContractRevert& e) {
        ctx.log(std::string("reputation report skipped: ") + e.what());
      }
    }
  }
}

std::vector<Fr> TaskContract::reward_audit_statement() const {
  return reward_statement_for(rewards_);
}

std::vector<std::size_t> audit_rewarded_tasks(const chain::ChainState& state,
                                              const std::vector<chain::Address>& addresses) {
  // Tasks deployed from the same circuit share a verifying key, which
  // verify_batch prepares once for the whole batch.
  std::vector<snark::BatchVerifyItem> items;
  std::vector<std::size_t> item_index;  // items[k] audits addresses[item_index[k]]
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    const auto* task = state.contract_as<TaskContract>(addresses[i]);
    if (task == nullptr || !task->rewarded()) {
      failed.push_back(i);
      continue;
    }
    items.push_back({task->reward_vk(), task->reward_audit_statement(), task->reward_proof()});
    item_index.push_back(i);
  }
  const std::vector<std::uint8_t> ok = snark::verify_batch(items);
  for (std::size_t k = 0; k < ok.size(); ++k) {
    if (!ok[k]) failed.push_back(item_index[k]);
  }
  std::sort(failed.begin(), failed.end());
  return failed;
}

void TaskContract::handle_finalize(CallContext& ctx) {
  if (finalized_) throw ContractRevert("task finished");
  if (ctx.block_number <= instruction_deadline()) {
    throw ContractRevert("instruction window still open");
  }
  // Lines 18-21: no correct instruction arrived in time — reward all
  // submitters evenly as punishment, refund the remainder.
  finalized_ = true;
  if (!submissions_.empty()) {
    const std::uint64_t fallback = params_.budget / submissions_.size();
    for (const Submission& s : submissions_) ctx.transfer(s.worker_address, fallback);
  }
  ctx.transfer(params_.requester_address, ctx.self_balance());
  ZL_OBS_COUNTER_ADD("task.finalized_timeout", 1);
  ctx.log("finalized by timeout");
}

}  // namespace zl::zebralancer
