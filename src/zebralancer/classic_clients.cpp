#include "zebralancer/classic_clients.h"

#include <stdexcept>

#include "zebralancer/scenario.h"

namespace zl::zebralancer {

using chain::Address;
using chain::Receipt;
using chain::Transaction;
using chain::Wallet;

ClassicRequesterClient::ClassicRequesterClient(TestNet& net, const SystemParams& params,
                                               const auth::ClassicUserKey& key,
                                               const auth::ClassicCertificate& cert,
                                               const RsaPublicKey& mpk, Rng rng)
    : net_(net), params_(params), key_(key), cert_(cert), mpk_(mpk), rng_(std::move(rng)) {}

chain::Address ClassicRequesterClient::publish(const TaskSpec& spec) {
  spec_ = RewardCircuitSpec{spec.num_answers, spec.policy_name};
  if (!params_.has_reward_keypair(spec_)) {
    throw std::invalid_argument("ClassicRequesterClient: no SNARK for this task shape");
  }
  wallet_ = std::make_unique<Wallet>(rng_);
  enc_key_ = TaskEncKeyPair::generate(rng_);

  const Address alpha_r = wallet_->address();
  const Address alpha_c = Address::for_contract(alpha_r, 0);
  const auth::ClassicAttestation att =
      auth::classic_authenticate(alpha_c.to_bytes(), alpha_r.to_bytes(), key_, cert_);

  TaskParams params;
  params.auth_mode = AuthMode::kClassic;
  params.requester_address = alpha_r;
  params.requester_attestation = att.to_bytes();
  params.classic_mpk = mpk_.to_bytes();
  params.budget = spec.budget;
  params.epk = enc_key_.epk.to_bytes();
  params.num_answers = spec.num_answers;
  params.max_submissions_per_identity = spec.max_submissions_per_identity;
  params.answer_deadline_blocks = spec.answer_deadline_blocks;
  params.instruct_deadline_blocks = spec.instruct_deadline_blocks;
  params.policy_name = spec.policy_name;
  params.reputation_registry = spec.reputation_registry;
  if (!spec.task_data.empty()) {
    params.task_data_digest = net_.store().put(spec.task_data);
  }
  params.reward_vk = params_.reward_keypair(spec_).vk.to_bytes();

  const Bytes ctor_args = params.to_bytes();
  const std::uint64_t gas = 2'000'000 + 2 * ctor_args.size();
  net_.fund(alpha_r, spec.budget + gas + 3'000'000);
  const Transaction deploy = wallet_->make_transaction(Address(), spec.budget, gas,
                                                       TaskContract::kContractType, ctor_args);
  const Receipt receipt = net_.submit_and_confirm(deploy);
  if (!receipt.success) {
    throw std::runtime_error("ClassicRequesterClient: deploy rejected: " + receipt.error);
  }
  task_address_ = receipt.created_contract;
  return task_address_;
}

const TaskContract& ClassicRequesterClient::contract() const {
  const auto* c = net_.client_node().chain().state().contract_as<TaskContract>(task_address_);
  if (c == nullptr) throw std::runtime_error("ClassicRequesterClient: contract not on chain");
  return *c;
}

bool ClassicRequesterClient::collection_complete() const {
  return contract().collection_complete(net_.height());
}

std::vector<Fr> ClassicRequesterClient::decrypted_answers() const {
  std::vector<Fr> answers;
  for (const TaskContract::Submission& s : contract().submissions()) {
    answers.push_back(decrypt_answer(enc_key_.esk, s.ciphertext));
  }
  return answers;
}

std::vector<std::uint64_t> ClassicRequesterClient::instruct_rewards() {
  if (!collection_complete()) {
    throw std::logic_error("ClassicRequesterClient: collection still open");
  }
  net_.settle_collection(task_address_);
  const TaskContract& task = contract();
  // The contract's own ⊥-padded answer vector: the statement it will check.
  const RewardInstruction instruction =
      prove_rewards(params_.reward_keypair(spec_).pk, spec_, enc_key_, task.share(),
                    task.padded_ciphertexts(), rng_);
  const Transaction tx = wallet_->make_transaction(
      task_address_, 0, 2'000'000, "reward",
      TaskContract::encode_reward_args(instruction.rewards, instruction.proof));
  const Receipt receipt = net_.submit_and_confirm(tx);
  if (!receipt.success) {
    throw std::runtime_error("ClassicRequesterClient: instruction rejected: " + receipt.error);
  }
  return instruction.rewards;
}

ClassicWorkerClient::ClassicWorkerClient(TestNet& net, const auth::ClassicUserKey& key,
                                         const auth::ClassicCertificate& cert, Rng rng)
    : net_(net), key_(key), cert_(cert), rng_(std::move(rng)) {}

chain::Address ClassicWorkerClient::reward_address(const Address& task_address) const {
  const auto it = task_wallets_.find(task_address);
  if (it == task_wallets_.end()) {
    throw std::logic_error("ClassicWorkerClient: no submission for task");
  }
  return it->second->address();
}

Bytes ClassicWorkerClient::submit_answer(const Address& task_address, const Fr& answer) {
  const auto* task = net_.client_node().chain().state().contract_as<TaskContract>(task_address);
  if (task == nullptr) throw std::invalid_argument("ClassicWorkerClient: no such task");
  if (task->params().auth_mode != AuthMode::kClassic) {
    throw std::invalid_argument("ClassicWorkerClient: task expects anonymous authentication");
  }
  if (task->finalized() || task->collection_complete(net_.height())) {
    throw std::invalid_argument("ClassicWorkerClient: task not accepting answers");
  }
  const JubjubPoint epk = JubjubPoint::from_bytes(task->params().epk);

  auto wallet = std::make_unique<Wallet>(rng_);
  const Address alpha_i = wallet->address();
  net_.fund(alpha_i, 3'000'000);

  const AnswerCiphertext ct = encrypt_answer(epk, answer, rng_);
  const Bytes rest = concat({alpha_i.to_bytes(), ct.to_bytes()});
  const auth::ClassicAttestation att =
      auth::classic_authenticate(task_address.to_bytes(), rest, key_, cert_);

  const Transaction tx = wallet->make_transaction(
      task_address, 0, 2'000'000, "submit", TaskContract::encode_submit_args(att, ct));
  task_wallets_[task_address] = std::move(wallet);
  net_.client_node().submit_transaction(tx);
  return tx.hash();
}

}  // namespace zl::zebralancer
