#include "zebralancer/clients.h"

#include <stdexcept>

#include "zebralancer/scenario.h"

namespace zl::zebralancer {

using chain::Address;
using chain::Receipt;
using chain::Transaction;
using chain::Wallet;

SystemParams make_system_params(unsigned merkle_depth,
                                const std::vector<RewardCircuitSpec>& specs, Rng& rng) {
  SystemParams params;
  params.auth = auth::auth_setup(merkle_depth, rng);
  for (const RewardCircuitSpec& spec : specs) {
    params.reward_keys.emplace(SystemParams::spec_key(spec), reward_setup(spec, rng));
  }
  return params;
}

namespace {

/// Attest prefix || rest under the identity's scheme: one of the clients'
/// two mode branches (the other fills publish's mode-specific TaskParams).
/// Only CPL-AA draws from `rng` (its proof randomness).
Bytes attest(const Identity& identity, const auth::AuthParams& auth, const Bytes& prefix,
             const Bytes& rest, const Fr& registry_root, Rng& rng) {
  if (const auto* classic = std::get_if<ClassicIdentity>(&identity)) {
    return auth::classic_authenticate(prefix, rest, classic->key, classic->cert).to_bytes();
  }
  const auto& anonymous = std::get<AnonymousIdentity>(identity);
  return auth::authenticate(auth, prefix, rest, anonymous.key, anonymous.cert, registry_root, rng)
      .to_bytes();
}

AuthMode mode_of(const Identity& identity) {
  return std::holds_alternative<ClassicIdentity>(identity) ? AuthMode::kClassic
                                                           : AuthMode::kAnonymous;
}

const TaskContract* find_task(TestNet& net, const Address& task_address) {
  return net.client_node().chain().state().contract_as<TaskContract>(task_address);
}

}  // namespace

RequesterClient::RequesterClient(TestNet& net, const SystemParams& params,
                                 const auth::UserKey& key, const auth::Certificate& cert,
                                 Rng rng)
    : net_(net), params_(params), identity_(AnonymousIdentity{key, cert}), rng_(std::move(rng)) {}

RequesterClient::RequesterClient(TestNet& net, const SystemParams& params,
                                 const auth::ClassicUserKey& key,
                                 const auth::ClassicCertificate& cert, const RsaPublicKey& mpk,
                                 Rng rng)
    : net_(net),
      params_(params),
      identity_(ClassicIdentity{key, cert, mpk}),
      rng_(std::move(rng)) {}

chain::Address RequesterClient::publish(const TaskSpec& spec, const Fr& registry_root) {
  spec_ = RewardCircuitSpec{spec.num_answers, spec.policy_name};
  if (!params_.has_reward_keypair(spec_)) {
    throw std::invalid_argument("RequesterClient: no SNARK established for this task shape");
  }

  // Fresh one-task-only blockchain address alpha_R and task keypair.
  wallet_ = std::make_unique<Wallet>(rng_);
  enc_key_ = TaskEncKeyPair::generate(rng_);

  // alpha_C is predictable before deployment (footnote 10): the deployment
  // is this wallet's nonce-0 transaction.
  const Address alpha_r = wallet_->address();
  const Address alpha_c = Address::for_contract(alpha_r, 0);

  TaskParams params;
  params.requester_address = alpha_r;
  // Authenticate alpha_C || alpha_R (footnote 9).
  params.requester_attestation =
      attest(identity_, params_.auth, alpha_c.to_bytes(), alpha_r.to_bytes(), registry_root, rng_);
  // Each is zero unless set, and the contract reads each only in its mode.
  params.registry_root = registry_root;
  params.reputation_registry = spec.reputation_registry;
  if (const auto* classic = std::get_if<ClassicIdentity>(&identity_)) {
    params.auth_mode = AuthMode::kClassic;
    params.classic_mpk = classic->mpk.to_bytes();
  } else {
    params.auth_vk = params_.auth.keys.vk.to_bytes();
  }
  params.budget = spec.budget;
  params.epk = enc_key_.epk.to_bytes();
  params.num_answers = spec.num_answers;
  params.max_submissions_per_identity = spec.max_submissions_per_identity;
  params.answer_deadline_blocks = spec.answer_deadline_blocks;
  params.instruct_deadline_blocks = spec.instruct_deadline_blocks;
  params.policy_name = spec.policy_name;
  if (!spec.task_data.empty()) {
    params.task_data_digest = net_.store().put(spec.task_data);
  }
  params.reward_vk = params_.reward_keypair(spec_).vk.to_bytes();

  const Bytes ctor_args = params.to_bytes();
  const std::uint64_t gas = 2'000'000 + 2 * ctor_args.size();
  // The deploy waits in the mempool until the transfer funds alpha_R, so
  // publishing waits for one confirmation, the deploy's.
  net_.fund(alpha_r, spec.budget + gas + 3'000'000);

  const Transaction deploy = wallet_->make_transaction(Address(), spec.budget, gas,
                                                       TaskContract::kContractType, ctor_args);
  deploy_tx_hash_ = deploy.hash();
  const Receipt receipt = net_.submit_and_confirm(deploy);
  if (!receipt.success) {
    throw std::runtime_error("RequesterClient: task deploy rejected: " + receipt.error);
  }
  if (receipt.created_contract != alpha_c) {
    throw std::runtime_error("RequesterClient: alpha_C prediction failed");
  }
  task_address_ = receipt.created_contract;
  return task_address_;
}

const TaskContract& RequesterClient::contract() const {
  const TaskContract* c = find_task(net_, task_address_);
  if (c == nullptr) throw std::runtime_error("RequesterClient: task contract not on chain");
  return *c;
}

bool RequesterClient::collection_complete() const {
  return contract().collection_complete(net_.height());
}

std::vector<Fr> RequesterClient::decrypted_answers() const {
  std::vector<Fr> answers;
  for (const TaskContract::Submission& s : contract().submissions()) {
    answers.push_back(decrypt_answer(enc_key_.esk, s.ciphertext));
  }
  return answers;
}

std::vector<std::uint64_t> RequesterClient::instruct_rewards() {
  if (!collection_complete()) throw std::logic_error("RequesterClient: collection still open");
  const TaskContract& task = contract();
  // The contract's own ⊥-padded answer vector, in its canonical order: the
  // statement it will check on whichever branch holds the answers.
  const RewardInstruction instruction =
      prove_rewards(params_.reward_keypair(spec_).pk, spec_, enc_key_, task.share(),
                    task.padded_ciphertexts(), rng_);

  const Transaction tx = wallet_->make_transaction(
      task_address_, 0, 2'000'000, "reward",
      TaskContract::encode_reward_args(instruction.rewards, instruction.proof));
  reward_tx_hash_ = tx.hash();
  const Receipt receipt = net_.submit_and_confirm(tx);
  if (!receipt.success) {
    throw std::runtime_error("RequesterClient: reward instruction rejected: " + receipt.error);
  }
  return instruction.rewards;
}

WorkerClient::WorkerClient(TestNet& net, const SystemParams& params, const auth::UserKey& key,
                           const auth::Certificate& cert, Rng rng)
    : net_(net), params_(params), identity_(AnonymousIdentity{key, cert}), rng_(std::move(rng)) {}

WorkerClient::WorkerClient(TestNet& net, const SystemParams& params,
                           const auth::ClassicUserKey& key, const auth::ClassicCertificate& cert,
                           Rng rng)
    : net_(net), params_(params), identity_(ClassicIdentity{key, cert, {}}), rng_(std::move(rng)) {}

std::optional<Bytes> WorkerClient::fetch_task_data(const Address& task_address) const {
  const TaskContract* task = find_task(net_, task_address);
  if (task == nullptr || task->params().task_data_digest.empty()) return std::nullopt;
  return net_.store().get(task->params().task_data_digest);
}

chain::Address WorkerClient::reward_address(const Address& task_address) const {
  const auto it = task_wallets_.find(task_address);
  if (it == task_wallets_.end()) throw std::logic_error("WorkerClient: no submission for task");
  return it->second->address();
}

Bytes WorkerClient::submit_answer(const Address& task_address, const Fr& answer) {
  // Validate the contract's content before participating (paper: the worker
  // "first validates the contract content").
  const TaskContract* task = find_task(net_, task_address);
  if (task == nullptr) throw std::invalid_argument("WorkerClient: no such task");
  if (task->params().auth_mode != mode_of(identity_)) {
    throw std::invalid_argument("WorkerClient: task expects the other authentication mode");
  }
  if (task->finalized() || task->collection_complete(net_.height())) {
    throw std::invalid_argument("WorkerClient: task not accepting answers");
  }
  const JubjubPoint epk = JubjubPoint::from_bytes(task->params().epk);

  // A data-intensive task references its blob by content address: fetch and
  // verify it before doing any work (footnote 13).
  if (!task->params().task_data_digest.empty() &&
      !net_.store().get(task->params().task_data_digest).has_value()) {
    throw std::invalid_argument("WorkerClient: task data unavailable in off-chain storage");
  }

  // One-task-only address alpha_i. Encrypt the answer under the task key;
  // authenticate alpha_C || alpha_i || C_i.
  auto wallet = std::make_unique<Wallet>(rng_);
  const Address alpha_i = wallet->address();
  const AnswerCiphertext ct = encrypt_answer(epk, answer, rng_);
  const Bytes att = attest(identity_, params_.auth, task_address.to_bytes(),
                           concat({alpha_i.to_bytes(), ct.to_bytes()}),
                           task->params().registry_root, rng_);

  // Only now fund alpha_i for gas: a failed check or attestation above sends
  // nothing. Proving advances no simulated time, so the transfer and the
  // answer still enter the network's batch back to back. The answer does not
  // wait for the transfer: miners hold it back until alpha_i is funded, and
  // a transfer that never lands leaves the answer without a receipt.
  net_.fund(alpha_i, 3'000'000);
  const Transaction tx = wallet->make_transaction(task_address, 0, 2'000'000, "submit",
                                                  TaskContract::encode_submit_args(att, ct));
  task_wallets_[task_address] = std::move(wallet);
  net_.client_node().submit_transaction(tx);
  return tx.hash();
}

}  // namespace zl::zebralancer
