#include "zebralancer/scenario.h"

#include <stdexcept>

#include "obs/obs.h"

namespace zl::zebralancer {

using chain::Address;
using chain::GenesisConfig;
using chain::MinerNode;
using chain::Node;
using chain::Receipt;
using chain::Transaction;
using chain::Wallet;

TestNet::TestNet(const Config& config)
    : config_(config),
      rng_(config.seed),
      network_({.base_latency_ms = config.base_latency_ms,
                .jitter_ms = config.jitter_ms,
                .seed = config.seed ^ 0x5eed}),
      ra_(config.merkle_depth) {
  TaskContract::register_type();
  RaRegistryContract::register_type();

  Rng faucet_rng = rng_.fork("faucet");
  faucet_ = std::make_unique<Wallet>(faucet_rng);
  Rng ra_rng = rng_.fork("ra-wallet");
  ra_wallet_ = std::make_unique<Wallet>(ra_rng);
  genesis_.allocations = {{faucet_->address(), config.faucet_supply},
                          {ra_wallet_->address(), 100'000'000}};
  genesis_.difficulty = config.difficulty;

  for (unsigned i = 0; i < config.num_miners; ++i) {
    Rng coinbase_rng = rng_.fork("miner-" + std::to_string(i));
    const Wallet coinbase(coinbase_rng);
    miners_.push_back(std::make_unique<MinerNode>(network_, genesis_, coinbase.address()));
  }
  for (unsigned i = 0; i < config.num_full_nodes; ++i) {
    full_nodes_.push_back(std::make_unique<Node>(network_, genesis_));
  }
  if (full_nodes_.empty()) throw std::invalid_argument("TestNet: need at least one full node");

  // Deploy the RA interface contract with the (initially empty) root.
  const Transaction deploy = ra_wallet_->make_transaction(
      Address(), 0, 500'000, RaRegistryContract::kContractType, ra_.registry_root().to_bytes());
  const Receipt receipt = submit_and_confirm(deploy);
  if (!receipt.success) throw std::runtime_error("TestNet: RA contract deploy failed");
  ra_contract_address_ = receipt.created_contract;
}

Receipt TestNet::submit_and_confirm(const Transaction& tx, std::uint64_t deadline_ms) {
  ZL_TRACE_SPAN("testnet.submit_and_confirm");
  client_node().submit_transaction(tx);
  const Bytes hash = tx.hash();
  const std::uint64_t deadline = network_.now() + deadline_ms;
  while (network_.now() < deadline) {
    network_.run_for(20);
    // Confirmed = included and at least one block on top (so a competing
    // sibling cannot trivially unwind it at equal difficulty).
    const auto included = client_node().chain().confirmation_block(hash);
    if (included.has_value() && client_node().chain().height() > *included) {
      return *client_node().chain().find_receipt(hash);
    }
  }
  // Build a diagnostic so a stalled simulation explains itself.
  std::string diag = "TestNet: transaction not confirmed before deadline;";
  diag += " now=" + std::to_string(network_.now());
  for (std::size_t i = 0; i < full_nodes_.size(); ++i) {
    diag += " full" + std::to_string(i) + ".h=" + std::to_string(full_nodes_[i]->chain().height());
    diag += full_nodes_[i]->chain().find_receipt(hash).has_value() ? "(has rcpt)" : "(no rcpt)";
  }
  for (std::size_t i = 0; i < miners_.size(); ++i) {
    diag += " miner" + std::to_string(i) + ".h=" + std::to_string(miners_[i]->chain().height());
    diag += miners_[i]->chain().find_receipt(hash).has_value() ? "(has rcpt)" : "(no rcpt)";
  }
  throw std::runtime_error(diag);
}

Bytes TestNet::fund(const Address& to, std::uint64_t amount) {
  const Transaction transfer = faucet_->make_transaction(to, amount, 21'000, "", {});
  client_node().submit_transaction(transfer);
  return transfer.hash();
}

void TestNet::advance_blocks(std::uint64_t blocks, std::uint64_t deadline_ms) {
  const std::uint64_t target = height() + blocks;
  if (!network_.run_until_height(target, deadline_ms)) {
    throw std::runtime_error("TestNet: network stalled before reaching target height");
  }
}

void TestNet::publish_ra_root() {
  const Transaction update = ra_wallet_->make_transaction(
      ra_contract_address_, 0, 100'000, "update_root", ra_.registry_root().to_bytes());
  const Receipt r = submit_and_confirm(update);
  if (!r.success) throw std::runtime_error("TestNet: RA root update failed: " + r.error);
}

Fr TestNet::on_chain_registry_root() const {
  const auto* contract =
      client_node().chain().state().contract_as<RaRegistryContract>(ra_contract_address_);
  if (contract == nullptr) throw std::runtime_error("TestNet: RA contract missing");
  return contract->registry_root();
}

auth::Certificate TestNet::register_participant(const std::string& identity, const Fr& pk) {
  const auth::Certificate cert = ra_.register_identity(identity, pk);
  publish_ra_root();
  return cert;
}

std::size_t TestNet::total_blocks_mined() const {
  std::size_t total = 0;
  for (const auto& miner : miners_) total += miner->blocks_mined();
  return total;
}

}  // namespace zl::zebralancer
