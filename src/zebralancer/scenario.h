#pragma once
// The test-net scenario driver: the paper's experimental deployment (§VI) —
// a private Ethereum-like network with two miners and two full nodes (one
// serving the requester, one serving the workers), an RA, and a faucet that
// funds one-task-only addresses.

#include "chain/datastore.h"
#include "zebralancer/clients.h"
#include "zebralancer/ra_contract.h"

namespace zl::zebralancer {

class TestNet {
 public:
  struct Config {
    unsigned num_miners = 2;
    unsigned num_full_nodes = 2;
    std::uint64_t difficulty = 2048;
    std::uint64_t base_latency_ms = 10;
    std::uint64_t jitter_ms = 5;
    std::uint64_t faucet_supply = 4'000'000'000'000ull;
    std::uint64_t seed = 42;
    unsigned merkle_depth = 8;
  };

  explicit TestNet(const Config& config);

  chain::SimNetwork& network() { return network_; }
  /// The full node serving clients (index into the full-node list).
  chain::Node& client_node(unsigned i = 0) { return *full_nodes_.at(i); }
  const chain::Node& client_node(unsigned i = 0) const { return *full_nodes_.at(i); }

  /// Faucet transfer, submitted but not waited for. Returns its tx hash.
  /// A transaction from `to` may be sent right after: miners hold it back
  /// until the transfer has funded it (Mempool::build_block).
  Bytes fund(const chain::Address& to, std::uint64_t amount);

  /// Submit a transaction via the client node and run the network until it
  /// is confirmed (throws on timeout). Returns its receipt.
  chain::Receipt submit_and_confirm(const chain::Transaction& tx,
                                    std::uint64_t deadline_ms = 120'000);

  /// Run the network until `blocks` more blocks are mined.
  void advance_blocks(std::uint64_t blocks, std::uint64_t deadline_ms = 240'000);

  std::uint64_t height() const { return client_node().chain().height(); }

  /// The registration authority (off-chain service).
  auth::RegistrationAuthority& ra() { return ra_; }
  /// Deploy/refresh the RA interface contract with the current root.
  void publish_ra_root();
  Fr on_chain_registry_root() const;

  /// Register a participant: RA certificate + on-chain root refresh.
  auth::Certificate register_participant(const std::string& identity, const Fr& pk);

  Rng fork_rng(std::string_view label) { return rng_.fork(label); }

  /// The off-chain content-addressed data store (Swarm/IPFS role).
  chain::OffChainStore& store() { return store_; }
  const chain::OffChainStore& store() const { return store_; }

  std::size_t total_blocks_mined() const;

 private:
  Config config_;
  Rng rng_;
  chain::SimNetwork network_;
  chain::GenesisConfig genesis_;
  std::unique_ptr<chain::Wallet> faucet_;
  std::unique_ptr<chain::Wallet> ra_wallet_;
  std::vector<std::unique_ptr<chain::MinerNode>> miners_;
  std::vector<std::unique_ptr<chain::Node>> full_nodes_;
  auth::RegistrationAuthority ra_;
  chain::Address ra_contract_address_;
  chain::OffChainStore store_;
};

}  // namespace zl::zebralancer
