#pragma once
// World state: account balances/nonces plus deployed contract instances.
// State is a pure function of the applied block sequence, which is how
// nodes recover consistency across forks (replay from genesis).

#include <unordered_map>

#include "chain/contract.h"
#include "chain/tx.h"

namespace zl::chain {

/// Memo key of one snark_verify precompile evaluation (snark_memo() in
/// chain/validation.h): keccak256(vk || statement || proof).
Hash32 snark_verify_cache_key(const snark::VerifyingKey& vk, const std::vector<Fr>& statement,
                              const snark::Proof& proof);

struct Account {
  std::uint64_t balance = 0;
  std::uint64_t nonce = 0;
};

struct Receipt {
  bool success = false;
  std::uint64_t gas_used = 0;
  std::string error;
  Address created_contract;  // non-zero on successful deployment
  std::vector<std::string> logs;

  /// Canonical encoding (stored inside state snapshots so a node restored
  /// from disk can still serve receipt queries for pre-snapshot blocks).
  Bytes to_bytes() const;
  static Receipt from_bytes(const Bytes& bytes);
};

class ChainState {
 public:
  /// Genesis allocations.
  void credit(const Address& addr, std::uint64_t amount) { accounts_[addr].balance += amount; }

  std::uint64_t balance_of(const Address& addr) const;
  std::uint64_t nonce_of(const Address& addr) const;

  /// Validate + execute one transaction; gas is bought from the sender's
  /// balance and the fee is credited to `miner`. Invalid transactions
  /// (bad signature / nonce / funds) throw std::invalid_argument — blocks
  /// containing them are invalid. Contract reverts and out-of-gas produce a
  /// failed Receipt but a valid state transition (fee still charged).
  Receipt apply_transaction(const Transaction& tx, std::uint64_t block_number,
                            const Address& miner);

  /// Read-only access to a deployed contract (anyone can inspect on-chain
  /// state: blockchain transparency).
  const Contract* contract_at(const Address& addr) const;
  template <typename T>
  const T* contract_as(const Address& addr) const {
    return dynamic_cast<const T*>(contract_at(addr));
  }

  bool is_contract(const Address& addr) const { return contracts_.contains(addr); }

  /// Direct balance move used by CallContext::transfer.
  bool move_balance(const Address& from, const Address& to, std::uint64_t amount);

  /// Mutable contract access for cross-contract calls (runtime internal).
  Contract* mutable_contract_at(const Address& addr);

  // --- snapshots -----------------------------------------------------------
  //
  // A snapshot is a canonical byte encoding of the whole world state:
  // accounts (sorted by address) and contracts (sorted by address, each as
  // factory type name + Contract::snapshot_state()). Deterministic across
  // nodes, checksummed and persisted by the storage engine, and also used
  // in-memory as reorg checkpoints. Returns nullopt if any deployed
  // contract opts out of snapshotting (see Contract::snapshot_state).

  std::optional<Bytes> snapshot_bytes() const;

  /// Rebuild a state from snapshot_bytes() output. Contract instances come
  /// from the global ContractFactory. Throws std::invalid_argument on
  /// malformed input or unknown contract types.
  static ChainState from_snapshot(const Bytes& bytes);

 private:
  struct Deployed {
    std::string type;  // ContractFactory name the instance was created from
    std::unique_ptr<Contract> instance;
  };

  std::unordered_map<Address, Account> accounts_;
  std::unordered_map<Address, Deployed> contracts_;
};

}  // namespace zl::chain
