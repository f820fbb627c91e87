#pragma once
// The smart-contract runtime (DESIGN.md substitution T1).
//
// Contracts are deterministic native objects executed identically by every
// node, addressed like Ethereum contracts, metered in gas, and
// reconstructible by replaying the chain (deployment transactions carry the
// contract type name + constructor args; a global factory instantiates
// them). The runtime exposes the `snark_verify` precompile the paper adds
// to the EVM so contracts can check zk-SNARK proofs on chain.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "chain/address.h"
#include "chain/gas.h"
#include "snark/groth16.h"

namespace zl::chain {

class ChainState;
class Transaction;

/// Everything a contract invocation can see and touch.
struct CallContext {
  Address self;               // this contract's address
  Address sender;             // transaction sender
  std::uint64_t value = 0;    // wei attached to the call
  std::uint64_t block_number = 0;
  GasMeter* gas = nullptr;
  ChainState* state = nullptr;
  std::vector<std::string>* logs = nullptr;

  void charge(std::uint64_t amount) const { gas->charge(amount); }
  void log(std::string message) const {
    if (logs != nullptr) logs->push_back(std::move(message));
  }

  /// The snark_verify precompile: verifies a Groth16 proof, charging the
  /// EIP-197-style pairing price (4 pairings per Groth16 verification).
  /// Results are memoized process-wide in snark_memo() (chain/validation.h)
  /// — verification is a deterministic pure function, nodes replay the same
  /// proofs on every fork reorg, and block prevalidation warms the memo with
  /// the triples Contract::snark_prechecks names.
  bool snark_verify(const snark::VerifyingKey& vk, const std::vector<Fr>& statement,
                    const snark::Proof& proof) const;

  /// Move `amount` wei from this contract's balance to `to`. Returns false
  /// (without throwing) if the balance is insufficient — mirroring the
  /// `transfer` helper in the paper's Algorithm 1.
  bool transfer(const Address& to, std::uint64_t amount) const;

  std::uint64_t self_balance() const;

  /// Synchronous cross-contract call: invoke `method` on the contract at
  /// `callee` with this contract as the sender, sharing the gas meter.
  /// Throws ContractRevert if the callee is missing or reverts (and the
  /// revert propagates, as in the EVM).
  void call_contract(const Address& callee, const std::string& method, const Bytes& args) const;
};

/// One snark_verify evaluation a transaction will perform if applied on top
/// of the observed state: enough to verify it out-of-band and warm the memo.
struct SnarkPrecheck {
  snark::VerifyingKey vk;
  std::vector<Fr> statement;
  snark::Proof proof;
};

/// A deployed contract. Implementations must be deterministic functions of
/// (ctor args, sequence of invocations): nodes replay them to agree on
/// state. Reverting is signalled by throwing ContractRevert.
///
/// Discipline: the runtime rolls back the transaction's direct value
/// transfer on revert but does NOT snapshot contract fields — contract code
/// must follow checks-effects ordering (validate everything, then mutate;
/// never throw after the first mutation or outgoing transfer).
class Contract {
 public:
  virtual ~Contract() = default;

  virtual void on_deploy(CallContext& ctx, const Bytes& ctor_args) = 0;
  virtual void invoke(CallContext& ctx, const std::string& method, const Bytes& args) = 0;

  /// Durable-state hooks. snapshot_state() returns a canonical, deterministic
  /// encoding of ALL fields that invoke()/on_deploy() can mutate;
  /// restore_state() rebuilds a freshly factory-created instance from those
  /// bytes WITHOUT re-running any validation (the chain already validated the
  /// history that produced them). Types that do not implement the pair
  /// (returning nullopt) simply opt the whole state out of snapshotting —
  /// the node then falls back to full journal replay, which stays correct.
  virtual std::optional<Bytes> snapshot_state() const { return std::nullopt; }
  virtual void restore_state(const Bytes& /*state*/) {
    throw std::invalid_argument("contract type does not support snapshot restore");
  }

  /// The snark_verify calls `tx` would issue if applied to this instance in
  /// its current state: a call to this contract, or — asked of a blank
  /// factory instance — a creation of this type. Block prevalidation
  /// verifies them in one parallel batch ahead of sequential apply.
  /// Best-effort and read-only: return nothing (or throw) for a transaction
  /// that would revert first; a wrong guess is only a memo miss.
  virtual std::vector<SnarkPrecheck> snark_prechecks(const Transaction& /*tx*/) const {
    return {};
  }
};

class ContractRevert : public std::runtime_error {
 public:
  explicit ContractRevert(const std::string& reason)
      : std::runtime_error("revert: " + reason) {}
};

/// Global registry mapping contract type names (the "code" a creation
/// transaction references) to constructors.
class ContractFactory {
 public:
  using Maker = std::function<std::unique_ptr<Contract>()>;

  static ContractFactory& instance();

  void register_type(const std::string& name, Maker maker);
  std::unique_ptr<Contract> create(const std::string& name) const;
  bool knows(const std::string& name) const;

 private:
  std::map<std::string, Maker> makers_;
};

}  // namespace zl::chain
