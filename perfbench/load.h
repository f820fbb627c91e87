#pragma once
// Load generation shared by the marketplace and chain_sync workloads: the
// benchmark's own task-shaped contract, and parallel pre-signing of a
// planned transaction sequence (done in set-up, never in a timed window).

#include <memory>

#include "chain/contract.h"
#include "chain/tx.h"

namespace zl::perfbench {

/// Deploy stores a task id, "submit" appends the sender and a Keccak digest
/// of the payload: real contract-runtime storage traffic without SNARK
/// proving. Snapshot hooks are implemented so checkpoints, durable snapshots
/// and reopen work with it deployed; restore_state decodes through the
/// library's bounds-checked zl::ByteReader.
class MicrotaskContract : public chain::Contract {
 public:
  static constexpr const char* kType = "perfbench-microtask";
  /// Decode caps: a task id is a short label, an entry is a 20-byte address
  /// plus a 32-byte digest, and no workload submits more than this many
  /// answers to one contract.
  static constexpr std::size_t kMaxTaskIdBytes = 256;
  static constexpr std::size_t kEntryBytes = 52;
  static constexpr std::uint32_t kMaxEntries = 1u << 20;

  /// Registers the type with the global ContractFactory (idempotent).
  static void register_type();

  void on_deploy(chain::CallContext& ctx, const Bytes& ctor_args) override;
  void invoke(chain::CallContext& ctx, const std::string& method, const Bytes& args) override;
  std::optional<Bytes> snapshot_state() const override;
  void restore_state(const Bytes& state) override;

  std::size_t entry_count() const { return entries_.size(); }

 private:
  Bytes task_id_;
  std::vector<Bytes> entries_;
};

/// One transaction to sign: `wallet` indexes the wallet list given to
/// sign_plan; the nonce is the wallet's next one at signing time.
struct PlannedTx {
  std::size_t wallet = 0;
  chain::Address to;
  std::uint64_t value = 0;
  std::uint64_t gas_limit = 0;
  std::string method;
  Bytes payload;
};

/// Signs `plan` (out[i] is plan[i]), each wallet's transactions in plan
/// order, different wallets in parallel on the library's thread pool.
std::vector<chain::Transaction> sign_plan(std::vector<std::unique_ptr<chain::Wallet>>& wallets,
                                          const std::vector<PlannedTx>& plan);

}  // namespace zl::perfbench
