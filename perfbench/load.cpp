#include "load.h"

#include "common/thread_pool.h"
#include "crypto/keccak.h"

namespace zl::perfbench {

void MicrotaskContract::register_type() {
  chain::ContractFactory& factory = chain::ContractFactory::instance();
  if (!factory.knows(kType)) {
    factory.register_type(kType, [] { return std::make_unique<MicrotaskContract>(); });
  }
}

void MicrotaskContract::on_deploy(chain::CallContext& ctx, const Bytes& ctor_args) {
  if (ctor_args.size() > kMaxTaskIdBytes) throw chain::ContractRevert("task id too long");
  ctx.charge(chain::GasSchedule::kStorageWrite);
  task_id_ = ctor_args;
}

void MicrotaskContract::invoke(chain::CallContext& ctx, const std::string& method,
                               const Bytes& args) {
  if (method != "submit") throw chain::ContractRevert("unknown method");
  if (entries_.size() >= kMaxEntries) throw chain::ContractRevert("task full");
  ctx.charge(chain::GasSchedule::kStorageWrite);
  Bytes entry = ctx.sender.to_bytes();
  const Bytes digest = keccak256(args);
  entry.insert(entry.end(), digest.begin(), digest.end());
  entries_.push_back(std::move(entry));
}

std::optional<Bytes> MicrotaskContract::snapshot_state() const {
  Bytes out;
  append_frame(out, task_id_);
  append_u32_be(out, static_cast<std::uint32_t>(entries_.size()));
  for (const Bytes& e : entries_) append_frame(out, e);
  return out;
}

void MicrotaskContract::restore_state(const Bytes& state) {
  ByteReader in(state, "microtask state");
  Bytes task_id = in.frame(kMaxTaskIdBytes);
  const std::uint32_t n = in.count(kMaxEntries);
  std::vector<Bytes> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) entries.push_back(in.frame(kEntryBytes));
  in.expect_end();
  task_id_ = std::move(task_id);
  entries_ = std::move(entries);
}

std::vector<chain::Transaction> sign_plan(std::vector<std::unique_ptr<chain::Wallet>>& wallets,
                                          const std::vector<PlannedTx>& plan) {
  std::vector<std::vector<std::size_t>> by_wallet(wallets.size());
  for (std::size_t i = 0; i < plan.size(); ++i) by_wallet.at(plan[i].wallet).push_back(i);
  std::vector<chain::Transaction> out(plan.size());
  zl::parallel_for(
      wallets.size(),
      [&](std::size_t w) {
        for (const std::size_t i : by_wallet[w]) {
          const PlannedTx& p = plan[i];
          out[i] = wallets[w]->make_transaction(p.to, p.value, p.gas_limit, p.method, p.payload);
        }
      },
      1);
  return out;
}

}  // namespace zl::perfbench
