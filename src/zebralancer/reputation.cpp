#include "zebralancer/reputation.h"

#include "crypto/keccak.h"

namespace zl::zebralancer {

using chain::CallContext;
using chain::ContractRevert;
using chain::GasSchedule;

void ReputationRegistryContract::register_type() {
  if (!chain::ContractFactory::instance().knows(kContractType)) {
    chain::ContractFactory::instance().register_type(
        kContractType, [] { return std::make_unique<ReputationRegistryContract>(); });
  }
}

void ReputationRegistryContract::on_deploy(CallContext& ctx, const Bytes& ctor_args) {
  ctx.charge(GasSchedule::kStorageWrite);
  if (!ctor_args.empty()) throw ContractRevert("no constructor args expected");
  owner_ = ctx.sender;
}

void ReputationRegistryContract::invoke(CallContext& ctx, const std::string& method,
                                        const Bytes& args) {
  if (method == "authorize") {
    if (ctx.sender != owner_) throw ContractRevert("only the owner authorizes reporters");
    ctx.charge(GasSchedule::kStorageWrite);
    authorized_[chain::Address::from_bytes(args)] = true;
  } else if (method == "record") {
    // Reporters are task contracts calling in via call_contract, so the
    // sender is the task's own address.
    if (!authorized_.contains(ctx.sender)) throw ContractRevert("reporter not authorized");
    ByteReader r(args, "record args");
    const Bytes digest = r.frame(32);
    const std::int64_t delta = static_cast<std::int64_t>(r.u64());
    if (!r.at_end() || digest.size() != 32) throw ContractRevert("malformed record");
    ctx.charge(GasSchedule::kStorageWrite);
    scores_[to_hash32(digest)] += delta;
    ctx.log("reputation " + to_hex(digest).substr(0, 8) + (delta >= 0 ? " +" : " ") +
            std::to_string(delta));
  } else {
    throw ContractRevert("unknown method");
  }
}

std::optional<Bytes> ReputationRegistryContract::snapshot_state() const {
  // Both maps are std::map (ordered), so iteration is already deterministic.
  Bytes out;
  append_frame(out, owner_.to_bytes());
  append_u32_be(out, static_cast<std::uint32_t>(authorized_.size()));
  for (const auto& [addr, enabled] : authorized_) {
    append_frame(out, addr.to_bytes());
    out.push_back(enabled ? 1 : 0);
  }
  append_u32_be(out, static_cast<std::uint32_t>(scores_.size()));
  for (const auto& [digest, value] : scores_) {
    append_frame(out, Bytes(digest.begin(), digest.end()));
    append_u64_be(out, static_cast<std::uint64_t>(value));
  }
  return out;
}

void ReputationRegistryContract::restore_state(const Bytes& state) {
  // Entries cost >= 12 bytes on the wire, so the count caps only fail fast;
  // the maps grow one decoded entry at a time either way.
  constexpr std::uint32_t kMaxEntries = 1u << 22;
  ByteReader r(state, "Reputation state");
  owner_ = chain::Address::from_bytes(r.frame(chain::Address::kSize));
  authorized_.clear();
  scores_.clear();
  const std::uint32_t n_auth = r.count(kMaxEntries);
  for (std::uint32_t i = 0; i < n_auth; ++i) {
    const chain::Address addr = chain::Address::from_bytes(r.frame(chain::Address::kSize));
    authorized_[addr] = r.u8() != 0;
  }
  const std::uint32_t n_scores = r.count(kMaxEntries);
  for (std::uint32_t i = 0; i < n_scores; ++i) {
    const Hash32 digest = to_hash32(r.frame(32));  // a short frame is corrupt
    scores_[digest] = static_cast<std::int64_t>(r.u64());
  }
  r.expect_end();
}

std::int64_t ReputationRegistryContract::score(const Bytes& identity_digest) const {
  const std::int64_t* score = find_by_hash(scores_, identity_digest);
  return score == nullptr ? 0 : *score;
}

Bytes ReputationRegistryContract::encode_record_args(const Bytes& identity_digest,
                                                     std::int64_t delta) {
  Bytes out;
  append_frame(out, identity_digest);
  append_u64_be(out, static_cast<std::uint64_t>(delta));
  return out;
}

}  // namespace zl::zebralancer
