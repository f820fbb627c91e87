#pragma once
// Reputation registry — the paper's open question 1 ("there are many
// incentive mechanisms using reputation systems, can we further extend our
// implementations to support those incentives?") made concrete.
//
// An on-chain registry maps identity digests to integer scores. Task
// contracts the registry owner has authorized report outcomes at reward
// time: rewarded submissions gain a point, unrewarded ones lose one.
// Reputation requires a *stable* identity, so tasks feed the registry only
// in the classic (non-anonymous) authentication mode — exactly the tension
// the paper's open question is about: anonymous workers are unlinkable
// across tasks by design, which is incompatible with cross-task scores.

#include <map>

#include "chain/contract.h"

namespace zl::zebralancer {

class ReputationRegistryContract : public chain::Contract {
 public:
  static constexpr const char* kContractType = "zebralancer-reputation";
  static void register_type();

  void on_deploy(chain::CallContext& ctx, const Bytes& ctor_args) override;
  void invoke(chain::CallContext& ctx, const std::string& method, const Bytes& args) override;

  std::optional<Bytes> snapshot_state() const override;
  void restore_state(const Bytes& state) override;

  /// Current score for an identity digest (0 if never seen).
  std::int64_t score(const Bytes& identity_digest) const;
  const chain::Address& owner() const { return owner_; }

  /// Wire encoding for the "record" call: identity digest + signed delta.
  static Bytes encode_record_args(const Bytes& identity_digest, std::int64_t delta);

 private:
  chain::Address owner_;
  std::map<chain::Address, bool> authorized_;
  std::map<Hash32, std::int64_t> scores_;  // identity digest -> score
};

}  // namespace zl::zebralancer
