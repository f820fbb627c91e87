#pragma once
// Clients for the non-anonymous mode (paper §VI): RSA-certified identities,
// plain signatures instead of zk attestations. The outsource-then-prove
// reward phase is unchanged — data confidentiality and fair exchange do not
// depend on anonymity.
//
// Participants still use one-task-only wallets for payments, but their
// certified public key rides along with every submission, so anyone can
// link their whole participation history — the exact privacy loss the
// anonymous mode exists to prevent (and what makes this mode "cost nearly
// nothing").

#include "auth/classic_auth.h"
#include "zebralancer/clients.h"

namespace zl::zebralancer {

class ClassicRequesterClient {
 public:
  ClassicRequesterClient(TestNet& net, const SystemParams& params,
                         const auth::ClassicUserKey& key, const auth::ClassicCertificate& cert,
                         const RsaPublicKey& mpk, Rng rng);

  chain::Address publish(const TaskSpec& spec);
  bool collection_complete() const;
  std::vector<std::uint64_t> instruct_rewards();
  std::vector<Fr> decrypted_answers() const;

  const chain::Address& task_address() const { return task_address_; }

 private:
  const TaskContract& contract() const;

  TestNet& net_;
  const SystemParams& params_;
  auth::ClassicUserKey key_;
  auth::ClassicCertificate cert_;
  RsaPublicKey mpk_;
  Rng rng_;
  std::unique_ptr<chain::Wallet> wallet_;
  TaskEncKeyPair enc_key_;
  RewardCircuitSpec spec_;
  chain::Address task_address_;
};

class ClassicWorkerClient {
 public:
  ClassicWorkerClient(TestNet& net, const auth::ClassicUserKey& key,
                      const auth::ClassicCertificate& cert, Rng rng);

  Bytes submit_answer(const chain::Address& task_address, const Fr& answer);
  chain::Address reward_address(const chain::Address& task_address) const;

 private:
  TestNet& net_;
  auth::ClassicUserKey key_;
  auth::ClassicCertificate cert_;
  Rng rng_;
  std::map<chain::Address, std::unique_ptr<chain::Wallet>> task_wallets_;
};

}  // namespace zl::zebralancer
