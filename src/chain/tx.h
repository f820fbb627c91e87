#pragma once
// Transactions: ECDSA-signed messages to the blockchain. A transaction
// either transfers value, deploys a contract (to == zero address,
// data = contract_type || ctor args), or calls a contract method
// (data = method || args).

#include <optional>
#include <string>

#include "chain/address.h"
#include "ec/ecdsa.h"

namespace zl::chain {

struct Transaction {
  Address from;         // derived from pubkey; checked on verify
  Address to;           // zero address => contract creation
  std::uint64_t value = 0;
  std::uint64_t nonce = 0;
  std::uint64_t gas_limit = 0;
  std::string method;   // contract type on creation, method name on call
  Bytes payload;        // ABI-free argument bytes
  Bytes pubkey;         // 65-byte uncompressed sender key
  Bytes signature;      // 64-byte r || s

  /// Canonical bytes covered by the signature.
  Bytes signing_bytes() const;

  /// Full serialization (consensus encoding).
  Bytes to_bytes() const;
  static Transaction from_bytes(const Bytes& bytes);

  /// Transaction hash (id): keccak256 of the full encoding.
  Bytes hash() const;

  bool is_contract_creation() const { return to.is_zero(); }

  /// Signature valid and `from` matches the signing key. The verdict is
  /// memoized process-wide, keyed by the transaction hash: a tx verified at
  /// mempool admission is not re-verified inside block apply or fork replay.
  /// The hash covers every field (including pubkey and signature), so a
  /// mutated copy self-invalidates under a new key.
  bool verify_signature() const;
  /// The same, for a caller already holding hash(): `tx_hash` must be this
  /// transaction's hash as it stands now, since it keys the shared memo.
  bool verify_signature(const Hash32& tx_hash) const;

  /// Intrinsic gas: base + calldata (+ creation surcharge).
  std::uint64_t intrinsic_gas() const;
};

/// Drop every memoized signature verdict (benches use this to time the cold
/// path; see also chain::clear_validation_caches in validation.h).
void clear_signature_verdict_cache();
/// Number of memoized signature verdicts (observability for tests).
std::size_t signature_verdict_cache_size();

/// A signing account: keypair + address + nonce tracking. Participants
/// create one Wallet per task to realize the paper's one-task-only
/// pseudonyms.
class Wallet {
 public:
  explicit Wallet(Rng& rng) : key_(EcdsaKeyPair::generate(rng)), rng_(rng.fork("wallet")) {}

  const Address& address() const { return address_init_(); }

  Transaction make_transaction(const Address& to, std::uint64_t value, std::uint64_t gas_limit,
                               const std::string& method, const Bytes& payload);

  std::uint64_t next_nonce() const { return nonce_; }
  void set_nonce(std::uint64_t nonce) { nonce_ = nonce; }

 private:
  const Address& address_init_() const {
    if (!cached_address_) cached_address_ = Address::from_bytes(key_.address());
    return *cached_address_;
  }

  EcdsaKeyPair key_;
  Rng rng_;
  std::uint64_t nonce_ = 0;
  mutable std::optional<Address> cached_address_;
};

}  // namespace zl::chain
