#pragma once
// Transactions: ECDSA-signed messages to the blockchain. A transaction
// either transfers value, deploys a contract (to == zero address,
// data = contract_type || ctor args), or calls a contract method
// (data = method || args).

#include <string>
#include <utility>

#include "chain/address.h"
#include "ec/ecdsa.h"

namespace zl::chain {

/// The nine plain fields of a transaction: what a Transaction is built from.
struct TxFields {
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
};

/// A sealed transaction: its fields are read-only, and its hash (the id,
/// keccak256 of the full encoding) is computed exactly once, when it is
/// constructed — from fields or by from_bytes, each counted as obs
/// `chain.tx_hash`. Copies carry the hash along, so nothing downstream
/// (mempool, block root, apply, receipts, replays) hashes it again, and no
/// caller can pair a transaction with a hash other than its own.
class Transaction {
 public:
  /// All-zero fields; the hash comes from a static, costing no keccak.
  Transaction();
  /// The one way to build a transaction from fields: wallets sign them,
  /// tests craft bad ones (copy fields(), edit, construct anew).
  explicit Transaction(TxFields fields);
  /// Decodes and hashes `bytes` as received: the encoding is canonical, so
  /// that is the hash of the re-encoding.
  static Transaction from_bytes(const Bytes& bytes);

  const TxFields& fields() const { return fields_; }
  // Shorthand for the fields most call sites read; the rest via fields().
  const Address& from() const { return fields_.from; }
  const Address& to() const { return fields_.to; }
  std::uint64_t value() const { return fields_.value; }
  std::uint64_t nonce() const { return fields_.nonce; }
  std::uint64_t gas_limit() const { return fields_.gas_limit; }
  const std::string& method() const { return fields_.method; }
  const Bytes& payload() const { return fields_.payload; }

  Bytes to_bytes() const { return fields_.to_bytes(); }

  /// Transaction hash (id), stored at construction; neither call hashes.
  Bytes hash() const { return Bytes(id_.begin(), id_.end()); }
  const Hash32& id() const { return id_; }

  bool is_contract_creation() const { return fields_.to.is_zero(); }

  /// Signature valid and `from` matches the signing key. The verdict is
  /// memoized process-wide in signature_memo() (chain/validation.h), keyed
  /// by id(): a tx verified at mempool
  /// admission is not re-verified inside block apply or fork replay. The
  /// hash covers every field (including pubkey and signature), so a crafted
  /// variant is a different transaction with its own key.
  bool verify_signature() const;

  /// Intrinsic gas: base + calldata (+ creation surcharge).
  std::uint64_t intrinsic_gas() const;

 private:
  Transaction(TxFields fields, const Hash32& id) : fields_(std::move(fields)), id_(id) {}

  TxFields fields_;
  Hash32 id_;
};

/// A signing account: keypair + address + nonce tracking. Participants
/// create one Wallet per task to realize the paper's one-task-only
/// pseudonyms.
class Wallet {
 public:
  explicit Wallet(Rng& rng)
      : key_(EcdsaKeyPair::generate(rng)),
        address_(Address::from_bytes(key_.address())),
        rng_(rng.fork("wallet")) {}

  const Address& address() const { return address_; }

  Transaction make_transaction(const Address& to, std::uint64_t value, std::uint64_t gas_limit,
                               const std::string& method, const Bytes& payload);

  std::uint64_t next_nonce() const { return nonce_; }
  void set_nonce(std::uint64_t nonce) { nonce_ = nonce; }

 private:
  EcdsaKeyPair key_;
  Address address_;
  Rng rng_;
  std::uint64_t nonce_ = 0;
};

}  // namespace zl::chain
