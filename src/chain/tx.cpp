#include "chain/tx.h"

#include "chain/gas.h"
#include "chain/validation.h"
#include "obs/obs.h"

namespace zl::chain {

Bytes TxFields::signing_bytes() const {
  Bytes out;
  append_frame(out, from.to_bytes());
  append_frame(out, to.to_bytes());
  append_u64_be(out, value);
  append_u64_be(out, nonce);
  append_u64_be(out, gas_limit);
  append_frame(out, zl::to_bytes(method));
  append_frame(out, payload);
  return out;
}

Bytes TxFields::to_bytes() const {
  Bytes out = signing_bytes();
  append_frame(out, pubkey);
  append_frame(out, signature);
  return out;
}

namespace {

Hash32 count_tx_hash(const Bytes& encoding) {
  ZL_OBS_COUNTER_ADD("chain.tx_hash", 1);
  return keccak256(encoding.data(), encoding.size());
}

}  // namespace

Transaction::Transaction() {
  // Computed once per process and not counted: a placeholder costs no keccak.
  static const Hash32 empty_id = [] {
    const Bytes encoding = TxFields{}.to_bytes();
    return keccak256(encoding.data(), encoding.size());
  }();
  id_ = empty_id;
}

Transaction::Transaction(TxFields fields) : fields_(std::move(fields)) {
  id_ = count_tx_hash(fields_.to_bytes());
}

Transaction Transaction::from_bytes(const Bytes& bytes) {
  // Per-field caps: an attacker-chosen length prefix is rejected before any
  // allocation. Method names and payloads are bounded well above anything
  // the contracts emit but far below what could OOM a node.
  constexpr std::size_t kMaxMethodBytes = 256;
  constexpr std::size_t kMaxPayloadBytes = 4u << 20;  // 4 MiB
  constexpr std::size_t kMaxPubkeyBytes = 65;         // uncompressed secp256k1
  constexpr std::size_t kMaxSignatureBytes = 64;      // r || s
  TxFields f;
  ByteReader r(bytes, "Transaction");
  f.from = Address::from_bytes(r.frame(Address::kSize));
  f.to = Address::from_bytes(r.frame(Address::kSize));
  f.value = r.u64();
  f.nonce = r.u64();
  f.gas_limit = r.u64();
  const Bytes method = r.frame(kMaxMethodBytes);
  f.method = std::string(method.begin(), method.end());
  f.payload = r.frame(kMaxPayloadBytes);
  f.pubkey = r.frame(kMaxPubkeyBytes);
  f.signature = r.frame(kMaxSignatureBytes);
  r.expect_end();
  return Transaction(std::move(f), count_tx_hash(bytes));
}

bool Transaction::verify_signature() const {
  const TxFields& f = fields_;
  if (f.pubkey.size() != 65 || f.signature.size() != 64) return false;
  // Every re-verification after the first (block apply, fork replay,
  // re-gossip on another simulated node) is a memo hit: ECDSA costs two
  // scalar multiplications, the lookup one hash-map probe.
  if (const std::optional<bool> cached = signature_memo().find(id_)) {
    ZL_OBS_COUNTER_ADD("validation.sig_cache.hit", 1);
    return *cached;
  }
  ZL_OBS_COUNTER_ADD("validation.sig_cache.miss", 1);
  ZL_OBS_SCOPED_LATENCY_US("validation.sig_verify_us");
  bool ok = false;
  try {
    ok = Address::from_bytes(ecdsa_address(f.pubkey)) == f.from &&
         ecdsa_verify(f.pubkey, f.signing_bytes(), EcdsaSignature::from_bytes(f.signature));
  } catch (const std::invalid_argument&) {
    ok = false;
  }
  signature_memo().insert(id_, ok);
  return ok;
}

std::uint64_t Transaction::intrinsic_gas() const {
  std::uint64_t gas = GasSchedule::kTxBase;
  gas += GasSchedule::kTxDataByte * (fields_.payload.size() + fields_.method.size());
  if (is_contract_creation()) gas += GasSchedule::kContractCreation;
  return gas;
}

Transaction Wallet::make_transaction(const Address& to, std::uint64_t value,
                                     std::uint64_t gas_limit, const std::string& method,
                                     const Bytes& payload) {
  TxFields f{.from = address_, .to = to, .value = value, .nonce = nonce_++,
             .gas_limit = gas_limit, .method = method, .payload = payload,
             .pubkey = key_.public_key_bytes(), .signature = {}};
  f.signature = key_.sign(f.signing_bytes(), rng_).to_bytes();
  return Transaction(std::move(f));
}

}  // namespace zl::chain
