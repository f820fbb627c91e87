#include "chain/tx.h"

#include <unordered_map>

#include "chain/gas.h"
#include "common/annotations.h"
#include "common/mutex.h"
#include "obs/obs.h"

namespace zl::chain {

namespace {

// Process-wide signature-verdict memo. ECDSA verification costs two scalar
// multiplications; hashing the encoded transaction is ~100x cheaper, so every
// re-verification after the first (block apply, fork replay, re-gossip on
// another simulated node) collapses to a keccak + hash-map hit. Guarded by a
// ranked mutex (kSigVerdictCache — a leaf-ish lock taken while pool workers
// hold the region lock; DESIGN.md §13) because block prevalidation warms it
// from pool threads while serial apply reads it.
struct SignatureVerdictCache {
  // Re-verification clusters around recent transactions; a full reset at the
  // cap is simpler than LRU and amortizes to a no-op.
  static constexpr std::size_t kMaxEntries = 1u << 20;
  OrderedMutex mutex{LockRank::kSigVerdictCache, "tx.sig_verdict_cache"};
  std::unordered_map<Hash32, bool, Hash32Hasher> verdicts ZL_GUARDED_BY(mutex);
};

SignatureVerdictCache& signature_verdict_cache() {
  static SignatureVerdictCache cache;
  return cache;
}

}  // namespace

void clear_signature_verdict_cache() {
  SignatureVerdictCache& cache = signature_verdict_cache();
  const MutexLock lock(cache.mutex);
  cache.verdicts.clear();
}

std::size_t signature_verdict_cache_size() {
  SignatureVerdictCache& cache = signature_verdict_cache();
  const MutexLock lock(cache.mutex);
  return cache.verdicts.size();
}

Bytes Transaction::signing_bytes() const {
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

Bytes Transaction::to_bytes() const {
  Bytes out = signing_bytes();
  append_frame(out, pubkey);
  append_frame(out, signature);
  return out;
}

Transaction Transaction::from_bytes(const Bytes& bytes) {
  // Per-field caps: an attacker-chosen length prefix is rejected before any
  // allocation. Method names and payloads are bounded well above anything
  // the contracts emit but far below what could OOM a node.
  constexpr std::size_t kMaxMethodBytes = 256;
  constexpr std::size_t kMaxPayloadBytes = 4u << 20;  // 4 MiB
  constexpr std::size_t kMaxPubkeyBytes = 65;         // uncompressed secp256k1
  constexpr std::size_t kMaxSignatureBytes = 64;      // r || s
  Transaction tx;
  ByteReader r(bytes, "Transaction");
  tx.from = Address::from_bytes(r.frame(Address::kSize));
  tx.to = Address::from_bytes(r.frame(Address::kSize));
  tx.value = r.u64();
  tx.nonce = r.u64();
  tx.gas_limit = r.u64();
  const Bytes method = r.frame(kMaxMethodBytes);
  tx.method = std::string(method.begin(), method.end());
  tx.payload = r.frame(kMaxPayloadBytes);
  tx.pubkey = r.frame(kMaxPubkeyBytes);
  tx.signature = r.frame(kMaxSignatureBytes);
  r.expect_end();
  return tx;
}

Bytes Transaction::hash() const { return keccak256(to_bytes()); }

bool Transaction::verify_signature() const { return verify_signature(to_hash32(hash())); }

bool Transaction::verify_signature(const Hash32& tx_hash) const {
  if (pubkey.size() != 65 || signature.size() != 64) return false;
  SignatureVerdictCache& cache = signature_verdict_cache();
  {
    const MutexLock lock(cache.mutex);
    const auto it = cache.verdicts.find(tx_hash);
    if (it != cache.verdicts.end()) {
      ZL_OBS_COUNTER_ADD("validation.sig_cache.hit", 1);
      return it->second;
    }
  }
  ZL_OBS_COUNTER_ADD("validation.sig_cache.miss", 1);
  ZL_OBS_SCOPED_LATENCY_US("validation.sig_verify_us");
  bool ok = false;
  try {
    ok = Address::from_bytes(ecdsa_address(pubkey)) == from &&
         ecdsa_verify(pubkey, signing_bytes(), EcdsaSignature::from_bytes(signature));
  } catch (const std::invalid_argument&) {
    ok = false;
  }
  {
    const MutexLock lock(cache.mutex);
    if (cache.verdicts.size() >= SignatureVerdictCache::kMaxEntries) cache.verdicts.clear();
    cache.verdicts.emplace(tx_hash, ok);
  }
  return ok;
}

std::uint64_t Transaction::intrinsic_gas() const {
  std::uint64_t gas = GasSchedule::kTxBase;
  gas += GasSchedule::kTxDataByte * (payload.size() + method.size());
  if (is_contract_creation()) gas += GasSchedule::kContractCreation;
  return gas;
}

Transaction Wallet::make_transaction(const Address& to, std::uint64_t value,
                                     std::uint64_t gas_limit, const std::string& method,
                                     const Bytes& payload) {
  Transaction tx;
  tx.from = address();
  tx.to = to;
  tx.value = value;
  tx.nonce = nonce_++;
  tx.gas_limit = gas_limit;
  tx.method = method;
  tx.payload = payload;
  tx.pubkey = key_.public_key_bytes();
  tx.signature = key_.sign(tx.signing_bytes(), rng_).to_bytes();
  return tx;
}

}  // namespace zl::chain
