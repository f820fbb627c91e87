#pragma once
// ECDSA over secp256k1 — transaction signatures for the blockchain
// substrate, exactly as Ethereum uses (the chain the paper deploys on).
// Account addresses are the last 20 bytes of Keccak-256 of the public key.

#include "crypto/keccak.h"
#include "ec/secp256k1.h"

namespace zl {

struct EcdsaSignature {
  BigInt r;
  BigInt s;

  Bytes to_bytes() const;  // 64 bytes, r || s
  static EcdsaSignature from_bytes(const Bytes& bytes);
};

class EcdsaKeyPair {
 public:
  EcdsaKeyPair() = default;
  EcdsaKeyPair(const EcdsaKeyPair&) = default;
  EcdsaKeyPair(EcdsaKeyPair&&) = default;
  EcdsaKeyPair& operator=(const EcdsaKeyPair&) = default;
  EcdsaKeyPair& operator=(EcdsaKeyPair&&) = default;
  ~EcdsaKeyPair() { secure_zero(secret_); }

  /// Fresh key; the secret scalar is uniform in [1, n).
  static EcdsaKeyPair generate(Rng& rng);

  const SecpPoint& public_key() const { return pub_; }

  /// 65-byte uncompressed public key encoding (flag || x || y).
  Bytes public_key_bytes() const;

  /// Ethereum-style 20-byte address: keccak256(x || y)[12..32).
  Bytes address() const;

  /// Sign the Keccak-256 hash of `message`. Nonce is drawn from `rng`
  /// (callers use a private fork; determinism keeps simulations replayable).
  EcdsaSignature sign(const Bytes& message, Rng& rng) const;

 private:
  BigInt secret_;
  SecpPoint pub_;
};

/// Verify a signature over `message` against an uncompressed public key.
/// Runs u1*G + u2*Q through secp_joint_mul and compares x(R) against r in
/// Jacobian coordinates, so no field inversion is paid per call.
bool ecdsa_verify(const Bytes& public_key_bytes, const Bytes& message,
                  const EcdsaSignature& sig);

/// u1*G + u2*Q, the ECDSA verification equation: both scalars split by the
/// secp256k1 GLV endomorphism, the four half-scalars run in wNAF over one
/// shared doubling chain, G's odd multiples come from a static affine table.
/// Variable-time in u1 and u2, so PUBLIC scalars only: a tainted scalar
/// trips the CT harness (glv_decompose's ct::branch guard).
SecpPoint secp_joint_mul(const BigInt& u1, const SecpPoint& q, const BigInt& u2);

/// Address derivation from a serialized public key.
Bytes ecdsa_address(const Bytes& public_key_bytes);

}  // namespace zl
