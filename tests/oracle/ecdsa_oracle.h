#pragma once
// Reference ECDSA verifier: the textbook two-ladder form the library shipped
// before the joint-wNAF engine (ec/ecdsa.cpp). It computes G*u1 and Q*u2 as
// two independent double-and-add ladders, adds them, and compares the
// affine x coordinate mod n against r. Kept out of the library: the
// differential tests (test_pkc) and bench_kernels use it as the oracle the
// fast verifier must agree with verdict for verdict.

#include <stdexcept>

#include "ec/ecdsa.h"

namespace zl::oracle {

inline bool ecdsa_verify_two_ladder(const Bytes& public_key_bytes, const Bytes& message,
                                    const EcdsaSignature& sig) {
  const BigInt& n = SecpPoint::order();
  if (sig.r <= 0 || sig.r >= n || sig.s <= 0 || sig.s >= n) return false;
  if (public_key_bytes.size() != 65 || public_key_bytes[0] != 0x04) return false;
  SecpPoint pub;
  try {
    pub = SecpPoint::from_affine(
        SecpFp::from_bytes(Bytes(public_key_bytes.begin() + 1, public_key_bytes.begin() + 33)),
        SecpFp::from_bytes(Bytes(public_key_bytes.begin() + 33, public_key_bytes.end())));
  } catch (const std::invalid_argument&) {
    return false;
  }
  const BigInt z = bigint_from_bytes(keccak256(message)) % n;
  const BigInt w = mod_inverse(sig.s, n);
  const BigInt u1 = (z * w) % n;
  const BigInt u2 = (sig.r * w) % n;
  const SecpPoint point = SecpPoint::generator() * u1 + pub * u2;
  if (point.is_infinity()) return false;
  return point.to_affine().first.to_bigint() % n == sig.r;
}

}  // namespace zl::oracle
