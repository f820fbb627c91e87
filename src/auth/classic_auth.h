#pragma once
// The non-anonymous authentication mode (paper §VI, last paragraph):
// "s/he can generate a public-private key pair (for digital signatures),
//  and then registers the public key at RA to receive a certificate bound
//  to the public key; to authenticate, s/he can simply show the certified
//  public key, the certificate, along with a message properly signed under
//  the corresponding secret key, which essentially costs nearly nothing."
//
// Everything here is RSA-based (the paper's DApp-layer signature): the RA
// signs user public keys; an attestation is (pk, cert, signature).
// Linkability is trivial — the public key IS the identity — which is
// exactly the privilege the anonymous mode buys back.

#include <set>
#include <string>
#include <unordered_set>

#include "crypto/rsa.h"

namespace zl::auth {

/// A user's long-term signing key pair for the classic mode.
struct ClassicUserKey {
  RsaKeyPair key;

  static ClassicUserKey generate(Rng& rng, int bits = 2048);
};

/// Certificate: the RA's signature over the user's public key.
struct ClassicCertificate {
  Bytes ra_signature;

  Bytes to_bytes() const;
  static ClassicCertificate from_bytes(const Bytes& bytes);
};

/// Attestation: certified public key + certificate + message signature.
struct ClassicAttestation {
  Bytes public_key;  // serialized RsaPublicKey
  Bytes certificate;
  Bytes signature;

  Bytes to_bytes() const;
  static ClassicAttestation from_bytes(const Bytes& bytes);
};

/// The RA for the classic mode: issues one certificate per unique identity
/// (and per unique key), under an RSA master key pair (msk, mpk).
class ClassicRegistrationAuthority {
 public:
  explicit ClassicRegistrationAuthority(Rng& rng, int bits = 2048);

  const RsaPublicKey& master_public_key() const { return master_.pub; }

  ClassicCertificate certify(const std::string& identity, const RsaPublicKey& pk);

 private:
  RsaKeyPair master_;
  std::unordered_set<std::string> identities_;
  std::set<Bytes> keys_;  // certified public keys, serialized
};

/// Sign prefix||rest under the user key and attach the certificate.
ClassicAttestation classic_authenticate(const Bytes& prefix, const Bytes& rest,
                                        const ClassicUserKey& key,
                                        const ClassicCertificate& cert);

/// Verify the certificate chain and the message signature against the RA's
/// master public key.
bool classic_verify(const Bytes& prefix, const Bytes& rest, const RsaPublicKey& mpk,
                    const ClassicAttestation& att);

/// "Link" in the classic mode: identical public keys. Unlike the anonymous
/// scheme this links across ALL messages, not just common-prefix ones —
/// the privacy cost of the cheap mode.
bool classic_link(const ClassicAttestation& a, const ClassicAttestation& b);

}  // namespace zl::auth
