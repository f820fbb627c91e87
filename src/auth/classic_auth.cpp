#include "auth/classic_auth.h"

#include <stdexcept>

namespace zl::auth {

ClassicUserKey ClassicUserKey::generate(Rng& rng, int bits) {
  return ClassicUserKey{RsaKeyPair::generate(rng, bits)};
}

Bytes ClassicCertificate::to_bytes() const {
  Bytes out;
  append_frame(out, ra_signature);
  return out;
}

// RSA signatures/keys in this stack top out at 4096-bit moduli; 4 KiB frames
// leave room without letting a forged length allocate gigabytes.
constexpr std::size_t kMaxRsaFrameBytes = 4096;

ClassicCertificate ClassicCertificate::from_bytes(const Bytes& bytes) {
  ClassicCertificate cert;
  ByteReader r(bytes, "ClassicCertificate");
  cert.ra_signature = r.frame(kMaxRsaFrameBytes);
  r.expect_end();
  return cert;
}

Bytes ClassicAttestation::to_bytes() const {
  Bytes out;
  append_frame(out, public_key);
  append_frame(out, certificate);
  append_frame(out, signature);
  return out;
}

ClassicAttestation ClassicAttestation::from_bytes(const Bytes& bytes) {
  ClassicAttestation att;
  ByteReader r(bytes, "ClassicAttestation");
  att.public_key = r.frame(kMaxRsaFrameBytes);
  att.certificate = r.frame(kMaxRsaFrameBytes);
  att.signature = r.frame(kMaxRsaFrameBytes);
  r.expect_end();
  return att;
}

ClassicRegistrationAuthority::ClassicRegistrationAuthority(Rng& rng, int bits)
    : master_(RsaKeyPair::generate(rng, bits)) {}

ClassicCertificate ClassicRegistrationAuthority::certify(const std::string& identity,
                                                         const RsaPublicKey& pk) {
  if (identities_.contains(identity)) {
    throw std::invalid_argument("ClassicRA: identity already registered");
  }
  const Bytes pk_bytes = pk.to_bytes();
  if (keys_.contains(pk_bytes)) {
    throw std::invalid_argument("ClassicRA: public key already certified");
  }
  identities_.insert(identity);
  keys_.insert(pk_bytes);
  return ClassicCertificate{rsa_sign(master_, pk_bytes)};
}

ClassicAttestation classic_authenticate(const Bytes& prefix, const Bytes& rest,
                                        const ClassicUserKey& key,
                                        const ClassicCertificate& cert) {
  ClassicAttestation att;
  att.public_key = key.key.pub.to_bytes();
  att.certificate = cert.ra_signature;
  att.signature = rsa_sign(key.key, concat({prefix, rest}));
  return att;
}

bool classic_verify(const Bytes& prefix, const Bytes& rest, const RsaPublicKey& mpk,
                    const ClassicAttestation& att) {
  RsaPublicKey pk;
  try {
    pk = RsaPublicKey::from_bytes(att.public_key);
  } catch (const std::exception&) {  // malformed encodings of any kind
    return false;
  }
  if (pk.n <= 0 || pk.e <= 0) return false;
  if (!rsa_verify(mpk, att.public_key, att.certificate)) return false;
  return rsa_verify(pk, concat({prefix, rest}), att.signature);
}

bool classic_link(const ClassicAttestation& a, const ClassicAttestation& b) {
  return a.public_key == b.public_key;
}

}  // namespace zl::auth
