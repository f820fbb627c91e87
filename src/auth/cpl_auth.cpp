#include "auth/cpl_auth.h"

#include <stdexcept>

#include "snark/gadgets/merkle_gadget.h"
#include "snark/gadgets/mimc_gadget.h"

namespace zl::auth {

void build_auth_circuit(snark::CircuitBuilder& b, unsigned depth, const Fr& t1, const Fr& t2,
                        const Fr& p, const Fr& m, const Fr& root, const Fr& sk,
                        const MerkleTree::Path& path) {
  using namespace snark;
  const Wire w_t1 = b.input(t1, "t1");
  const Wire w_t2 = b.input(t2, "t2");
  const Wire w_p = b.input(p, "p");
  const Wire w_m = b.input(m, "m");
  const Wire w_root = b.input(root, "root");

  const Wire w_sk = b.witness(sk, "sk");
  // pair(pk, sk): pk = MiMC(sk, 0).
  const Wire w_pk = mimc_compress_gadget(b, w_sk, Wire::zero());
  // CertVrfy: pk is in the RA registry.
  const MerklePathWires path_wires = allocate_merkle_path(b, path, depth);
  b.enforce_equal(merkle_root_gadget(b, w_pk, path_wires), w_root);
  // t1 = H(p, sk), t2 = H(p||m, sk).
  b.enforce_equal(mimc_compress_gadget(b, w_p, w_sk), w_t1);
  b.enforce_equal(mimc_compress_gadget(b, w_m, w_sk), w_t2);
}

namespace {

MerkleTree::Path dummy_path(unsigned depth) {
  MerkleTree::Path p;
  p.leaf_index = 0;
  p.siblings.assign(depth, Fr::zero());
  return p;
}

Fr prefix_to_field(const Bytes& prefix) { return fr_from_bytes_sha(prefix); }

Fr message_to_field(const Bytes& prefix, const Bytes& rest) {
  return fr_from_bytes_sha(concat({prefix, rest}));
}

}  // namespace

UserKey UserKey::generate(Rng& rng) {
  UserKey key;
  key.sk = Fr::random(rng);
  ct::poison_object(key.sk);  // harness hook; no-op outside a CT scope
  // MiMC is straight-line Fp arithmetic, so sk flows through it without any
  // secret-dependent branch; pk is the published key — declassified output.
  key.pk = mimc_compress(key.sk, Fr::zero());
  ct::declassify_object(key.pk);
  return key;
}

Bytes Attestation::to_bytes() const {
  Bytes out = t1.to_bytes();
  const Bytes t2b = t2.to_bytes(), pb = proof.to_bytes();
  out.insert(out.end(), t2b.begin(), t2b.end());
  out.insert(out.end(), pb.begin(), pb.end());
  return out;
}

Attestation Attestation::from_bytes(const Bytes& bytes) {
  if (bytes.size() != kByteSize) throw std::invalid_argument("Attestation::from_bytes: bad size");
  Attestation att;
  ByteReader r(bytes, "Attestation");
  att.t1 = Fr::from_bytes(r.take(32));
  att.t2 = Fr::from_bytes(r.take(32));
  att.proof = snark::Proof::from_bytes(r.take(snark::Proof::kByteSize));
  r.expect_end();
  return att;
}

AuthParams auth_setup(unsigned merkle_depth, Rng& rng) {
  snark::CircuitBuilder b;
  build_auth_circuit(b, merkle_depth, Fr::zero(), Fr::zero(), Fr::zero(), Fr::zero(), Fr::zero(),
                     Fr::zero(), dummy_path(merkle_depth));
  AuthParams params;
  params.merkle_depth = merkle_depth;
  params.keys = snark::setup(b.constraint_system(), rng);
  return params;
}

Certificate RegistrationAuthority::register_identity(const std::string& identity, const Fr& pk) {
  if (identities_.contains(identity)) {
    throw std::invalid_argument("RA: identity already registered");
  }
  const Bytes pk_bytes = pk.to_bytes();
  if (keys_.contains(pk_bytes)) {
    throw std::invalid_argument("RA: public key already certified");
  }
  const std::size_t index = tree_.append(pk);
  identities_[identity] = index;
  keys_[pk_bytes] = index;
  return current_certificate(index);
}

Certificate RegistrationAuthority::current_certificate(std::size_t leaf_index) const {
  if (leaf_index >= tree_.size()) throw std::out_of_range("RA: unknown certificate");
  return Certificate{leaf_index, tree_.path(leaf_index)};
}

Attestation authenticate(const AuthParams& params, const Bytes& prefix, const Bytes& rest,
                         const UserKey& key, const Certificate& cert, const Fr& root, Rng& rng) {
  const Fr p = prefix_to_field(prefix);
  const Fr m = message_to_field(prefix, rest);
  Attestation att;
  ct::poison_object(key.sk);  // harness hook; no-op outside a CT scope
  // The PRF tags are straight-line MiMC over Fr; they are published in the
  // attestation, so their storage is declassified once computed.
  att.t1 = mimc_compress(p, key.sk);
  att.t2 = mimc_compress(m, key.sk);
  ct::declassify_object(att.t1);
  ct::declassify_object(att.t2);

  snark::CircuitBuilder b;
  build_auth_circuit(b, params.merkle_depth, att.t1, att.t2, p, m, root, key.sk, cert.path);
  if (!b.constraint_system().is_satisfied(b.assignment())) {
    throw std::invalid_argument("authenticate: certificate does not match registry root");
  }
  att.proof = snark::prove(params.keys.pk, b.constraint_system(), b.assignment(), rng);
  return att;
}

std::vector<Fr> auth_statement(const Bytes& prefix, const Bytes& rest, const Fr& root,
                               const Attestation& att) {
  return {att.t1, att.t2, prefix_to_field(prefix), message_to_field(prefix, rest), root};
}

bool verify(const AuthParams& params, const Bytes& prefix, const Bytes& rest, const Fr& root,
            const Attestation& att) {
  return snark::verify(params.keys.vk, auth_statement(prefix, rest, root, att), att.proof);
}

bool link(const Attestation& a, const Attestation& b) { return a.t1 == b.t1; }

}  // namespace zl::auth
