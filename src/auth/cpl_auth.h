#pragma once
// Common-prefix-linkable anonymous authentication — the paper's new
// cryptographic primitive (§V-A), implemented exactly per its construction:
//
//   Setup(1^λ)        -> system parameters PP (a Groth16 SNARK for L_T) and
//                        the RA's registry (master public key role)
//   CertGen(msk, pk)  -> certificate binding pk to a unique identity
//   Auth(p||m, sk, pk, cert, PP) -> attestation π = (t1, t2, η) with
//        t1 = H(p, sk),  t2 = H(p||m, sk),  η a zk-SNARK for
//        L_T = { t1, t2, (p||m, mpk) | ∃ (sk, pk, cert):
//                CertVrfy(cert, pk, mpk) ∧ pair(pk, sk) ∧
//                t1 = H(p, sk) ∧ t2 = H(p||m, sk) }
//   Verify(p||m, π, mpk, PP) -> 0/1
//   Link(π1, π2)      -> 1 iff t1 tags are equal
//
// Instantiation notes (DESIGN.md T3/T4): H is MiMC7 compression over Fr
// (prefix and full message are first compressed from bytes to Fr via
// SHA-256, the DApp-layer hash); pair(pk, sk) is pk = MiMC(sk, 0);
// CertVrfy is Merkle membership of pk under the RA's published registry
// root. The anonymity is irrevocable even by the RA — the RA learns pk at
// registration but attestations reveal only PRF tags and a zk proof.

#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "crypto/merkle.h"
#include "snark/gadgets/builder.h"
#include "snark/groth16.h"

namespace zl::auth {

/// A user's long-term key pair: sk uniform in Fr, pk = MiMC(sk, 0).
struct UserKey {
  Fr sk;
  Fr pk;

  UserKey() = default;
  UserKey(const UserKey&) = default;
  UserKey(UserKey&&) = default;
  UserKey& operator=(const UserKey&) = default;
  UserKey& operator=(UserKey&&) = default;
  ~UserKey() { sk.zeroize(); }

  static UserKey generate(Rng& rng);
};

/// Certificate: the position of the user's pk in the RA registry plus the
/// (public) membership path. The path is re-fetchable from the RA as the
/// registry grows; possession of it is not secret.
struct Certificate {
  std::size_t leaf_index = 0;
  MerkleTree::Path path;
};

/// Attestation π = (t1, t2, η).
struct Attestation {
  Fr t1;
  Fr t2;
  snark::Proof proof;

  Bytes to_bytes() const;
  static Attestation from_bytes(const Bytes& bytes);
  static constexpr std::size_t kByteSize = 32 + 32 + snark::Proof::kByteSize;
};

/// Public parameters: the SNARK keys for the authentication circuit.
/// (The proving key is public too — any registered user proves with it.)
struct AuthParams {
  unsigned merkle_depth = 0;
  snark::Keypair keys;

  std::size_t verifying_key_bytes() const { return keys.vk.to_bytes().size(); }
};

/// Setup(1^λ): establish the SNARK for L_T at a given registry capacity.
AuthParams auth_setup(unsigned merkle_depth, Rng& rng);

/// Build the circuit for L_T into `b`. Statement wires (public inputs, in
/// order): t1, t2, p, m, root. Witness: sk + Merkle path. Deterministic
/// structure, so the same function serves setup (dummy witness), proving,
/// and the circuit auditor (tools/circuit_audit).
void build_auth_circuit(snark::CircuitBuilder& b, unsigned depth, const Fr& t1, const Fr& t2,
                        const Fr& p, const Fr& m, const Fr& root, const Fr& sk,
                        const MerkleTree::Path& path);

/// The registration authority: verifies unique identities off-line and
/// appends certified public keys to the Merkle registry whose root is the
/// system's master public key (published on chain in ZebraLancer).
class RegistrationAuthority {
 public:
  explicit RegistrationAuthority(unsigned merkle_depth) : tree_(merkle_depth) {}

  /// CertGen: one certificate per unique identity; rejects duplicates of
  /// either the identity or the public key.
  Certificate register_identity(const std::string& identity, const Fr& pk);

  /// Refresh a certificate's membership path against the current registry.
  Certificate current_certificate(std::size_t leaf_index) const;

  /// The registry root (the "mpk" role of the scheme).
  Fr registry_root() const { return tree_.root(); }

  std::size_t num_registered() const { return tree_.size(); }
  unsigned depth() const { return tree_.depth(); }

 private:
  MerkleTree tree_;
  std::unordered_map<std::string, std::size_t> identities_;
  std::map<Bytes, std::size_t> keys_;  // pk bytes -> leaf
};

/// Auth: attest to message prefix||rest under a certified key. Throws
/// std::invalid_argument if the certificate does not match `root` (an
/// uncertified or stale-path key cannot produce a valid witness).
Attestation authenticate(const AuthParams& params, const Bytes& prefix, const Bytes& rest,
                         const UserKey& key, const Certificate& cert, const Fr& root, Rng& rng);

/// Verify an attestation against the registry root.
bool verify(const AuthParams& params, const Bytes& prefix, const Bytes& rest, const Fr& root,
            const Attestation& att);

/// Link: 1 iff both attestations were produced by the same certificate on
/// messages sharing the common prefix. A pure tag-equality check — this is
/// the O(1) operation the task contract runs O(n^2) times for "nearly
/// nothing" (paper §V-B).
bool link(const Attestation& a, const Attestation& b);

/// The statement vector [t1, t2, p, m, root] used by the circuit; exposed
/// for the on-chain verifier (the smart contract recomputes it from public
/// data before calling the SNARK-verify precompile).
std::vector<Fr> auth_statement(const Bytes& prefix, const Bytes& rest, const Fr& root,
                               const Attestation& att);

}  // namespace zl::auth
