#pragma once
// Groth16 zk-SNARK over BN254 — the proving system standing in for libsnark
// in the paper's stack. Constant-size proofs (2 G1 + 1 G2), pairing-based
// verification, QAP reduction with the libsnark-style input-consistency rows.
//
// The three algorithms match the paper's abstraction in §III:
//   setup(C)          -> public parameters PP (proving + verifying key)
//   Prover(x, w, PP)  -> constant-size proof
//   Verifier(x, pi, PP) -> accept/reject via a 4-pairing product check

#include <optional>

#include "ec/multiexp.h"
#include "ec/pairing.h"
#include "snark/domain.h"
#include "snark/r1cs.h"

namespace zl::snark {

struct Proof {
  G1 a;
  G2 b;
  G1 c;

  Bytes to_bytes() const;
  static Proof from_bytes(const Bytes& bytes);
  /// Serialized size: 2 G1 + 1 G2, uncompressed (constant, independent of
  /// the circuit — the property Table I's "Proof" column demonstrates).
  static constexpr std::size_t kByteSize = 65 + 129 + 65;
};

struct VerifyingKey {
  G1 alpha_g1;
  G2 beta_g2;
  G2 gamma_g2;
  G2 delta_g2;
  /// IC query: one point per public input, plus one for the constant.
  std::vector<G1> ic;
  /// Precomputed e(alpha, beta) — verification needs only 3 Miller loops.
  /// Derived (not serialized); recomputed lazily after deserialization.
  mutable std::optional<Fq12> alpha_beta;

  const Fq12& alpha_beta_gt() const;

  Bytes to_bytes() const;
  static VerifyingKey from_bytes(const Bytes& bytes);
  std::size_t byte_size() const { return 65 + 3 * 129 + 4 + ic.size() * 65; }
};

/// The queries are stored in the multiexp engine's form (affine, with the
/// GLV endomorphism image's x beside each point), so a proof never
/// normalizes or maps a key point.
struct ProvingKey {
  G1 alpha_g1, beta_g1, delta_g1;
  G2 beta_g2, delta_g2;
  std::vector<GlvBase<G1>> a_query;     // [A_i(tau)]_1, one per variable
  std::vector<GlvBase<G1>> b_g1_query;  // [B_i(tau)]_1
  std::vector<GlvBase<G2>> b_g2_query;  // [B_i(tau)]_2
  std::vector<GlvBase<G1>> l_query;     // [(beta A_i + alpha B_i + C_i)/delta]_1, witnesses only
  std::vector<GlvBase<G1>> h_query;     // [tau^i Z(tau)/delta]_1
  std::size_t domain_size = 0;
  std::size_t num_inputs = 0;
};

/// A verifying key with its pairing work hoisted out: e(alpha, beta) in GT
/// plus the precomputed Miller schedules of the three fixed G2 points. Every
/// verification against the same key then costs three sparse Miller loops
/// (one of which, proof.b, is prepared per call) and one final
/// exponentiation — no repeated G2 line computation.
struct PreparedVerifyingKey {
  Fq12 alpha_beta;  // e(alpha, beta)
  G2Prepared beta_g2;
  G2Prepared gamma_g2;
  G2Prepared delta_g2;
  std::vector<G1> ic;

  static PreparedVerifyingKey prepare(const VerifyingKey& vk);
};

struct Keypair {
  ProvingKey pk;
  VerifyingKey vk;
};

/// Trusted setup for a fixed constraint system. The trapdoor
/// (tau, alpha, beta, gamma, delta) is sampled from `rng` and discarded.
Keypair setup(const ConstraintSystem& cs, Rng& rng);

/// Produce a proof for `assignment` (full vector, assignment[0] == 1).
/// Throws std::invalid_argument if the assignment does not satisfy `cs`:
/// the check rides on the constraint evaluations the quotient needs anyway,
/// so callers need no satisfaction pass of their own.
Proof prove(const ProvingKey& pk, const ConstraintSystem& cs, const std::vector<Fr>& assignment,
            Rng& rng);

/// Verify a proof against the public inputs (statement) only. Routes
/// through a per-call PreparedVerifyingKey; amortize with the prepared
/// overload when verifying many proofs under one key.
bool verify(const VerifyingKey& vk, const std::vector<Fr>& public_inputs, const Proof& proof);

/// Prepared-key verification: bit-identical accept/reject decisions to the
/// unprepared overload, with the key's G2 schedules computed once up front.
bool verify(const PreparedVerifyingKey& pvk, const std::vector<Fr>& public_inputs,
            const Proof& proof);

/// One entry of a batch verification.
struct BatchVerifyItem {
  VerifyingKey vk;
  std::vector<Fr> public_inputs;
  Proof proof;
};

/// Verifies many proofs with parallel Miller loops. Each distinct key
/// (by serialized bytes) is prepared once per call, before the parallel
/// phase; then entries are checked concurrently on the thread pool, each one
/// fully and independently, so a bad proof in a batch is pinpointed
/// (ok[i] == 0), not just detected. Used by block prevalidation (one block's
/// answers share their task's auth key) and the task-contract audit.
std::vector<std::uint8_t> verify_batch(const std::vector<BatchVerifyItem>& items);

}  // namespace zl::snark
