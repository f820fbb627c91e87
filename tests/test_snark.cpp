// Groth16 pipeline tests: R1CS semantics, FFT domains, and the full
// setup/prove/verify loop including soundness-flavoured negative cases.
#include <gtest/gtest.h>

#include "crypto/keccak.h"
#include "snark/groth16.h"

namespace zl::snark {
namespace {

// The classic toy circuit: prove knowledge of x with x^3 + x + 5 == out.
// Public input: out. Witness: x (plus intermediates).
struct CubicCircuit {
  ConstraintSystem cs;
  VarIndex out, x, x_sq, x_cu;

  CubicCircuit() {
    cs.num_inputs = 1;
    out = cs.allocate_variable();   // index 1 (public)
    x = cs.allocate_variable();     // index 2
    x_sq = cs.allocate_variable();  // 3
    x_cu = cs.allocate_variable();  // 4
    using LC = LinearCombination;
    cs.add_constraint(LC::variable(x), LC::variable(x), LC::variable(x_sq));
    cs.add_constraint(LC::variable(x_sq), LC::variable(x), LC::variable(x_cu));
    // (x_cu + x + 5) * 1 = out
    cs.add_constraint(LC::variable(x_cu) + LC::variable(x) + LC::constant(Fr::from_u64(5)),
                      LC::constant(Fr::one()), LC::variable(out));
  }

  std::vector<Fr> assignment(std::uint64_t x_val) const {
    std::vector<Fr> z(cs.num_variables, Fr::zero());
    z[0] = Fr::one();
    z[x] = Fr::from_u64(x_val);
    z[x_sq] = z[x] * z[x];
    z[x_cu] = z[x_sq] * z[x];
    z[out] = z[x_cu] + z[x] + Fr::from_u64(5);
    return z;
  }
};

TEST(R1cs, SatisfactionSemantics) {
  CubicCircuit c;
  auto z = c.assignment(3);
  EXPECT_TRUE(c.cs.is_satisfied(z));
  EXPECT_EQ(c.cs.first_unsatisfied(z), -1);
  z[c.out] += Fr::one();
  EXPECT_FALSE(c.cs.is_satisfied(z));
  EXPECT_EQ(c.cs.first_unsatisfied(z), 2);
  // Wrong size / missing leading ONE are rejected.
  EXPECT_FALSE(c.cs.is_satisfied(std::vector<Fr>(2, Fr::one())));
  std::vector<Fr> no_one(c.cs.num_variables, Fr::zero());
  EXPECT_FALSE(c.cs.is_satisfied(no_one));
}

TEST(R1cs, LinearCombinationAlgebra) {
  using LC = LinearCombination;
  const std::vector<Fr> z = {Fr::one(), Fr::from_u64(10), Fr::from_u64(20)};
  const LC lc = LC::variable(1) * Fr::from_u64(3) + LC::variable(2) - LC::constant(Fr::from_u64(7));
  EXPECT_EQ(lc.evaluate(z), Fr::from_u64(30 + 20 - 7));
  // Merging terms keeps the representation sparse.
  LC merged = LC::variable(1) + LC::variable(1);
  EXPECT_EQ(merged.terms().size(), 1u);
  EXPECT_EQ(merged.evaluate(z), Fr::from_u64(20));
  // Cancelling to zero coefficient is dropped on construction of new terms.
  LC cancel = LC::variable(1) - LC::variable(1);
  EXPECT_EQ(cancel.evaluate(z), Fr::zero());
}

// Pin for the index-sorted LinearCombination representation (r1cs.h):
// term order after any construction order is the sorted order, and the
// sorted representation is bit-invisible downstream — the same circuit
// written with commuted `+` chains yields byte-identical keys and proofs.
TEST(R1cs, SortedTermOrderIsBitInvisible) {
  using LC = LinearCombination;

  // Commuted construction orders collapse to one canonical representation.
  const LC fwd = LC::variable(1) + LC::variable(3) + LC::variable(2) + LC::constant(Fr::one());
  const LC rev = LC::constant(Fr::one()) + LC::variable(2) + LC::variable(3) + LC::variable(1);
  ASSERT_EQ(fwd.terms().size(), rev.terms().size());
  for (std::size_t i = 0; i < fwd.terms().size(); ++i) {
    EXPECT_EQ(fwd.terms()[i].index, rev.terms()[i].index);
    EXPECT_EQ(fwd.terms()[i].coeff, rev.terms()[i].coeff);
    if (i > 0) {
      EXPECT_LT(fwd.terms()[i - 1].index, fwd.terms()[i].index);
    }
  }

  // The cubic circuit with the third constraint's A-side commuted: setup
  // and proving from the same seeds must emit byte-identical artifacts.
  const auto make_cubic = [](bool commuted) {
    ConstraintSystem cs;
    cs.num_inputs = 1;
    const VarIndex out = cs.allocate_variable();
    const VarIndex x = cs.allocate_variable();
    const VarIndex x_sq = cs.allocate_variable();
    const VarIndex x_cu = cs.allocate_variable();
    cs.add_constraint(LC::variable(x), LC::variable(x), LC::variable(x_sq));
    cs.add_constraint(LC::variable(x_sq), LC::variable(x), LC::variable(x_cu));
    const Fr five = Fr::from_u64(5);
    const LC a = commuted ? LC::constant(five) + LC::variable(x) + LC::variable(x_cu)
                          : LC::variable(x_cu) + LC::variable(x) + LC::constant(five);
    cs.add_constraint(a, LC::constant(Fr::one()), LC::variable(out));
    return cs;
  };
  const ConstraintSystem cs_a = make_cubic(false);
  const ConstraintSystem cs_b = make_cubic(true);
  const std::vector<Fr> z = CubicCircuit().assignment(3);

  Rng setup_a(99), setup_b(99);
  const Keypair kp_a = setup(cs_a, setup_a);
  const Keypair kp_b = setup(cs_b, setup_b);
  EXPECT_EQ(kp_a.vk.to_bytes(), kp_b.vk.to_bytes());

  Rng prove_a(7), prove_b(7);
  const Proof pf_a = prove(kp_a.pk, cs_a, z, prove_a);
  const Proof pf_b = prove(kp_b.pk, cs_b, z, prove_b);
  EXPECT_EQ(pf_a.to_bytes(), pf_b.to_bytes());
  EXPECT_TRUE(verify(kp_a.vk, {z[1]}, pf_b));
}

TEST(Domain, FftRoundTrip) {
  Rng rng(61);
  EvaluationDomain d(13);  // rounds up to 16
  EXPECT_EQ(d.size(), 16u);
  std::vector<Fr> coeffs;
  for (std::size_t i = 0; i < d.size(); ++i) coeffs.push_back(Fr::random(rng));
  std::vector<Fr> work = coeffs;
  d.fft(work);
  d.ifft(work);
  EXPECT_EQ(work, coeffs);
  work = coeffs;
  d.coset_fft(work);
  d.coset_ifft(work);
  EXPECT_EQ(work, coeffs);
}

TEST(Domain, FftMatchesNaiveEvaluation) {
  Rng rng(62);
  EvaluationDomain d(8);
  std::vector<Fr> coeffs;
  for (int i = 0; i < 8; ++i) coeffs.push_back(Fr::random(rng));
  std::vector<Fr> evals = coeffs;
  d.fft(evals);
  Fr x = Fr::one();
  for (std::size_t j = 0; j < d.size(); ++j) {
    Fr expected = Fr::zero();
    Fr pow = Fr::one();
    for (const Fr& c : coeffs) {
      expected += c * pow;
      pow *= x;
    }
    EXPECT_EQ(evals[j], expected) << "point " << j;
    x = Fr::one();
    for (std::size_t k = 0; k <= j; ++k) x *= d.omega();
  }
}

TEST(Domain, FftKernelMatchesTextbookBitExact) {
  // The blocked FFT evaluates the same butterfly DAG as the textbook loop
  // over exact arithmetic, so every output word must be identical — across
  // sizes below, at, and above the cache tile (1024).
  Rng rng(68);
  for (const std::size_t n : {4u, 64u, 1024u, 4096u}) {
    EvaluationDomain d(n);
    std::vector<Fr> coeffs;
    for (std::size_t i = 0; i < d.size(); ++i) coeffs.push_back(Fr::random(rng));
    std::vector<Fr> kernel = coeffs, oracle = coeffs;
    d.fft(kernel);
    d.fft_textbook(oracle);
    EXPECT_EQ(kernel, oracle) << "fft n=" << n;
    // The inverse is unique, so an exact round trip pins ifft as well.
    d.ifft(kernel);
    EXPECT_EQ(kernel, coeffs) << "round trip n=" << n;
  }
}

TEST(Groth16, CubicKeysAndProofBytesGolden) {
  // keccak256(vk || proof) for fixed setup/prove seeds. The digest was
  // recorded from a build that also ran the textbook multiexp/FFT/ladder
  // engine on this exact input and found identical bytes, so a match keeps
  // the kernels bit-identical to the oracles end to end.
  const CubicCircuit circuit;
  const auto z = circuit.assignment(9);
  Rng rng(555);
  const Keypair keys = setup(circuit.cs, rng);
  const Proof proof = prove(keys.pk, circuit.cs, z, rng);
  EXPECT_TRUE(verify(keys.vk, {z[circuit.out]}, proof));
  EXPECT_EQ(to_hex(keccak256(concat({keys.vk.to_bytes(), proof.to_bytes()}))),
            "772c1841e57f424ad491fa571998a5f76e33e27454ffb1ec855ae445597a9ec1");
}

TEST(Domain, VanishingPolynomial) {
  EvaluationDomain d(8);
  // Z vanishes exactly on the domain.
  Fr w = Fr::one();
  for (std::size_t j = 0; j < d.size(); ++j) {
    EXPECT_TRUE(d.vanishing_poly_at(w).is_zero());
    w *= d.omega();
  }
  EXPECT_FALSE(d.vanishing_poly_on_coset().is_zero());
}

TEST(Domain, LagrangeInterpolationIdentity) {
  Rng rng(63);
  EvaluationDomain d(4);
  const Fr tau = Fr::random(rng);
  const std::vector<Fr> lag = d.lagrange_coeffs_at(tau);
  // sum_j L_j(tau) == 1 (partition of unity for interpolation).
  Fr sum = Fr::zero();
  for (const Fr& l : lag) sum += l;
  EXPECT_EQ(sum, Fr::one());
  // Interpolating x^2 through its domain evaluations reproduces tau^2.
  Fr interp = Fr::zero();
  Fr w = Fr::one();
  for (std::size_t j = 0; j < d.size(); ++j) {
    interp += lag[j] * w * w;
    w *= d.omega();
  }
  EXPECT_EQ(interp, tau * tau);
}

TEST(Domain, BatchInvert) {
  Rng rng(64);
  std::vector<Fr> vals;
  for (int i = 0; i < 20; ++i) vals.push_back(Fr::random(rng));
  std::vector<Fr> inv = vals;
  batch_invert(inv);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(vals[static_cast<std::size_t>(i)] * inv[static_cast<std::size_t>(i)], Fr::one());
  std::vector<Fr> with_zero = {Fr::one(), Fr::zero()};
  EXPECT_THROW(batch_invert(with_zero), std::domain_error);
}

class Groth16Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    circuit_ = new CubicCircuit();
    rng_ = new Rng(71);
    keys_ = new Keypair(setup(circuit_->cs, *rng_));
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete rng_;
    delete circuit_;
    keys_ = nullptr;
    rng_ = nullptr;
    circuit_ = nullptr;
  }

  static CubicCircuit* circuit_;
  static Rng* rng_;
  static Keypair* keys_;
};
CubicCircuit* Groth16Test::circuit_ = nullptr;
Rng* Groth16Test::rng_ = nullptr;
Keypair* Groth16Test::keys_ = nullptr;

TEST_F(Groth16Test, CompletenessAcrossWitnesses) {
  for (const std::uint64_t x : {0ull, 1ull, 3ull, 123456789ull}) {
    const auto z = circuit_->assignment(x);
    const Proof proof = prove(keys_->pk, circuit_->cs, z, *rng_);
    EXPECT_TRUE(verify(keys_->vk, {z[circuit_->out]}, proof)) << "x=" << x;
  }
}

TEST_F(Groth16Test, WrongStatementRejected) {
  const auto z = circuit_->assignment(3);
  const Proof proof = prove(keys_->pk, circuit_->cs, z, *rng_);
  EXPECT_FALSE(verify(keys_->vk, {z[circuit_->out] + Fr::one()}, proof));
  EXPECT_FALSE(verify(keys_->vk, {}, proof));  // wrong input arity
}

TEST_F(Groth16Test, UnsatisfyingAssignmentRefusedByProver) {
  auto z = circuit_->assignment(3);
  z[circuit_->x_sq] += Fr::one();
  EXPECT_THROW(prove(keys_->pk, circuit_->cs, z, *rng_), std::invalid_argument);
}

// A key set up for another circuit must be refused, not read past its end:
// here the circuit has one variable more than the key's queries.
TEST_F(Groth16Test, KeyForAnotherCircuitRefusedByProver) {
  CubicCircuit bigger;
  const VarIndex x4 = bigger.cs.allocate_variable();
  bigger.cs.add_constraint(LinearCombination::variable(bigger.x_cu),
                           LinearCombination::variable(bigger.x), LinearCombination::variable(x4));
  auto z = bigger.assignment(3);
  z[x4] = z[bigger.x_cu] * z[bigger.x];
  ASSERT_TRUE(bigger.cs.is_satisfied(z));
  EXPECT_THROW(prove(keys_->pk, bigger.cs, z, *rng_), std::invalid_argument);
}

TEST_F(Groth16Test, TamperedProofRejected) {
  const auto z = circuit_->assignment(5);
  const Proof proof = prove(keys_->pk, circuit_->cs, z, *rng_);
  Proof bad = proof;
  bad.a = bad.a + G1::generator();
  EXPECT_FALSE(verify(keys_->vk, {z[circuit_->out]}, bad));
  bad = proof;
  bad.c = -bad.c;
  EXPECT_FALSE(verify(keys_->vk, {z[circuit_->out]}, bad));
  bad = proof;
  bad.b = bad.b + G2::generator();
  EXPECT_FALSE(verify(keys_->vk, {z[circuit_->out]}, bad));
}

TEST_F(Groth16Test, ProofsAreRandomized) {
  // Zero-knowledge smoke test: same witness, different proofs.
  const auto z = circuit_->assignment(7);
  const Proof p1 = prove(keys_->pk, circuit_->cs, z, *rng_);
  const Proof p2 = prove(keys_->pk, circuit_->cs, z, *rng_);
  EXPECT_NE(p1.a, p2.a);
  EXPECT_TRUE(verify(keys_->vk, {z[circuit_->out]}, p1));
  EXPECT_TRUE(verify(keys_->vk, {z[circuit_->out]}, p2));
}

TEST_F(Groth16Test, ProofSerializationRoundTrip) {
  const auto z = circuit_->assignment(11);
  const Proof proof = prove(keys_->pk, circuit_->cs, z, *rng_);
  const Bytes enc = proof.to_bytes();
  EXPECT_EQ(enc.size(), Proof::kByteSize);
  const Proof decoded = Proof::from_bytes(enc);
  EXPECT_TRUE(verify(keys_->vk, {z[circuit_->out]}, decoded));
  Bytes corrupt = enc;
  corrupt[10] ^= 1;
  EXPECT_THROW(Proof::from_bytes(corrupt), std::invalid_argument);  // off-curve / non-canonical
}

TEST_F(Groth16Test, VerifyingKeySerializationRoundTrip) {
  const Bytes enc = keys_->vk.to_bytes();
  EXPECT_EQ(enc.size(), keys_->vk.byte_size());
  const VerifyingKey decoded = VerifyingKey::from_bytes(enc);
  const auto z = circuit_->assignment(13);
  const Proof proof = prove(keys_->pk, circuit_->cs, z, *rng_);
  EXPECT_TRUE(verify(decoded, {z[circuit_->out]}, proof));
}

TEST_F(Groth16Test, ProofFromDifferentSetupRejected) {
  Rng other_rng(99);
  const Keypair other = setup(circuit_->cs, other_rng);
  const auto z = circuit_->assignment(3);
  const Proof proof = prove(other.pk, circuit_->cs, z, *rng_);
  EXPECT_TRUE(verify(other.vk, {z[circuit_->out]}, proof));
  EXPECT_FALSE(verify(keys_->vk, {z[circuit_->out]}, proof));
}

TEST(Groth16, CircuitWithManyConstraints) {
  // A wider circuit: prove knowledge of the 60th step of x_{k+1} = x_k^2 + k.
  ConstraintSystem cs;
  cs.num_inputs = 1;
  using LC = LinearCombination;
  const VarIndex out = cs.allocate_variable();
  VarIndex cur = cs.allocate_variable();
  std::vector<Fr> z = {Fr::one(), Fr::zero(), Fr::from_u64(3)};
  for (std::uint64_t k = 0; k < 60; ++k) {
    const VarIndex next = cs.allocate_variable();
    cs.add_constraint(LC::variable(cur), LC::variable(cur),
                      LC::variable(next) - LC::constant(Fr::from_u64(k)));
    z.push_back(z[cur] * z[cur] + Fr::from_u64(k));
    cur = next;
  }
  cs.add_constraint(LC::variable(cur), LC::constant(Fr::one()), LC::variable(out));
  z[1] = z[cur];

  Rng rng(81);
  const Keypair keys = setup(cs, rng);
  const Proof proof = prove(keys.pk, cs, z, rng);
  EXPECT_TRUE(verify(keys.vk, {z[1]}, proof));
  EXPECT_FALSE(verify(keys.vk, {z[1] + Fr::one()}, proof));
}

}  // namespace
}  // namespace zl::snark
