// Fast pairing engine tests: the G2Prepared / sparse-line / cyclotomic path
// must be bit-identical to the retained textbook pairing on every input, and
// the prepared Groth16 verifier and the batch verifier must agree with the
// unprepared one.
#include <gtest/gtest.h>

#include <stdexcept>

#include "ec/pairing.h"
#include "obs/obs.h"
#include "snark/groth16.h"

namespace zl {
namespace {

TEST(FastPairing, BitIdenticalToTextbook) {
  Rng rng(401);
  for (int i = 0; i < 4; ++i) {
    const G1 p = G1::generator() * Fr::random(rng);
    const G2 q = G2::generator() * Fr::random(rng);
    const Fq12 fast = pairing(q, p);
    const Fq12 slow = pairing_textbook(q, p);
    EXPECT_EQ(fast, slow) << "sample " << i;
  }
}

TEST(FastPairing, ProductBitIdenticalToTextbook) {
  Rng rng(402);
  std::vector<std::pair<G2, G1>> pairs;
  for (int i = 0; i < 3; ++i) {
    pairs.emplace_back(G2::generator() * Fr::random(rng), G1::generator() * Fr::random(rng));
  }
  EXPECT_EQ(pairing_product(pairs), pairing_product_textbook(pairs));
  // A cancelling product must still be one through the fast path.
  const G1 p = G1::generator() * 3;
  const G2 q = G2::generator() * 5;
  EXPECT_TRUE(pairing_product({{q, p}, {-q, p}}).is_one());
}

TEST(FastPairing, PreparedMatchesOnTheFly) {
  Rng rng(403);
  const G1 p = G1::generator() * Fr::random(rng);
  const G2 q = G2::generator() * Fr::random(rng);
  const G2Prepared prep(q);
  EXPECT_FALSE(prep.is_infinity());
  EXPECT_EQ(pairing(prep, p), pairing(q, p));
  EXPECT_EQ(final_exponentiation(miller_loop(prep, p)), pairing(q, p));
  // Prepared product, reusing one schedule across entries.
  const G1 p2 = G1::generator() * Fr::random(rng);
  const std::vector<std::pair<const G2Prepared*, G1>> prepared_pairs = {{&prep, p}, {&prep, p2}};
  EXPECT_EQ(pairing_product(prepared_pairs), pairing_product({{q, p}, {q, p2}}));
}

TEST(FastPairing, BilinearThroughPrepared) {
  Rng rng(404);
  const G1 p = G1::generator() * Fr::random(rng);
  const G2 q = G2::generator() * Fr::random(rng);
  const BigInt a = 3 + random_below(rng, BigInt(1) << 120);
  const G2Prepared prep(q);
  const Fq12 e = pairing(prep, p);
  EXPECT_FALSE(e.is_one()) << "pairing must be non-degenerate";
  EXPECT_EQ(pairing(prep, p * a), e.pow(a));
  EXPECT_EQ(pairing(G2Prepared(q * a), p), e.pow(a));
}

TEST(FastPairing, InfinityHandling) {
  const G1 p = G1::generator();
  const G2 q = G2::generator();
  const G2Prepared prep_inf{};  // default-constructed == infinity
  EXPECT_TRUE(prep_inf.is_infinity());
  EXPECT_TRUE(G2Prepared(G2::infinity()).is_infinity());
  EXPECT_TRUE(prep_inf.coefficients().empty());
  EXPECT_TRUE(pairing(prep_inf, p).is_one());
  EXPECT_TRUE(pairing(G2Prepared(q), G1::infinity()).is_one());
  EXPECT_THROW(miller_loop(prep_inf, p), std::invalid_argument);
  EXPECT_THROW(miller_loop(G2Prepared(q), G1::infinity()), std::invalid_argument);
  // Product entries at infinity contribute the identity, prepared or not.
  const G2Prepared prep(q);
  const std::vector<std::pair<const G2Prepared*, G1>> mixed = {
      {&prep, p * 7}, {&prep_inf, p}, {&prep, G1::infinity()}};
  EXPECT_EQ(pairing_product(mixed), pairing(q, p * 7));
}

TEST(FastPairing, CyclotomicArithmeticOnUnitaryElements) {
  Rng rng(405);
  // Pairing outputs live in the cyclotomic subgroup (unitary: conj == inv),
  // exactly the domain cyclotomic_squared is specialised for.
  const Fq12 u =
      pairing(G2::generator() * Fr::random(rng), G1::generator() * Fr::random(rng));
  EXPECT_EQ(u.cyclotomic_squared(), u.squared());
  EXPECT_EQ(u.unitary_inverse(), u.inverse());
  EXPECT_TRUE((u * u.unitary_inverse()).is_one());
  Fq12 by_cyc = u.cyclotomic_squared().cyclotomic_squared();
  EXPECT_EQ(by_cyc, u.pow(BigInt(4)));
  // A generic (non-unitary) element must NOT satisfy conj == inv — guards
  // against cyclotomic helpers being silently used outside their domain.
  Fq12 generic = Fq12::one();
  generic.a0.c0.c0 = Fq::from_u64(2);
  generic.a1.c1.c1 = Fq::from_u64(3);
  EXPECT_NE(generic.unitary_inverse(), generic.inverse());
}

// --- Prepared Groth16 verification ---------------------------------------

struct CubicCircuit {
  snark::ConstraintSystem cs;
  snark::VarIndex out, x, x_sq, x_cu;

  CubicCircuit() {
    cs.num_inputs = 1;
    out = cs.allocate_variable();
    x = cs.allocate_variable();
    x_sq = cs.allocate_variable();
    x_cu = cs.allocate_variable();
    using LC = snark::LinearCombination;
    cs.add_constraint(LC::variable(x), LC::variable(x), LC::variable(x_sq));
    cs.add_constraint(LC::variable(x_sq), LC::variable(x), LC::variable(x_cu));
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

TEST(PreparedGroth16, AgreesWithUnprepared) {
  CubicCircuit c;
  Rng rng(406);
  const auto keys = snark::setup(c.cs, rng);
  const auto z = c.assignment(3);
  const std::vector<Fr> statement(z.begin() + 1, z.begin() + 1 + c.cs.num_inputs);
  const auto proof = snark::prove(keys.pk, c.cs, z, rng);

  const auto pvk = snark::PreparedVerifyingKey::prepare(keys.vk);
  EXPECT_TRUE(snark::verify(keys.vk, statement, proof));
  EXPECT_TRUE(snark::verify(pvk, statement, proof));

  // Both reject the same tampered inputs.
  auto bad_proof = proof;
  bad_proof.a = bad_proof.a + G1::generator();
  EXPECT_FALSE(snark::verify(keys.vk, statement, bad_proof));
  EXPECT_FALSE(snark::verify(pvk, statement, bad_proof));
  const std::vector<Fr> bad_statement = {statement[0] + Fr::one()};
  EXPECT_FALSE(snark::verify(keys.vk, bad_statement, proof));
  EXPECT_FALSE(snark::verify(pvk, bad_statement, proof));
}

TEST(PreparedGroth16, BatchMatchesPerProofVerify) {
  CubicCircuit c;
  Rng rng(407);
  const auto keys = snark::setup(c.cs, rng);
  const auto other = snark::setup(c.cs, rng);  // a second key, interleaved

  std::vector<snark::BatchVerifyItem> items;
  for (std::uint64_t x_val = 2; x_val < 6; ++x_val) {
    const auto z = c.assignment(x_val);
    const std::vector<Fr> statement(z.begin() + 1, z.begin() + 1 + c.cs.num_inputs);
    const auto& kp = x_val == 3 ? other : keys;
    auto proof = snark::prove(kp.pk, c.cs, z, rng);
    if (x_val == 4) proof.c = proof.c + G1::generator();  // plant one bad entry
    items.push_back({kp.vk, statement, proof});
  }
  const snark::BatchVerifyItem wrong_key{keys.vk, items[1].public_inputs, items[1].proof};
  items.push_back(wrong_key);  // the other key's proof, checked under the first key

  zl::obs::reset();
  const auto ok = snark::verify_batch(items);
  if (ZL_OBS_ENABLED) {
    EXPECT_EQ(zl::obs::snapshot().counter("snark.prepare_key"), 2u)
        << "each distinct key is prepared once per batch";
  }
  std::vector<std::uint8_t> per_proof;
  for (const auto& item : items) {
    per_proof.push_back(snark::verify(item.vk, item.public_inputs, item.proof) ? 1 : 0);
  }
  EXPECT_EQ(ok, per_proof);
  EXPECT_EQ(ok, (std::vector<std::uint8_t>{1, 1, 0, 1, 0}));
}

}  // namespace
}  // namespace zl
