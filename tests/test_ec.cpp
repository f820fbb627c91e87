// Elliptic curve and pairing tests: group laws on G1/G2/secp256k1/Jubjub,
// bilinearity and non-degeneracy of the ate pairing, Pippenger multiexp
// against the naive sum.
#include <gtest/gtest.h>

#include "ec/babyjubjub.h"
#include "ec/glv.h"
#include "ec/multiexp.h"
#include "ec/pairing.h"
#include "ec/secp256k1.h"
#include "ec/serialize.h"

namespace zl {
namespace {

template <typename Point>
void check_group_laws(std::uint64_t seed) {
  Rng rng(seed);
  const Point g = Point::generator();
  ASSERT_TRUE(g.is_on_curve());
  EXPECT_TRUE(g.in_prime_subgroup());

  const BigInt a = 3 + random_below(rng, BigInt(1) << 120);
  const BigInt b = 3 + random_below(rng, BigInt(1) << 120);
  const Point pa = g * a, pb = g * b;
  EXPECT_TRUE(pa.is_on_curve());
  EXPECT_EQ(pa + pb, g * (a + b));
  EXPECT_EQ(pa - pa, Point::infinity());
  EXPECT_EQ(pa + Point::infinity(), pa);
  EXPECT_EQ(pa.dbl(), pa + pa);
  EXPECT_EQ((pa + pb) + pa, pa + (pb + pa));
  EXPECT_EQ(g * Point::order(), Point::infinity());
  EXPECT_EQ(g * (Point::order() + 5), g * 5);
}

TEST(G1, GroupLaws) { check_group_laws<G1>(21); }
TEST(G2, GroupLaws) { check_group_laws<G2>(22); }
TEST(Secp256k1, GroupLaws) { check_group_laws<SecpPoint>(23); }

template <typename Point>
struct PointOrderHelper {};

TEST(G1, AffineRoundTrip) {
  const G1 p = G1::generator() * 12345;
  const auto [x, y] = p.to_affine();
  EXPECT_EQ(G1::from_affine(x, y), p);
  EXPECT_THROW(G1::from_affine(x, y + Fq::one()), std::invalid_argument);
  EXPECT_THROW(G1::infinity().to_affine(), std::domain_error);
}

TEST(G1, ScalarEdgeCases) {
  const G1 g = G1::generator();
  EXPECT_EQ(g * 0, G1::infinity());
  EXPECT_EQ(g * 1, g);
  EXPECT_EQ(g * (-3), -(g * 3));
  EXPECT_EQ(G1::infinity() * 7, G1::infinity());
}

TEST(Pairing, Bilinearity) {
  Rng rng(31);
  const G1 p = G1::generator();
  const G2 q = G2::generator();
  const BigInt a = 2 + random_below(rng, BigInt(1) << 100);
  const BigInt b = 2 + random_below(rng, BigInt(1) << 100);

  const Fq12 e = pairing(q, p);
  EXPECT_FALSE(e.is_one()) << "pairing must be non-degenerate";
  EXPECT_EQ(pairing(q, p * a), e.pow(a));
  EXPECT_EQ(pairing(q * b, p), e.pow(b));
  EXPECT_EQ(pairing(q * b, p * a), e.pow(a * b));
}

TEST(Pairing, ValuesLieInMuR) {
  const Fq12 e = pairing(G2::generator(), G1::generator());
  EXPECT_TRUE(e.pow(Fr::modulus_bigint()).is_one());
}

TEST(Pairing, AdditivityInEachSlot) {
  const G1 p = G1::generator();
  const G2 q = G2::generator();
  const G1 p2 = p * 7, p3 = p * 11;
  EXPECT_EQ(pairing(q, p2 + p3), pairing(q, p2) * pairing(q, p3));
  const G2 q2 = q * 5, q3 = q * 13;
  EXPECT_EQ(pairing(q2 + q3, p), pairing(q2, p) * pairing(q3, p));
}

TEST(Pairing, InfinityConvention) {
  EXPECT_TRUE(pairing(G2::infinity(), G1::generator()).is_one());
  EXPECT_TRUE(pairing(G2::generator(), G1::infinity()).is_one());
}

TEST(Pairing, ProductSharesFinalExponentiation) {
  const G1 p = G1::generator();
  const G2 q = G2::generator();
  // e(q, 3p) * e(-q, 3p) == 1, and a Groth16-shaped 2-term identity.
  EXPECT_TRUE(pairing_product({{q, p * 3}, {-q, p * 3}}).is_one());
  EXPECT_EQ(pairing_product({{q * 2, p * 3}, {q * 5, p * 7}}),
            pairing(q, p).pow(BigInt(2 * 3 + 5 * 7)));
}

TEST(Multiexp, MatchesNaive) {
  Rng rng(41);
  for (const std::size_t n : {0u, 1u, 5u, 8u, 33u, 100u}) {
    std::vector<G1> points;
    std::vector<Fr> scalars;
    G1 expected = G1::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const G1 p = G1::generator() * (1 + rng.uniform(1000));
      const Fr s = Fr::random(rng);
      points.push_back(p);
      scalars.push_back(s);
      expected += p * s.to_bigint();
    }
    EXPECT_EQ(multiexp(points, scalars), expected) << "n=" << n;
  }
}

TEST(Multiexp, HandlesZeroAndLargeScalars) {
  std::vector<G1> points = {G1::generator(), G1::generator() * 2, G1::generator() * 3,
                            G1::generator() * 4, G1::generator() * 5, G1::generator() * 6,
                            G1::generator() * 7, G1::generator() * 8, G1::generator() * 9};
  std::vector<Fr> scalars(9, Fr::zero());
  scalars[3] = Fr::from_bigint(Fr::modulus_bigint() - 1);  // max canonical scalar
  const G1 expected = points[3] * (Fr::modulus_bigint() - 1);
  EXPECT_EQ(multiexp(points, scalars), expected);
  EXPECT_THROW(multiexp(points, std::vector<Fr>(3)), std::invalid_argument);
}

template <typename Point>
void check_glv_endomorphism() {
  const Point g = Point::generator();
  const BigInt& lam = detail::glv_curve<Point>().lambda;
  EXPECT_EQ(glv_endomorphism(g), g * lam);
  const Point p = g * 123456789;
  EXPECT_EQ(glv_endomorphism(p), p * lam);
  EXPECT_TRUE(glv_endomorphism(Point::infinity()).is_infinity());
}

TEST(Glv, EndomorphismMatchesLambdaOnG1) { check_glv_endomorphism<G1>(); }
TEST(Glv, EndomorphismMatchesLambdaOnG2) { check_glv_endomorphism<G2>(); }

TEST(Glv, LambdaIsPrimitiveCubeRootModR) {
  const BigInt& r = Fr::modulus_bigint();
  const BigInt& lam = glv_lambda();
  BigInt rel = (lam * lam + lam + 1) % r;
  if (rel < 0) rel += r;
  EXPECT_EQ(rel, 0);
  EXPECT_NE(lam, 1);
  // beta likewise in Fq.
  const Fq beta = glv_beta();
  EXPECT_EQ(beta * beta * beta, Fq::one());
  EXPECT_NE(beta, Fq::one());
}

TEST(Glv, DecompositionRecombinesAndIsShort) {
  const BigInt& r = Fr::modulus_bigint();
  const BigInt& lam = glv_lambda();
  const BigInt bound = BigInt(1) << 130;  // half-scalars stay ~sqrt(r)
  Rng rng(91);
  std::vector<BigInt> ks;
  for (int i = 0; i < 40; ++i) ks.push_back(Fr::random(rng).to_bigint());
  for (const BigInt& edge :
       {BigInt(0), BigInt(1), BigInt(r - 1), lam, BigInt(r - lam)}) {
    ks.push_back(edge);
  }
  for (const BigInt& k : ks) {
    const GlvDecomposition d = glv_decompose<G1>(k);
    BigInt back = (d.k1 + d.k2 * lam - k) % r;
    if (back < 0) back += r;
    EXPECT_EQ(back, 0) << "k = " << k;
    EXPECT_LT(abs(d.k1), bound);
    EXPECT_LT(abs(d.k2), bound);
  }
}

template <typename Point>
void check_glv_mul(std::uint64_t seed) {
  Rng rng(seed);
  const Point g = Point::generator();
  std::vector<BigInt> ks = {BigInt(0),
                            BigInt(1),
                            BigInt(2),
                            BigInt(Point::order() - 1),
                            Point::order(),
                            BigInt(Point::order() + 5),
                            glv_lambda()};
  for (int i = 0; i < 10; ++i) ks.push_back(Fr::random(rng).to_bigint());
  for (const BigInt& k : ks) {
    const Point p = g * (1 + rng.uniform(1 << 20));
    EXPECT_EQ(glv_mul(p, k), p * k) << "k = " << k;
  }
  EXPECT_TRUE(glv_mul(Point::infinity(), BigInt(42)).is_infinity());
}

TEST(Glv, MulMatchesLadderOnG1) { check_glv_mul<G1>(61); }
TEST(Glv, MulMatchesLadderOnG2) { check_glv_mul<G2>(62); }

// The same machinery derives secp256k1's constants (the ECDSA verifier's
// split): phi matches lambda, and the decomposition mod n recombines with
// half-scalars of at most ~129 bits.
TEST(Glv, Secp256k1EndomorphismDecompositionAndMul) {
  check_glv_endomorphism<SecpPoint>();
  check_glv_mul<SecpPoint>(63);
  const BigInt& n = SecpPoint::order();
  const BigInt& lam = detail::glv_curve<SecpPoint>().lambda;
  Rng rng(64);
  std::vector<BigInt> ks = {BigInt(0), BigInt(1), BigInt(n - 1), lam, BigInt(n - lam)};
  for (int i = 0; i < 40; ++i) ks.push_back(random_below(rng, n));
  for (const BigInt& k : ks) {
    const GlvDecomposition d = glv_decompose<SecpPoint>(k);
    BigInt back = (d.k1 + d.k2 * lam - k) % n;
    if (back < 0) back += n;
    EXPECT_EQ(back, 0) << "k = " << k;
    EXPECT_LT(abs(d.k1), BigInt(1) << 129);
    EXPECT_LT(abs(d.k2), BigInt(1) << 129);
  }
}

template <typename Point>
void check_kernel_vs_textbook(std::uint64_t seed) {
  // Adversarial input mix: infinities, zero / one / -1 scalars, duplicated
  // points (forced bucket doublings), and random full-width scalars. The
  // kernel engine must match the textbook oracle point-for-point — and since
  // serialization normalizes to affine, byte-for-byte.
  Rng rng(seed);
  for (const std::size_t n : {8u, 33u, 300u}) {
    std::vector<Point> points;
    std::vector<Fr> scalars;
    for (std::size_t i = 0; i < n; ++i) {
      Point p = Point::generator() * (1 + rng.uniform(1000));
      if (i % 7 == 3) p = Point::infinity();
      if (i % 5 == 4 && i > 0) p = points[i - 1];  // duplicates
      Fr s = Fr::random(rng);
      if (i % 11 == 0) s = Fr::zero();
      if (i % 11 == 1) s = Fr::one();
      if (i % 11 == 2) s = -Fr::one();
      points.push_back(p);
      scalars.push_back(s);
    }
    const Point oracle = multiexp_textbook(points, scalars);
    const Point kernel = multiexp(points, scalars);
    EXPECT_EQ(kernel, oracle) << "n=" << n;
  }
}

TEST(Multiexp, KernelMatchesTextbookOnG1) { check_kernel_vs_textbook<G1>(63); }
TEST(Multiexp, KernelMatchesTextbookOnG2) { check_kernel_vs_textbook<G2>(64); }

TEST(Multiexp, KernelAndTextbookBytesIdentical) {
  Rng rng(65);
  std::vector<G1> points;
  std::vector<Fr> scalars;
  for (std::size_t i = 0; i < 64; ++i) {
    points.push_back(G1::generator() * (1 + rng.uniform(1 << 16)));
    scalars.push_back(Fr::random(rng));
  }
  const Bytes kernel = g1_to_bytes(multiexp(points, scalars));
  const Bytes oracle = g1_to_bytes(multiexp_textbook(points, scalars));
  EXPECT_EQ(kernel, oracle);
}

TEST(G1, ToAffineCheckedIsTotal) {
  const G1::Affine inf = G1::infinity().to_affine_checked();
  EXPECT_TRUE(inf.infinity);
  const G1 p = G1::generator() * 7;
  const G1::Affine a = p.to_affine_checked();
  EXPECT_FALSE(a.infinity);
  EXPECT_EQ(G1::from_affine_point(a), p);
  EXPECT_EQ(G1::from_affine_point(a.negated()), -p);
  EXPECT_TRUE(G1::from_affine_point(inf).is_infinity());
}

TEST(G1, BatchNormalizeMatchesPerPoint) {
  Rng rng(66);
  std::vector<G1> points;
  for (std::size_t i = 0; i < 40; ++i) {
    if (i % 9 == 5) {
      points.push_back(G1::infinity());
    } else {
      // Arbitrary Jacobian representatives (sums have z != 1).
      points.push_back(G1::generator() * (1 + rng.uniform(1000)) + G1::generator());
    }
  }
  const std::vector<G1::Affine> affs = G1::normalize(points);
  ASSERT_EQ(affs.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const G1::Affine ref = points[i].to_affine_checked();
    EXPECT_EQ(affs[i].infinity, ref.infinity) << "i=" << i;
    if (!ref.infinity) {
      EXPECT_EQ(affs[i].x, ref.x) << "i=" << i;
      EXPECT_EQ(affs[i].y, ref.y) << "i=" << i;
    }
  }
}

TEST(G1, AddMixedMatchesGenericAdd) {
  Rng rng(67);
  for (int i = 0; i < 20; ++i) {
    const G1 p = G1::generator() * (1 + rng.uniform(1000));
    const G1 q = G1::generator() * (1 + rng.uniform(1000));
    EXPECT_EQ(p.add_mixed(q.to_affine_checked()), p + q);
    EXPECT_EQ(p.add_mixed(p.to_affine_checked()), p.dbl());        // doubling branch
    EXPECT_EQ(p.add_mixed((-p).to_affine_checked()), G1::infinity());  // cancellation
    EXPECT_EQ(p.add_mixed(G1::Affine{}), p);                       // q at infinity
    EXPECT_EQ(G1::infinity().add_mixed(q.to_affine_checked()), q);  // this at infinity
  }
}

TEST(Jubjub, GeneratorAndSubgroup) {
  const JubjubPoint g = JubjubPoint::generator();
  EXPECT_TRUE(g.is_on_curve());
  EXPECT_EQ(g * JubjubPoint::subgroup_order(), JubjubPoint::identity());
  EXPECT_NE(g * 2, JubjubPoint::identity());
}

TEST(Jubjub, GroupLaws) {
  Rng rng(51);
  const JubjubPoint g = JubjubPoint::generator();
  const BigInt a = 2 + random_below(rng, BigInt(1) << 100);
  const BigInt b = 2 + random_below(rng, BigInt(1) << 100);
  EXPECT_EQ((g * a) + (g * b), g * (a + b));
  EXPECT_EQ(g + JubjubPoint::identity(), g);
  EXPECT_EQ((g * a) - (g * a), JubjubPoint::identity());
  EXPECT_TRUE((g * a).is_on_curve());
}

TEST(Jubjub, DiffieHellmanAgreement) {
  // The key-agreement pattern the task encryption uses (DESIGN.md T2).
  Rng rng(52);
  const JubjubPoint g = JubjubPoint::generator();
  const BigInt esk = 2 + random_below(rng, JubjubPoint::subgroup_order());
  const BigInt r = 2 + random_below(rng, JubjubPoint::subgroup_order());
  const JubjubPoint epk = g * esk;
  const JubjubPoint R = g * r;
  EXPECT_EQ(epk * r, R * esk);
}

TEST(Jubjub, SerializationRoundTrip) {
  const JubjubPoint p = JubjubPoint::generator() * 97;
  EXPECT_EQ(JubjubPoint::from_bytes(p.to_bytes()), p);
  Bytes bad = p.to_bytes();
  bad[5] ^= 1;
  EXPECT_THROW(JubjubPoint::from_bytes(bad), std::invalid_argument);
}

}  // namespace
}  // namespace zl
