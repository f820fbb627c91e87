#pragma once
// GLV endomorphism scalar multiplication on j-invariant-0 curves: BN254 G1
// and G2 (DESIGN.md §11) and secp256k1 (the ECDSA verifier, ec/ecdsa.h).
//
// On y^2 = x^3 + b, x -> s*x for a cube root of unity s in the coordinate
// field is a group endomorphism phi with phi(P) = lambda*P on the prime
// order-r subgroup, where lambda is a cube root of unity mod r
// (lambda^2 + lambda + 1 = 0 mod r). The scale is a cube root beta in the
// curve's prime field; for BN254 G2 the same beta embedded into Fq2 works,
// since (beta*x)^3 = x^3 on the twist as well. A scalar k then splits into
// two half-width half-scalars k = k1 + k2*lambda (mod r) via Babai rounding
// on the lattice of vectors (a, b) with a + b*lambda = 0 (mod r), and k*P is
// computed as the joint multi-scalar k1*P + k2*phi(P) — half the doublings
// of the plain ladder.
//
// All constants are derived at first use from the curve parameters and
// self-verified per group (phi(G) == lambda*G over the {beta, beta^2} x
// {lambda, lambda^2} candidates, lattice membership, determinant == ±r), so
// there are no unvalidated magic numbers.
//
// SECRET-SCALAR POLICY: decomposition and the joint ladder are variable-time
// in the scalar, so every entry point guards with ct::branch and the CT
// harness aborts on tainted input. Secret scalars (prover randomness r, s;
// ECDSA keys and nonces) must stay on WeierstrassPoint::mul_blinded; GLV is
// for public scalars only (verifier inputs, setup powers, bucket work in the
// public multiexp).

#include <array>
#include <stdexcept>
#include <type_traits>

#include "common/ct.h"
#include "ec/bn254_groups.h"
#include "ec/secp256k1.h"

namespace zl {

/// Signed half-scalar split k = k1 + k2*lambda (mod r), |k1|, |k2| <~ sqrt(r).
struct GlvDecomposition {
  BigInt k1;
  BigInt k2;
};

/// The same split in fixed width, for BN254 G1/G2 scalars: magnitudes below
/// 2^128 with their signs apart, k = ±k1 ± k2*lambda (mod r).
struct GlvSplit {
  unsigned __int128 k1 = 0;
  unsigned __int128 k2 = 0;
  bool k1_neg = false;
  bool k2_neg = false;
};

namespace detail {

/// Short lattice basis v1 = (a1, b1), v2 = (a2, b2) for the group order r;
/// each satisfies a + b*lambda == 0 (mod r) with ~sqrt(r) components.
struct GlvLattice {
  BigInt a1, b1, a2, b2;
  BigInt r;
};

/// The prime field a coordinate field is built over: the field beta lives in.
template <typename Field>
struct PrimeSubfield {
  using type = Field;
};
template <>
struct PrimeSubfield<Fq2> {
  using type = Fq;
};

/// A primitive cube root of unity in the prime field F (self-verified).
template <typename F>
const F& glv_cube_root() {
  static const F beta = [] {
    const BigInt& q = F::modulus_bigint();
    if ((q - 1) % 3 != 0) throw std::logic_error("glv: q must be 1 mod 3 on a j=0 curve");
    // Raise small bases to (q-1)/3 until the result is != 1. Any such value
    // has multiplicative order exactly 3 (a primitive cube root).
    const BigInt qexp = (q - 1) / 3;
    for (std::uint64_t i = 2;; ++i) {
      const F cand = F::from_u64(i).pow(qexp);
      if (!(cand == F::one())) {
        if (!(cand * cand * cand == F::one())) {
          throw std::logic_error("glv: beta is not a cube root of unity");
        }
        return cand;
      }
    }
  }();
  return beta;
}

/// The two primitive cube roots of unity mod the prime r: {lambda, lambda^2}.
std::array<BigInt, 2> glv_lambda_candidates(const BigInt& r);

/// Short basis for the eigenvalue lambda mod r via the extended Euclidean
/// algorithm on (r, lambda); self-checks membership and determinant.
GlvLattice glv_lattice(const BigInt& lambda, const BigInt& r);

/// Babai rounding of k against the basis (no taint guard: callers guard).
GlvDecomposition glv_decompose_lattice(const BigInt& k, const GlvLattice& lat);

/// The lattice in 4-limb form for scalars below 2^254: the basis as
/// two's-complement residues mod 2^256, and the Babai coefficients
/// c = round(k*b2/det), round(-k*b1/det) replaced by multipliers
/// g = round(2^256*b/det), so that c = ±((k*|g| + 2^255) >> 256). The
/// multiplier rounds c by at most one more, which keeps |k1|, |k2| below
/// 2^128 on BN254 (checked per split).
struct GlvLimbLattice {
  Limbs a1, b1, a2, b2;
  Limbs g1, g2;
  bool g1_neg, g2_neg;
};

GlvLimbLattice glv_limb_lattice(const GlvLattice& lat);

/// Babai rounding of a canonical k < 2^254 in fixed-width limb arithmetic
/// (no taint guard: callers guard). Throws std::logic_error if a half-scalar
/// reaches 2^128, which the BN254 lattices never produce.
GlvSplit glv_split_limbs(const Limbs& k, const GlvLimbLattice& lat);

/// Per-group constants: the field-embedded endomorphism scale and the
/// matching eigenvalue + lattice, derived and verified on the generator.
template <typename Point>
struct GlvCurve {
  typename Point::Field endo_scale;
  BigInt lambda;
  GlvLattice lattice;
};

template <typename Point>
const GlvCurve<Point>& glv_curve() {
  static const GlvCurve<Point> c = [] {
    using Field = typename Point::Field;
    using Prime = typename PrimeSubfield<Field>::type;
    const Prime& beta = glv_cube_root<Prime>();
    const auto embed = [](const Prime& b) {
      if constexpr (std::is_same_v<Field, Prime>) {
        return b;
      } else {
        return Field(b, Prime::zero());
      }
    };
    const Point gen = Point::generator();
    const BigInt& r = Point::order();
    // Exactly one of the four (scale, eigenvalue) pairings matches this
    // group's restriction of the automorphism; find and verify it.
    for (const Prime& b : {beta, beta * beta}) {
      const Field scale = embed(b);
      const Point phi_gen = Point::from_jacobian_unchecked(scale * gen.jacobian_x(),
                                                           gen.jacobian_y(), gen.jacobian_z());
      for (const BigInt& lam : glv_lambda_candidates(r)) {
        if (gen * lam == phi_gen) {
          return GlvCurve<Point>{scale, lam, glv_lattice(lam, r)};
        }
      }
    }
    throw std::logic_error("glv: no (beta, lambda) pairing matches the endomorphism");
  }();
  return c;
}

template <typename Point>
const GlvLimbLattice& glv_limb_curve() {
  static const GlvLimbLattice lat = glv_limb_lattice(glv_curve<Point>().lattice);
  return lat;
}

}  // namespace detail

/// phi(P): one coordinate-field multiplication instead of a full ladder.
template <typename Point>
Point glv_endomorphism(const Point& p) {
  if (p.is_infinity()) return p;
  // Affine x -> s*x is X -> s*X in Jacobian coordinates (x = X/Z^2).
  return Point::from_jacobian_unchecked(detail::glv_curve<Point>().endo_scale * p.jacobian_x(),
                                        p.jacobian_y(), p.jacobian_z());
}

/// Babai-rounded lattice decomposition of k (mod r). Variable-time in k:
/// rejects tainted scalars via ct::branch.
template <typename Point = G1>
GlvDecomposition glv_decompose(const BigInt& k) {
  ct::branch(k,
             "glv_decompose: the decomposition and joint ladder are variable-time in the "
             "scalar — use mul_blinded for secret scalars");
  return detail::glv_decompose_lattice(k, detail::glv_curve<Point>().lattice);
}

/// Fixed-width Babai split of an Fr scalar for the BN254 groups: four-limb
/// products, no BigInt. Same lattice and guard as glv_decompose (the split
/// may differ from it by one lattice vector; both recombine to k).
template <typename Point>
GlvSplit glv_split(const Fr& k) {
  ct::branch(&k, sizeof(k),
             "glv_split: the decomposition and the multiexp digits are variable-time in the "
             "scalar — use mul_blinded for secret scalars");
  return detail::glv_split_limbs(k.to_limbs(), detail::glv_limb_curve<Point>());
}

/// Variable-time scalar multiplication via the endomorphism split. PUBLIC
/// scalars only — secret scalars must use mul_blinded.
template <typename Point>
Point glv_mul(const Point& p, const BigInt& k) {
  const GlvDecomposition d = glv_decompose<Point>(k);  // guards tainted k
  if (p.is_infinity()) return p;
  BigInt k1 = d.k1, k2 = d.k2;
  Point p1 = p;
  Point p2 = glv_endomorphism(p);
  if (k1 < 0) {
    k1 = -k1;
    p1 = -p1;
  }
  if (k2 < 0) {
    k2 = -k2;
    p2 = -p2;
  }
  const std::size_t bits1 = k1 == 0 ? 0 : mpz_sizeinbase(k1.get_mpz_t(), 2);
  const std::size_t bits2 = k2 == 0 ? 0 : mpz_sizeinbase(k2.get_mpz_t(), 2);
  const std::size_t bits = std::max(bits1, bits2);
  if (bits == 0) return Point::infinity();
  // Joint (Shamir) double-and-add over the two half-scalars.
  const Point p12 = p1 + p2;
  Point acc = Point::infinity();
  for (std::size_t i = bits; i-- > 0;) {
    acc = acc.dbl();
    const bool b1 = mpz_tstbit(k1.get_mpz_t(), i) != 0;
    const bool b2 = mpz_tstbit(k2.get_mpz_t(), i) != 0;
    if (b1 && b2) {
      acc += p12;
    } else if (b1) {
      acc += p1;
    } else if (b2) {
      acc += p2;
    }
  }
  return acc;
}

template <typename Point>
Point glv_mul(const Point& p, const Fr& s) {
  return glv_mul(p, s.to_bigint());
}

/// G1 constants, exposed for tests and documentation.
inline const Fq& glv_beta() { return detail::glv_curve<G1>().endo_scale; }
inline const BigInt& glv_lambda() { return detail::glv_curve<G1>().lambda; }

}  // namespace zl
