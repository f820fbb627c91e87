#include "ec/glv.h"

#include <tuple>
#include <utility>

namespace zl {
namespace detail {
namespace {

// floor((2*num + den) / (2*den)) == round(num / den) for den > 0; flips
// signs first so the denominator is positive (GMP floor division).
BigInt round_div(BigInt num, BigInt den) {
  if (den < 0) {
    den = -den;
    num = -num;
  }
  BigInt q;
  mpz_fdiv_q((q.get_mpz_t()), BigInt(2 * num + den).get_mpz_t(), BigInt(2 * den).get_mpz_t());
  return q;
}

BigInt vec_norm2(const BigInt& a, const BigInt& b) { return a * a + b * b; }

using u128 = unsigned __int128;

/// v mod 2^256 as little-endian limbs (two's complement for v < 0).
Limbs limbs_mod_2_256(const BigInt& v) {
  BigInt m = v % (BigInt(1) << 256);
  if (m < 0) m += BigInt(1) << 256;
  Limbs out{0, 0, 0, 0};
  std::size_t count = 0;
  mpz_export(out.data(), &count, -1, sizeof(std::uint64_t), 0, 0, m.get_mpz_t());
  return out;
}

Limbs wrapping_add(const Limbs& a, const Limbs& b) {
  bool carry = false;
  return limbs_add(a, b, carry);
}

Limbs wrapping_sub(const Limbs& a, const Limbs& b) {
  bool borrow = false;
  return limbs_sub(a, b, borrow);
}

Limbs wrapping_neg(const Limbs& a) { return wrapping_sub(Limbs{0, 0, 0, 0}, a); }

/// a*b mod 2^256: exact for signed operands in two's complement.
Limbs wrapping_mul(const Limbs& a, const Limbs& b) {
  Limbs r{0, 0, 0, 0};
  for (std::size_t i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (std::size_t j = 0; i + j < 4; ++j) {
      const u128 t = static_cast<u128>(a[i]) * b[j] + r[i + j] + carry;
      r[i + j] = static_cast<std::uint64_t>(t);
      carry = t >> 64;
    }
  }
  return r;
}

/// (a*b + 2^255) >> 256: the high half of the 512-bit product, rounded.
Limbs mul_round_high(const Limbs& a, const Limbs& b) {
  std::uint64_t p[8] = {};
  for (std::size_t i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const u128 t = static_cast<u128>(a[i]) * b[j] + p[i + j] + carry;
      p[i + j] = static_cast<std::uint64_t>(t);
      carry = t >> 64;
    }
    p[i + 4] = static_cast<std::uint64_t>(carry);
  }
  u128 acc = static_cast<u128>(p[3]) + (std::uint64_t{1} << 63);
  for (std::size_t i = 4; i < 8; ++i) {
    acc = (acc >> 64) + p[i];
    p[i] = static_cast<std::uint64_t>(acc);
  }
  return Limbs{p[4], p[5], p[6], p[7]};
}

/// A two's-complement residue whose true value is below 2^128 in magnitude,
/// as sign and magnitude.
std::pair<u128, bool> to_half_scalar(const Limbs& v) {
  const bool neg = (v[3] >> 63) != 0;
  const Limbs mag = neg ? wrapping_neg(v) : v;
  if (mag[2] != 0 || mag[3] != 0) throw std::logic_error("glv: half-scalar reached 2^128");
  return {(static_cast<u128>(mag[1]) << 64) | mag[0], neg};
}

}  // namespace

std::array<BigInt, 2> glv_lambda_candidates(const BigInt& r) {
  if ((r - 1) % 3 != 0) throw std::logic_error("glv: r must be 1 mod 3");
  const BigInt rexp = (r - 1) / 3;
  for (unsigned long i = 2;; ++i) {
    const BigInt lam = mod_pow(BigInt(i), rexp, r);
    if (lam != 1) {
      // lambda^2 + lambda + 1 == 0 (mod r) for a primitive cube root.
      const BigInt rel = (lam * lam + lam + 1) % r;
      if (rel != 0) throw std::logic_error("glv: lambda is not a primitive cube root");
      return std::array<BigInt, 2>{lam, (lam * lam) % r};
    }
  }
}

GlvLattice glv_lattice(const BigInt& lambda, const BigInt& r) {
  // Extended Euclid on (r, lambda) (GLV'01 §4): every row satisfies
  // s_i*r + t_i*lambda = rem_i, so (rem_i, -t_i) is a lattice vector. Stop
  // at the first remainder below sqrt(r); that row and the shorter of its
  // two neighbours give two independent short vectors.
  BigInt rem0 = r, rem1 = lambda;
  BigInt t0 = 0, t1 = 1;
  const BigInt sqrt_r = sqrt(r);
  while (rem1 >= sqrt_r) {
    const BigInt quot = rem0 / rem1;
    const BigInt rem2 = rem0 - quot * rem1;
    const BigInt t2 = t0 - quot * t1;
    rem0 = rem1;
    rem1 = rem2;
    t0 = t1;
    t1 = t2;
  }
  // rem1 < sqrt(r) <= rem0 here: v1 is the first short row; v2 is the
  // shorter of the preceding row and the next one.
  const BigInt quot = rem0 / rem1;
  const BigInt rem2 = rem0 - quot * rem1;
  const BigInt t2 = t0 - quot * t1;
  GlvLattice lat;
  lat.r = r;
  lat.a1 = rem1;
  lat.b1 = -t1;
  if (vec_norm2(rem0, t0) <= vec_norm2(rem2, t2)) {
    lat.a2 = rem0;
    lat.b2 = -t0;
  } else {
    lat.a2 = rem2;
    lat.b2 = -t2;
  }

  // Self-check: both vectors are in the lattice and span it (det == ±r).
  for (const auto& [a, b] : {std::pair{lat.a1, lat.b1}, std::pair{lat.a2, lat.b2}}) {
    BigInt residue = (a + b * lambda) % r;
    if (residue < 0) residue += r;
    if (residue != 0) throw std::logic_error("glv: basis vector not in the lattice");
  }
  const BigInt det = lat.a1 * lat.b2 - lat.a2 * lat.b1;
  if (det != r && det != -r) throw std::logic_error("glv: basis does not span the lattice");
  return lat;
}

GlvDecomposition glv_decompose_lattice(const BigInt& k, const GlvLattice& lat) {
  const BigInt& r = lat.r;
  BigInt kr = k % r;
  if (kr < 0) kr += r;
  // Babai rounding: solve (k, 0) = c1*v1 + c2*v2 over Q and round each
  // coefficient to the nearest integer. The residual (k1, k2) is the
  // distance to the nearest lattice point, so both components are bounded
  // by the basis norms (~sqrt(r)).
  const BigInt det = lat.a1 * lat.b2 - lat.a2 * lat.b1;  // == ±r, checked at init
  const BigInt c1 = round_div(kr * lat.b2, det);
  const BigInt c2 = round_div(-(kr * lat.b1), det);
  GlvDecomposition d;
  d.k1 = kr - c1 * lat.a1 - c2 * lat.a2;
  d.k2 = -(c1 * lat.b1 + c2 * lat.b2);
  return d;
}

GlvLimbLattice glv_limb_lattice(const GlvLattice& lat) {
  const BigInt det = lat.a1 * lat.b2 - lat.a2 * lat.b1;
  const BigInt g1 = round_div(lat.b2 << 256, det);
  const BigInt g2 = round_div(-(lat.b1 << 256), det);
  GlvLimbLattice out;
  out.a1 = limbs_mod_2_256(lat.a1);
  out.b1 = limbs_mod_2_256(lat.b1);
  out.a2 = limbs_mod_2_256(lat.a2);
  out.b2 = limbs_mod_2_256(lat.b2);
  out.g1 = limbs_mod_2_256(abs(g1));
  out.g2 = limbs_mod_2_256(abs(g2));
  out.g1_neg = g1 < 0;
  out.g2_neg = g2 < 0;
  return out;
}

GlvSplit glv_split_limbs(const Limbs& k, const GlvLimbLattice& lat) {
  Limbs c1 = mul_round_high(k, lat.g1);
  Limbs c2 = mul_round_high(k, lat.g2);
  if (lat.g1_neg) c1 = wrapping_neg(c1);
  if (lat.g2_neg) c2 = wrapping_neg(c2);
  // (k1, k2) = (k, 0) - c1*v1 - c2*v2, exact mod 2^256 and small in fact.
  const Limbs k1 =
      wrapping_sub(wrapping_sub(k, wrapping_mul(c1, lat.a1)), wrapping_mul(c2, lat.a2));
  const Limbs k2 = wrapping_neg(wrapping_add(wrapping_mul(c1, lat.b1), wrapping_mul(c2, lat.b2)));
  GlvSplit out;
  std::tie(out.k1, out.k1_neg) = to_half_scalar(k1);
  std::tie(out.k2, out.k2_neg) = to_half_scalar(k2);
  return out;
}

}  // namespace detail
}  // namespace zl
