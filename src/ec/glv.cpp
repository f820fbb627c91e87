#include "ec/glv.h"

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

}  // namespace detail
}  // namespace zl
