#pragma once
// Baby Jubjub: a twisted Edwards curve defined over BN254's scalar field Fr,
// so its point arithmetic is natively expressible inside our SNARK circuits.
//
//   a x^2 + y^2 = 1 + d x^2 y^2,  a = 168700, d = 168696  (circom/EIP-2494)
//
// ZebraLancer's reward proof must establish `Aj = Dec(esk, Cj)` inside the
// circuit (paper §V-B); the task encryption keypair therefore lives on this
// curve (see DESIGN.md substitution T2): epk = esk * G with G the prime-order
// subgroup generator below.

#include "field/bn254.h"

namespace zl {

class JubjubPoint {
 public:
  Fr x, y;

  /// Identity element (0, 1).
  JubjubPoint() : x(Fr::zero()), y(Fr::one()) {}
  JubjubPoint(const Fr& px, const Fr& py) : x(px), y(py) {}

  static Fr param_a() { return Fr::from_u64(168700); }
  static Fr param_d() { return Fr::from_u64(168696); }

  /// Prime-subgroup order l (curve order = 8 * l).
  static const BigInt& subgroup_order() {
    static const BigInt l(
        "2736030358979909402780800718157159386076813972158567259200215660948447373041");
    return l;
  }

  /// Generator of the prime-order subgroup (circomlib's Base8).
  static JubjubPoint generator() {
    static const JubjubPoint g(
        Fr::from_decimal(
            "5299619240641551281634865583518297030282874472190772894086521144482721001553"),
        Fr::from_decimal(
            "16950150798460657717958625567821834550301663161624707787222815936182638968203"));
    return g;
  }

  static JubjubPoint identity() { return JubjubPoint(); }

  bool is_on_curve() const {
    const Fr x2 = x.squared(), y2 = y.squared();
    return param_a() * x2 + y2 == Fr::one() + param_d() * x2 * y2;
  }

  friend bool operator==(const JubjubPoint& p, const JubjubPoint& q) {
    return p.x == q.x && p.y == q.y;
  }
  friend bool operator!=(const JubjubPoint& p, const JubjubPoint& q) { return !(p == q); }

  /// Complete twisted Edwards addition (no special cases on this curve).
  JubjubPoint operator+(const JubjubPoint& q) const {
    const Fr x1x2 = x * q.x;
    const Fr y1y2 = y * q.y;
    const Fr dxy = param_d() * x1x2 * y1y2;
    const Fr x3 = (x * q.y + y * q.x) * (Fr::one() + dxy).inverse();
    const Fr y3 = (y1y2 - param_a() * x1x2) * (Fr::one() - dxy).inverse();
    return JubjubPoint(x3, y3);
  }

  JubjubPoint operator-() const { return JubjubPoint(-x, y); }
  JubjubPoint operator-(const JubjubPoint& q) const { return *this + (-q); }
  JubjubPoint& operator+=(const JubjubPoint& q) { return *this = *this + q; }

  JubjubPoint dbl() const { return *this + *this; }

  /// Scalar multiplication in extended homogeneous coordinates
  /// (X:Y:Z:T with x = X/Z, y = Y/Z, T = XY/Z — Hisil et al. 2008), which
  /// avoids the two field inversions per affine addition; one inversion at
  /// the end. Verified against the affine group law in tests.
  JubjubPoint operator*(const BigInt& scalar) const {
    ct::branch(scalar,
               "JubjubPoint::operator*: double-and-add is variable-time in the "
               "scalar — use mul_blinded for secret scalars");
    if (scalar < 0) return (-*this) * (-scalar);
    if (scalar == 0) return identity();

    struct Ext {
      Fr x, y, z, t;
    };
    const Fr a = param_a(), d = param_d();
    const auto ext_add = [&](const Ext& p, const Ext& q) -> Ext {
      const Fr A = p.x * q.x;
      const Fr B = p.y * q.y;
      const Fr C = d * p.t * q.t;
      const Fr D = p.z * q.z;
      const Fr E = (p.x + p.y) * (q.x + q.y) - A - B;
      const Fr F = D - C;
      const Fr G = D + C;
      const Fr H = B - a * A;
      return {E * F, G * H, F * G, E * H};
    };
    const auto ext_dbl = [&](const Ext& p) -> Ext {
      const Fr A = p.x.squared();
      const Fr B = p.y.squared();
      const Fr C = p.z.squared().dbl();
      const Fr D = a * A;
      const Fr E = (p.x + p.y).squared() - A - B;
      const Fr G = D + B;
      const Fr F = G - C;
      const Fr H = D - B;
      return {E * F, G * H, F * G, E * H};
    };

    const Ext base{x, y, Fr::one(), x * y};
    Ext acc{Fr::zero(), Fr::one(), Fr::one(), Fr::zero()};
    const std::size_t bits = mpz_sizeinbase(scalar.get_mpz_t(), 2);
    for (std::size_t i = bits; i-- > 0;) {
      acc = ext_dbl(acc);
      if (mpz_tstbit(scalar.get_mpz_t(), i)) acc = ext_add(acc, base);
    }
    const Fr zinv = acc.z.inverse();
    return JubjubPoint(acc.x * zinv, acc.y * zinv);
  }

  /// Scalar multiplication for *secret* scalars (the task decryption key):
  /// ladder on scalar + t * l for a fresh 64-bit t — same point, fresh
  /// add/no-add pattern every call. Only valid for points in the prime-order
  /// subgroup (which epk/ephemeral points are, by construction).
  JubjubPoint mul_blinded(const BigInt& scalar, Rng& rng) const {
    BigInt masked = scalar + subgroup_order() * BigInt(rng.next_u64());
    ct::declassify(masked);  // blinded: safe for the variable-time ladder
    return *this * masked;
  }

  Bytes to_bytes() const { return concat({x.to_bytes(), y.to_bytes()}); }

  static JubjubPoint from_bytes(const Bytes& bytes) {
    if (bytes.size() != 64) throw std::invalid_argument("JubjubPoint::from_bytes: need 64 bytes");
    ByteReader r(bytes, "JubjubPoint");
    const Bytes xb = r.take(32), yb = r.take(32);
    r.expect_end();
    JubjubPoint p(Fr::from_bytes(xb), Fr::from_bytes(yb));
    if (!p.is_on_curve()) throw std::invalid_argument("JubjubPoint::from_bytes: not on curve");
    return p;
  }
};

}  // namespace zl
