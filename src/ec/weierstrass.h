#pragma once
// Short Weierstrass curves y^2 = x^3 + b (a = 0) in Jacobian coordinates,
// generic over the coordinate field. Instantiated three times:
//   - BN254 G1 over Fq          (b = 3)
//   - BN254 G2 over Fq2         (b = 3/xi, the sextic twist)
//   - secp256k1 over its field  (b = 7, used by the blockchain's ECDSA)
//
// `Params` supplies: `using Field`, `static Field b()`, `static Field gen_x()`,
// `static Field gen_y()`, `static const BigInt& order()` (prime subgroup
// order), and `kName`.

#include <stdexcept>
#include <vector>

#include "crypto/bigint.h"

namespace zl {

template <typename Params>
class WeierstrassPoint {
 public:
  using Field = typename Params::Field;

  /// Point at infinity.
  WeierstrassPoint() : x_(Field::one()), y_(Field::one()), z_(Field::zero()) {}

  static WeierstrassPoint infinity() { return WeierstrassPoint(); }

  static WeierstrassPoint generator() {
    return from_affine(Params::gen_x(), Params::gen_y());
  }

  /// Prime subgroup order.
  static const BigInt& order() { return Params::order(); }

  static WeierstrassPoint from_affine(const Field& x, const Field& y) {
    WeierstrassPoint p;
    p.x_ = x;
    p.y_ = y;
    p.z_ = Field::one();
    if (!p.is_on_curve()) throw std::invalid_argument("WeierstrassPoint: not on curve");
    return p;
  }

  bool is_infinity() const { return z_.is_zero(); }

  /// Like from_affine but skips the curve-membership check; for internal
  /// fast paths whose inputs are already-validated group elements (bucket
  /// representatives out of normalize(), precomputed tables).
  static WeierstrassPoint from_affine_unchecked(const Field& x, const Field& y) {
    WeierstrassPoint p;
    p.x_ = x;
    p.y_ = y;
    p.z_ = Field::one();
    return p;
  }

  /// Affine coordinates; throws for the point at infinity.
  std::pair<Field, Field> to_affine() const {
    if (is_infinity()) throw std::domain_error("to_affine: point at infinity");
    const Field zinv = z_.inverse();
    const Field zinv2 = zinv.squared();
    return {x_ * zinv2, y_ * zinv2 * zinv};
  }

  /// Affine representation with an explicit infinity flag: the total
  /// counterpart of to_affine(), and the element type of the batch-affine
  /// multiexp buckets (ec/multiexp.h).
  struct Affine {
    Field x{};
    Field y{};
    bool infinity = true;

    Affine negated() const { return infinity ? Affine{} : Affine{x, -y, false}; }
  };

  /// Total affine conversion — infinity maps to the flagged representative
  /// instead of throwing, so callers need no special case.
  Affine to_affine_checked() const {
    if (is_infinity()) return Affine{};
    const auto [x, y] = to_affine();
    return Affine{x, y, false};
  }

  static WeierstrassPoint from_affine_point(const Affine& a) {
    return a.infinity ? infinity() : from_affine(a.x, a.y);
  }

  /// Assembles a point from raw Jacobian coordinates without validation; for
  /// internal maps that provably preserve curve membership (the GLV
  /// endomorphism (X, Y, Z) -> (beta X, Y, Z)).
  static WeierstrassPoint from_jacobian_unchecked(const Field& x, const Field& y, const Field& z) {
    WeierstrassPoint p;
    p.x_ = x;
    p.y_ = y;
    p.z_ = z;
    return p;
  }

  /// Batch-normalizes `points` with a single field inversion (Montgomery's
  /// trick over the Z coordinates; infinities pass through flagged). The
  /// workhorse of the batch-affine multiexp: thousands of points share one
  /// inverse() instead of paying one each.
  static std::vector<Affine> normalize(const std::vector<WeierstrassPoint>& points) {
    return normalize(points, [](const Field& f) { return f.inverse(); });
  }

  /// normalize() with the one inversion supplied by the caller: callers
  /// whose points are public may pass a faster variable-time inverse.
  template <typename Invert>
  static std::vector<Affine> normalize(const std::vector<WeierstrassPoint>& points,
                                       Invert&& invert) {
    std::vector<Affine> out(points.size());
    std::vector<Field> zs;
    zs.reserve(points.size());
    for (const WeierstrassPoint& p : points) {
      if (!p.is_infinity()) zs.push_back(p.z_);
    }
    if (!zs.empty()) {
      // Prefix products, one inversion, then a backward sweep replaces
      // zs[i] by zs[i]^-1.
      std::vector<Field> prefix(zs.size());
      Field acc = Field::one();
      for (std::size_t i = 0; i < zs.size(); ++i) {
        prefix[i] = acc;
        acc *= zs[i];
      }
      Field inv = invert(acc);
      for (std::size_t i = zs.size(); i-- > 0;) {
        const Field zi = inv * prefix[i];
        inv *= zs[i];
        zs[i] = zi;
      }
    }
    std::size_t k = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].is_infinity()) continue;
      const Field& zinv = zs[k++];
      const Field zinv2 = zinv.squared();
      out[i] = Affine{points[i].x_ * zinv2, points[i].y_ * zinv2 * zinv, false};
    }
    return out;
  }

  /// Mixed addition: Jacobian + affine (madd-2007-bl, a = 0). ~40% cheaper
  /// than the full Jacobian add when one operand is already affine (bucket
  /// merges, precomputed tables).
  WeierstrassPoint add_mixed(const Affine& q) const {
    if (q.infinity) return *this;
    if (is_infinity()) return from_affine_unchecked(q.x, q.y);
    const Field z1z1 = z_.squared();
    const Field u2 = q.x * z1z1;
    const Field s2 = q.y * z_ * z1z1;
    if (x_ == u2) {
      if (y_ == s2) return dbl();
      return infinity();
    }
    const Field h = u2 - x_;
    const Field hh = h.squared();
    const Field i = hh.dbl().dbl();
    const Field j = h * i;
    const Field rr = (s2 - y_).dbl();
    const Field v = x_ * i;
    WeierstrassPoint r;
    r.x_ = rr.squared() - j - v.dbl();
    r.y_ = rr * (v - r.x_) - (y_ * j).dbl();
    r.z_ = (z_ + h).squared() - z1z1 - hh;
    return r;
  }

  bool is_on_curve() const {
    if (is_infinity()) return true;
    // Y^2 = X^3 + b Z^6 in Jacobian coordinates.
    const Field z2 = z_.squared();
    const Field z6 = z2.squared() * z2;
    return y_.squared() == x_.squared() * x_ + Params::b() * z6;
  }

  /// Whether r * P == O for the prime subgroup order r.
  bool in_prime_subgroup() const { return (*this * Params::order()).is_infinity(); }

  friend bool operator==(const WeierstrassPoint& p, const WeierstrassPoint& q) {
    if (p.is_infinity() || q.is_infinity()) return p.is_infinity() == q.is_infinity();
    // Compare X/Z^2 and Y/Z^3 without inversions.
    const Field pz2 = p.z_.squared(), qz2 = q.z_.squared();
    if (p.x_ * qz2 != q.x_ * pz2) return false;
    return p.y_ * qz2 * q.z_ == q.y_ * pz2 * p.z_;
  }
  friend bool operator!=(const WeierstrassPoint& p, const WeierstrassPoint& q) {
    return !(p == q);
  }

  WeierstrassPoint operator-() const {
    WeierstrassPoint r = *this;
    r.y_ = -r.y_;
    return r;
  }

  WeierstrassPoint dbl() const {
    if (is_infinity() || y_.is_zero()) return infinity();
    // dbl-2009-l (a = 0)
    const Field a = x_.squared();
    const Field b = y_.squared();
    const Field c = b.squared();
    Field d = (x_ + b).squared() - a - c;
    d = d + d;
    const Field e = a + a + a;
    const Field f = e.squared();
    WeierstrassPoint r;
    r.x_ = f - (d + d);
    const Field c8 = c.dbl().dbl().dbl();
    r.y_ = e * (d - r.x_) - c8;
    r.z_ = (y_ * z_).dbl();
    return r;
  }

  WeierstrassPoint operator+(const WeierstrassPoint& q) const {
    if (is_infinity()) return q;
    if (q.is_infinity()) return *this;
    // add-2007-bl
    const Field z1z1 = z_.squared();
    const Field z2z2 = q.z_.squared();
    const Field u1 = x_ * z2z2;
    const Field u2 = q.x_ * z1z1;
    const Field s1 = y_ * q.z_ * z2z2;
    const Field s2 = q.y_ * z_ * z1z1;
    if (u1 == u2) {
      if (s1 == s2) return dbl();
      return infinity();
    }
    const Field h = u2 - u1;
    const Field i = h.dbl().squared();
    const Field j = h * i;
    const Field rr = (s2 - s1).dbl();
    const Field v = u1 * i;
    WeierstrassPoint r;
    r.x_ = rr.squared() - j - v.dbl();
    r.y_ = rr * (v - r.x_) - (s1 * j).dbl();
    r.z_ = ((z_ + q.z_).squared() - z1z1 - z2z2) * h;
    return r;
  }

  WeierstrassPoint operator-(const WeierstrassPoint& q) const { return *this + (-q); }
  WeierstrassPoint& operator+=(const WeierstrassPoint& q) { return *this = *this + q; }

  /// Scalar multiplication (double-and-add, MSB first). Variable-time in the
  /// scalar — the add/no-add pattern is the scalar's bit string — so the CT
  /// harness rejects tainted scalars; use mul_blinded for secrets.
  WeierstrassPoint operator*(const BigInt& scalar) const {
    ct::branch(scalar,
               "WeierstrassPoint::operator*: double-and-add is variable-time in the "
               "scalar — use mul_blinded for secret scalars");
    if (scalar < 0) return (-*this) * (-scalar);
    WeierstrassPoint acc = infinity();
    if (scalar == 0 || is_infinity()) return acc;
    const std::size_t bits = mpz_sizeinbase(scalar.get_mpz_t(), 2);
    for (std::size_t i = bits; i-- > 0;) {
      acc = acc.dbl();
      if (mpz_tstbit(scalar.get_mpz_t(), i)) acc += *this;
    }
    return acc;
  }

  /// Scalar multiplication for *secret* scalars: the ladder runs on
  /// scalar + t * order for a fresh 64-bit t, so the executed add/no-add
  /// pattern is decorrelated from the secret on every call while the result
  /// is unchanged (order * P = O on the prime subgroup).
  WeierstrassPoint mul_blinded(const BigInt& scalar, Rng& rng) const {
    BigInt masked = scalar + Params::order() * BigInt(rng.next_u64());
    ct::declassify(masked);  // blinded: safe for the variable-time ladder
    return *this * masked;
  }

  const Field& jacobian_x() const { return x_; }
  const Field& jacobian_y() const { return y_; }
  const Field& jacobian_z() const { return z_; }

 private:
  Field x_, y_, z_;
};

}  // namespace zl
