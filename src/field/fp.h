#pragma once
// Fixed-width (256-bit, 4x64 limb) prime-field arithmetic in Montgomery form.
//
// This is the workhorse of the SNARK stack: BN254's base field Fq and scalar
// field Fr, and secp256k1's coordinate/order fields for the blockchain's
// ECDSA, are all instantiations of the `Fp<Params>` template below. All
// Montgomery constants (R mod p, R^2 mod p, -p^-1 mod 2^64) are derived from
// the modulus at compile time, so adding a new field is a 6-line Params
// struct.
//
// Representation invariant: limbs_ always holds aR mod p (Montgomery form),
// fully reduced into [0, p).

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/ct.h"
#include "crypto/bigint.h"
#include "crypto/bytes.h"
#include "crypto/rng.h"

// ZL_NATIVE (CMake option, off by default) selects the host-tuned limb
// kernels: the build adds -march=native and the Montgomery loops below
// switch to explicit mulx / add-with-carry intrinsic chains. Gated on the
// actual ISA macros so a ZL_NATIVE build on a host without BMI2/ADX
// silently keeps the portable path; the portable implementations stay
// compiled either way as bit-equality oracles (mul_portable/sqr_portable).
#if defined(ZL_NATIVE) && defined(__x86_64__) && defined(__BMI2__) && defined(__ADX__)
#define ZL_FP_NATIVE 1
#include <immintrin.h>
#endif

namespace zl {

using Limbs = std::array<std::uint64_t, 4>;

namespace detail {

/// Constant-time a >= b: run the full-width subtraction and inspect only the
/// final borrow — no early exit, no per-limb branching.
constexpr bool limbs_geq(const Limbs& a, const Limbs& b) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 d =
        static_cast<unsigned __int128>(a[i]) - b[i] - static_cast<std::uint64_t>(borrow);
    borrow = (d >> 64) & 1;
  }
  return borrow == 0;
}

/// a - b (mod 2^256), also reporting whether a borrow occurred.
constexpr Limbs limbs_sub(const Limbs& a, const Limbs& b, bool& borrow_out) {
  Limbs r{};
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 d =
        static_cast<unsigned __int128>(a[i]) - b[i] - static_cast<std::uint64_t>(borrow);
    r[i] = static_cast<std::uint64_t>(d);
    borrow = (d >> 64) & 1;
  }
  borrow_out = borrow != 0;
  return r;
}

/// select == 0 ? a : b, via a full-width mask instead of a branch. This is
/// the only conditional the field arithmetic below ever takes on live data.
constexpr Limbs limbs_select(const Limbs& a, const Limbs& b, std::uint64_t select) {
  const std::uint64_t mask = 0 - select;  // 0 or all-ones
  Limbs r{};
  for (int i = 0; i < 4; ++i) r[i] = (a[i] & ~mask) | (b[i] & mask);
  return r;
}

/// a + b (mod 2^256) with carry-out.
constexpr Limbs limbs_add(const Limbs& a, const Limbs& b, bool& carry_out) {
  Limbs r{};
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 s = static_cast<unsigned __int128>(a[i]) + b[i] + carry;
    r[i] = static_cast<std::uint64_t>(s);
    carry = s >> 64;
  }
  carry_out = carry != 0;
  return r;
}

/// 2x mod p, assuming x < p < 2^256.
constexpr Limbs limbs_double_mod(const Limbs& x, const Limbs& p) {
  bool carry = false;
  Limbs r = limbs_add(x, x, carry);
  if (carry || limbs_geq(r, p)) {
    bool borrow = false;
    r = limbs_sub(r, p, borrow);
  }
  return r;
}

/// R^2 mod p where R = 2^256: double 1 exactly 512 times.
constexpr Limbs compute_r2(const Limbs& p) {
  Limbs x{1, 0, 0, 0};
  for (int i = 0; i < 512; ++i) x = limbs_double_mod(x, p);
  return x;
}

/// R mod p.
constexpr Limbs compute_r(const Limbs& p) {
  Limbs x{1, 0, 0, 0};
  for (int i = 0; i < 256; ++i) x = limbs_double_mod(x, p);
  return x;
}

/// -p^-1 mod 2^64 via Newton iteration (p must be odd).
constexpr std::uint64_t compute_inv64(std::uint64_t p0) {
  std::uint64_t x = 1;
  for (int i = 0; i < 6; ++i) x *= 2 - p0 * x;  // x = p0^-1 mod 2^64
  return ~x + 1;                                // -x
}

/// Bit length of the modulus (position of its highest set bit + 1).
constexpr unsigned limbs_bit_length(const Limbs& p) {
  for (int i = 3; i >= 0; --i) {
    if (p[static_cast<std::size_t>(i)] == 0) continue;
    std::uint64_t v = p[static_cast<std::size_t>(i)];
    unsigned bits = 0;
    while (v != 0) {
      v >>= 1;
      ++bits;
    }
    return static_cast<unsigned>(i) * 64 + bits;
  }
  return 0;
}

}  // namespace detail

/// A prime field element in Montgomery form. `Params` must provide
/// `static constexpr Limbs kModulus` (little-endian limbs, odd, < 2^256)
/// and `static constexpr const char* kName`.
template <typename Params>
class Fp {
 public:
  static constexpr Limbs kModulus = Params::kModulus;
  static constexpr Limbs kR = detail::compute_r(Params::kModulus);
  static constexpr Limbs kR2 = detail::compute_r2(Params::kModulus);
  static constexpr std::uint64_t kInv64 = detail::compute_inv64(Params::kModulus[0]);
  /// Bit length of the modulus (254 for both BN254 fields) — the number of
  /// scalar bits a windowed multiexp actually has to cover.
  static constexpr unsigned kModulusBits = detail::limbs_bit_length(Params::kModulus);

  constexpr Fp() : limbs_{0, 0, 0, 0} {}

  static constexpr Fp zero() { return Fp(); }
  static constexpr Fp one() { return from_montgomery_raw(kR); }

  static Fp from_u64(std::uint64_t v) {
    Fp out;
    out.limbs_ = {v, 0, 0, 0};
    return out.mont_mul(from_montgomery_raw(kR2));
  }

  /// Parse a decimal string, reduced mod p.
  static Fp from_decimal(const std::string& s) { return from_bigint(bigint_from_decimal(s)); }

  static Fp from_bigint(const BigInt& v) {
    BigInt reduced = v % modulus_bigint();
    if (reduced < 0) reduced += modulus_bigint();
    Fp out;
    const Bytes bytes = bigint_to_bytes(reduced, 32);
    for (int i = 0; i < 4; ++i) {
      std::uint64_t limb = 0;
      for (int j = 0; j < 8; ++j) limb = (limb << 8) | bytes[static_cast<std::size_t>((3 - i) * 8 + j)];
      out.limbs_[i] = limb;
    }
    return out.mont_mul(from_montgomery_raw(kR2));
  }

  /// Interpret a byte string as a big-endian integer, reduced mod p.
  static Fp from_bytes_mod(const Bytes& bytes) { return from_bigint(bigint_from_bytes(bytes)); }

  /// Uniformly random field element.
  static Fp random(Rng& rng) {
    // 64 extra bits of rejection-free sampling keeps bias < 2^-64; we use
    // full rejection for exact uniformity instead (cheap at this size).
    for (;;) {
      Bytes buf = rng.bytes(32);
      Limbs candidate{};
      for (int i = 0; i < 4; ++i) {
        std::uint64_t limb = 0;
        for (int j = 0; j < 8; ++j) limb = (limb << 8) | buf[static_cast<std::size_t>((3 - i) * 8 + j)];
        candidate[i] = limb;
      }
      if (!detail::limbs_geq(candidate, kModulus)) {
        Fp out;
        out.limbs_ = candidate;
        return out.mont_mul(from_montgomery_raw(kR2));
      }
    }
  }

  static const BigInt& modulus_bigint() {
    static const BigInt m = [] {
      BigInt v = 0;
      for (int i = 3; i >= 0; --i) {
        v <<= 64;
        v += BigInt(static_cast<unsigned long>(kModulus[i] >> 32)) << 32 |
             BigInt(static_cast<unsigned long>(kModulus[i] & 0xffffffffULL));
      }
      return v;
    }();
    return m;
  }

  BigInt to_bigint() const {
    const Limbs canonical = to_canonical();
    BigInt v = 0;
    for (int i = 3; i >= 0; --i) {
      v <<= 64;
      v += BigInt(static_cast<unsigned long>(canonical[i] >> 32)) << 32 |
           BigInt(static_cast<unsigned long>(canonical[i] & 0xffffffffULL));
    }
    return v;
  }

  /// Canonical big-endian 32-byte encoding.
  Bytes to_bytes() const {
    const Limbs canonical = to_canonical();
    Bytes out(32);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 8; ++j) {
        out[static_cast<std::size_t>((3 - i) * 8 + j)] =
            static_cast<std::uint8_t>(canonical[i] >> (56 - 8 * j));
      }
    }
    return out;
  }

  /// Parse a canonical 32-byte encoding; throws if not reduced.
  static Fp from_bytes(const Bytes& bytes) {
    if (bytes.size() != 32) throw std::invalid_argument("Fp::from_bytes: need 32 bytes");
    Limbs candidate{};
    for (int i = 0; i < 4; ++i) {
      std::uint64_t limb = 0;
      for (int j = 0; j < 8; ++j) limb = (limb << 8) | bytes[static_cast<std::size_t>((3 - i) * 8 + j)];
      candidate[i] = limb;
    }
    if (detail::limbs_geq(candidate, kModulus)) {
      throw std::invalid_argument("Fp::from_bytes: non-canonical encoding");
    }
    Fp out;
    out.limbs_ = candidate;
    return out.mont_mul(from_montgomery_raw(kR2));
  }

  /// Equality inspects the representation, i.e. it *decides* on the value;
  /// under the CT harness comparing a tainted element is a violation (the
  /// caller must declassify first — e.g. rejection sampling, public outputs).
  bool is_zero() const {
    ZL_CT_GUARD1(limbs_, "Fp::is_zero");
    return limbs_ == Limbs{0, 0, 0, 0};
  }

  friend bool operator==(const Fp& a, const Fp& b) {
    ZL_CT_GUARD2(a.limbs_, b.limbs_, "Fp::operator==");
    return a.limbs_ == b.limbs_;
  }
  friend bool operator!=(const Fp& a, const Fp& b) { return !(a == b); }

  Fp operator+(const Fp& rhs) const {
    bool carry = false;
    const Limbs sum = detail::limbs_add(limbs_, rhs.limbs_, carry);
    bool borrow = false;
    const Limbs reduced = detail::limbs_sub(sum, kModulus, borrow);
    // Reduce iff the add overflowed 2^256 or reached p. Both inputs are < p,
    // so on overflow the wrapped subtraction still equals sum - p exactly.
    // Selected by mask, not branch: operand-dependent control flow here would
    // leak every secret that ever flows through the field.
    const std::uint64_t need =
        static_cast<std::uint64_t>(carry) | (static_cast<std::uint64_t>(borrow) ^ 1);
    Fp out;
    out.limbs_ = detail::limbs_select(sum, reduced, need);
    ZL_CT_PROP2(out.limbs_, limbs_, rhs.limbs_);
    return out;
  }

  Fp operator-(const Fp& rhs) const {
    bool borrow = false;
    const Limbs diff = detail::limbs_sub(limbs_, rhs.limbs_, borrow);
    bool carry = false;
    const Limbs wrapped = detail::limbs_add(diff, kModulus, carry);
    Fp out;
    out.limbs_ = detail::limbs_select(diff, wrapped, static_cast<std::uint64_t>(borrow));
    ZL_CT_PROP2(out.limbs_, limbs_, rhs.limbs_);
    return out;
  }

  Fp operator-() const { return zero() - *this; }

  Fp operator*(const Fp& rhs) const { return mont_mul(rhs); }

  Fp& operator+=(const Fp& rhs) { return *this = *this + rhs; }
  Fp& operator-=(const Fp& rhs) { return *this = *this - rhs; }
  Fp& operator*=(const Fp& rhs) { return *this = *this * rhs; }

  /// Dedicated Montgomery squaring (~25% fewer 64x64 multiplies than
  /// mont_mul(*this); bit-identical result — tests pin it).
  Fp squared() const { return mont_sqr(); }

  /// Portable-reference oracle entry points. These always run the generic
  /// __int128 kernels, so a ZL_NATIVE build can pin its mulx/adcx paths
  /// against them bit-for-bit (tests/test_field.cpp, check_all.sh kernels
  /// leg). In a portable build they are the production kernels themselves.
  Fp mul_portable(const Fp& rhs) const { return mont_mul_generic(rhs); }
  Fp sqr_portable() const { return mont_sqr_generic(); }

  Fp dbl() const { return *this + *this; }

  /// x/2 mod p (p odd). In Montgomery form halving commutes with the
  /// representation: (aR)/2 mod p represents a/2. Used by the pairing
  /// engine's projective G2 line formulas.
  Fp halve() const {
    // Conditionally add p (masked, branch-free) when the value is odd, then
    // shift right; the carry out of the masked add supplies the top bit.
    const std::uint64_t odd = limbs_[0] & 1;
    const Limbs masked_p = detail::limbs_select(Limbs{0, 0, 0, 0}, kModulus, odd);
    bool carry = false;
    Limbs r = detail::limbs_add(limbs_, masked_p, carry);
    const std::uint64_t top = static_cast<std::uint64_t>(carry);
    for (int i = 0; i < 3; ++i) r[i] = (r[i] >> 1) | (r[i + 1] << 63);
    r[3] = (r[3] >> 1) | (top << 63);
    Fp out;
    out.limbs_ = r;
    ZL_CT_PROP1(out.limbs_, limbs_);
    return out;
  }

  /// Exponentiation by an arbitrary non-negative big integer. The bit scan
  /// is variable-time in `e`: exponents here are public (modulus-derived
  /// constants, verifier challenges), and the guard enforces that.
  Fp pow(const BigInt& e) const {
    ct::branch(e, "Fp::pow: square-and-multiply is variable-time in the exponent");
    if (e < 0) throw std::invalid_argument("Fp::pow: negative exponent");
    Fp base = *this;
    Fp acc = one();
    const std::size_t bits = mpz_sizeinbase(e.get_mpz_t(), 2);
    if (e == 0) return acc;
    for (std::size_t i = 0; i < bits; ++i) {
      if (mpz_tstbit(e.get_mpz_t(), i)) acc *= base;
      base = base.squared();
    }
    return acc;
  }

  /// Multiplicative inverse via Fermat (p prime). Throws on zero.
  Fp inverse() const {
    if (is_zero()) throw std::domain_error("Fp::inverse: zero");
    return pow(modulus_bigint() - 2);
  }

  /// Wipe the element in place (secret-key destructors route through this;
  /// zl-lint's secret-zeroize rule checks for it).
  void zeroize() {
    secure_zero(&limbs_, sizeof(limbs_));
    ct::unpoison(&limbs_, sizeof(limbs_));
  }

  /// Canonical (non-Montgomery) little-endian limbs in [0, p). This is the
  /// fast path for scalar-digit extraction in windowed multiexp.
  Limbs to_limbs() const { return to_canonical(); }

 private:
  static constexpr Fp from_montgomery_raw(const Limbs& limbs) {
    Fp out;
    out.limbs_ = limbs;
    return out;
  }

  /// Montgomery multiplication dispatch: (this * rhs * R^-1) mod p.
  Fp mont_mul(const Fp& rhs) const {
#if defined(ZL_FP_NATIVE)
    return mont_mul_native(rhs);
#else
    return mont_mul_generic(rhs);
#endif
  }

  /// Montgomery squaring dispatch: (this^2 * R^-1) mod p.
  Fp mont_sqr() const {
#if defined(ZL_FP_NATIVE)
    return mont_sqr_native();
#else
    return mont_sqr_generic();
#endif
  }

  /// Product-scanning Montgomery reduction of a full 512-bit product r:
  /// columns 0..3 emit m_i = (column low word) * (-p^-1 mod 2^64) and absorb
  /// the m_j * p terms (their low words cancel to zero by construction of
  /// m); columns 4..7 produce the output words. The quotient satisfies
  /// (r + m*p) / 2^256 < 2p for r < p^2 + small, with the overflow bit
  /// landing past the top output word, so one mask-selected conditional
  /// subtraction canonicalizes. All carry chains are fixed-length: no
  /// operand-dependent control flow.
  static Fp mont_reduce_wide_generic(const std::uint64_t r[8]) {
    using u128 = unsigned __int128;
    const Limbs& p = kModulus;
    u128 acc = 0;            // low 128 bits of the current column window
    std::uint64_t ovf = 0;   // bits 128+ of the column window
    const auto add = [&](u128 v) {
      acc += v;
      ovf += static_cast<std::uint64_t>(acc < v);
    };
    const auto shift = [&](std::uint64_t& dst) {
      dst = static_cast<std::uint64_t>(acc);
      acc = (acc >> 64) | (static_cast<u128>(ovf) << 64);
      ovf = 0;
    };
    std::uint64_t m[4], out_w[4], discard;
    acc = r[0];
    m[0] = static_cast<std::uint64_t>(acc) * kInv64;
    add(static_cast<u128>(m[0]) * p[0]);
    shift(discard);
    add(r[1]);
    add(static_cast<u128>(m[0]) * p[1]);
    m[1] = static_cast<std::uint64_t>(acc) * kInv64;
    add(static_cast<u128>(m[1]) * p[0]);
    shift(discard);
    add(r[2]);
    add(static_cast<u128>(m[0]) * p[2]);
    add(static_cast<u128>(m[1]) * p[1]);
    m[2] = static_cast<std::uint64_t>(acc) * kInv64;
    add(static_cast<u128>(m[2]) * p[0]);
    shift(discard);
    add(r[3]);
    add(static_cast<u128>(m[0]) * p[3]);
    add(static_cast<u128>(m[1]) * p[2]);
    add(static_cast<u128>(m[2]) * p[1]);
    m[3] = static_cast<std::uint64_t>(acc) * kInv64;
    add(static_cast<u128>(m[3]) * p[0]);
    shift(discard);
    add(r[4]);
    add(static_cast<u128>(m[1]) * p[3]);
    add(static_cast<u128>(m[2]) * p[2]);
    add(static_cast<u128>(m[3]) * p[1]);
    shift(out_w[0]);
    add(r[5]);
    add(static_cast<u128>(m[2]) * p[3]);
    add(static_cast<u128>(m[3]) * p[2]);
    shift(out_w[1]);
    add(r[6]);
    add(static_cast<u128>(m[3]) * p[3]);
    shift(out_w[2]);
    add(r[7]);
    shift(out_w[3]);
    const std::uint64_t extra = static_cast<std::uint64_t>(acc);
    (void)discard;

    const Limbs res{out_w[0], out_w[1], out_w[2], out_w[3]};
    bool borrow = false;
    const Limbs reduced = detail::limbs_sub(res, kModulus, borrow);
    const std::uint64_t need = static_cast<std::uint64_t>(extra != 0) |
                               (static_cast<std::uint64_t>(borrow) ^ 1);
    Fp out;
    out.limbs_ = detail::limbs_select(res, reduced, need);
    return out;
  }

  /// Montgomery multiplication via product scanning (Comba): column k of the
  /// full 512-bit product sums a[i]*b[j] over i + j = k inside a 128-bit
  /// accumulator window (plus a one-word overflow), then the shared
  /// product-scanning reduction canonicalizes. Returns
  /// (this * rhs * R^-1) mod p, bit-identical to the former CIOS kernel.
  Fp mont_mul_generic(const Fp& rhs) const {
    using u128 = unsigned __int128;
    const Limbs& a = limbs_;
    const Limbs& b = rhs.limbs_;
    u128 acc = 0;
    std::uint64_t ovf = 0;
    const auto add = [&](u128 v) {
      acc += v;
      ovf += static_cast<std::uint64_t>(acc < v);
    };
    const auto shift = [&](std::uint64_t& dst) {
      dst = static_cast<std::uint64_t>(acc);
      acc = (acc >> 64) | (static_cast<u128>(ovf) << 64);
      ovf = 0;
    };
    std::uint64_t r[8];
    add(static_cast<u128>(a[0]) * b[0]);
    shift(r[0]);
    add(static_cast<u128>(a[0]) * b[1]);
    add(static_cast<u128>(a[1]) * b[0]);
    shift(r[1]);
    add(static_cast<u128>(a[0]) * b[2]);
    add(static_cast<u128>(a[1]) * b[1]);
    add(static_cast<u128>(a[2]) * b[0]);
    shift(r[2]);
    add(static_cast<u128>(a[0]) * b[3]);
    add(static_cast<u128>(a[1]) * b[2]);
    add(static_cast<u128>(a[2]) * b[1]);
    add(static_cast<u128>(a[3]) * b[0]);
    shift(r[3]);
    add(static_cast<u128>(a[1]) * b[3]);
    add(static_cast<u128>(a[2]) * b[2]);
    add(static_cast<u128>(a[3]) * b[1]);
    shift(r[4]);
    add(static_cast<u128>(a[2]) * b[3]);
    add(static_cast<u128>(a[3]) * b[2]);
    shift(r[5]);
    add(static_cast<u128>(a[3]) * b[3]);
    shift(r[6]);
    r[7] = static_cast<std::uint64_t>(acc);

    Fp out = mont_reduce_wide_generic(r);
    ZL_CT_PROP2(out.limbs_, limbs_, rhs.limbs_);
    return out;
  }

  /// Dedicated Montgomery squaring via product scanning (Comba): column k of
  /// the full 512-bit square sums the cross products a[i]*a[j] (i + j = k,
  /// i < j) twice plus the diagonal a[k/2]^2 — 10 wide multiplies where
  /// mont_mul's product phase needs 16 — then the shared product-scanning
  /// reduction canonicalizes. The result is bit-identical to
  /// mont_mul(*this).
  Fp mont_sqr_generic() const {
    using u128 = unsigned __int128;
    const Limbs& a = limbs_;
    u128 acc = 0;            // low 128 bits of the current column window
    std::uint64_t ovf = 0;   // bits 128+ of the column window
    const auto add = [&](u128 v) {
      acc += v;
      ovf += static_cast<std::uint64_t>(acc < v);
    };
    const auto shift = [&](std::uint64_t& dst) {
      dst = static_cast<std::uint64_t>(acc);
      acc = (acc >> 64) | (static_cast<u128>(ovf) << 64);
      ovf = 0;
    };

    // --- Comba square: r = a^2 (512 bits). Cross products counted twice.
    std::uint64_t r[8];
    add(static_cast<u128>(a[0]) * a[0]);
    shift(r[0]);
    {
      const u128 q = static_cast<u128>(a[0]) * a[1];
      add(q);
      add(q);
    }
    shift(r[1]);
    {
      const u128 q = static_cast<u128>(a[0]) * a[2];
      add(q);
      add(q);
      add(static_cast<u128>(a[1]) * a[1]);
    }
    shift(r[2]);
    {
      const u128 q0 = static_cast<u128>(a[0]) * a[3];
      const u128 q1 = static_cast<u128>(a[1]) * a[2];
      add(q0);
      add(q0);
      add(q1);
      add(q1);
    }
    shift(r[3]);
    {
      const u128 q = static_cast<u128>(a[1]) * a[3];
      add(q);
      add(q);
      add(static_cast<u128>(a[2]) * a[2]);
    }
    shift(r[4]);
    {
      const u128 q = static_cast<u128>(a[2]) * a[3];
      add(q);
      add(q);
    }
    shift(r[5]);
    add(static_cast<u128>(a[3]) * a[3]);
    shift(r[6]);
    r[7] = static_cast<std::uint64_t>(acc);  // a^2 < 2^508: top column is one word

    Fp out = mont_reduce_wide_generic(r);
    ZL_CT_PROP1(out.limbs_, limbs_);
    return out;
  }

#if defined(ZL_FP_NATIVE)
  /// CIOS with explicit mulx / add-with-carry intrinsic chains. Same round
  /// structure as mont_mul_generic (so the same <2p bound and final
  /// conditional subtraction apply); the intrinsics pin the two-result
  /// multiply and the carry flag that the __int128 formulation leaves to
  /// the optimizer. Bit-identical to the portable kernel by construction.
  Fp mont_mul_native(const Fp& rhs) const {
    const Limbs& a = limbs_;
    const Limbs& b = rhs.limbs_;
    unsigned long long t[6] = {0, 0, 0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
      // t += a[i] * b
      unsigned long long carry = 0;
      for (int j = 0; j < 4; ++j) {
        unsigned long long hi;
        unsigned long long lo = _mulx_u64(a[i], b[j], &hi);
        unsigned char cf = _addcarry_u64(0, lo, carry, &lo);
        hi += cf;  // hi <= 2^64 - 2, cannot overflow
        cf = _addcarry_u64(0, t[j], lo, &t[j]);
        carry = hi + cf;
      }
      unsigned char cf = _addcarry_u64(0, t[4], carry, &t[4]);
      t[5] += cf;

      // m = t[0] * (-p^-1) mod 2^64; t = (t + m*p) / 2^64
      const unsigned long long m = t[0] * kInv64;
      unsigned long long hi0;
      unsigned long long lo0 = _mulx_u64(m, kModulus[0], &hi0);
      unsigned char cf0 = _addcarry_u64(0, t[0], lo0, &lo0);
      carry = hi0 + cf0;
      for (int j = 1; j < 4; ++j) {
        unsigned long long hi;
        unsigned long long lo = _mulx_u64(m, kModulus[j], &hi);
        unsigned char cf2 = _addcarry_u64(0, lo, carry, &lo);
        hi += cf2;
        cf2 = _addcarry_u64(0, t[j], lo, &t[j - 1]);
        carry = hi + cf2;
      }
      cf = _addcarry_u64(0, t[4], carry, &t[3]);
      t[4] = t[5] + cf;
      t[5] = 0;
    }

    const Limbs r{t[0], t[1], t[2], t[3]};
    bool borrow = false;
    const Limbs reduced = detail::limbs_sub(r, kModulus, borrow);
    const std::uint64_t need = static_cast<std::uint64_t>(t[4] != 0) |
                               (static_cast<std::uint64_t>(borrow) ^ 1);
    Fp out;
    out.limbs_ = detail::limbs_select(r, reduced, need);
    ZL_CT_PROP2(out.limbs_, limbs_, rhs.limbs_);
    return out;
  }

  /// Native squaring: the same Comba product-scanning structure as the
  /// generic path, with the 192-bit column accumulator held in three words
  /// and fed by mulx / add-with-carry chains. Bit-identical to the portable
  /// kernel by construction.
  Fp mont_sqr_native() const {
    const Limbs& a = limbs_;
    const Limbs& p = kModulus;
    unsigned long long c0 = 0, c1 = 0, c2 = 0;  // column window, low to high
    const auto add_prod = [&](unsigned long long x, unsigned long long y) {
      unsigned long long hi;
      unsigned long long lo = _mulx_u64(x, y, &hi);
      unsigned char cf = _addcarry_u64(0, c0, lo, &c0);
      cf = _addcarry_u64(cf, c1, hi, &c1);
      c2 += cf;
    };
    const auto add_word = [&](unsigned long long w) {
      unsigned char cf = _addcarry_u64(0, c0, w, &c0);
      cf = _addcarry_u64(cf, c1, 0, &c1);
      c2 += cf;
    };
    const auto shift = [&](unsigned long long& dst) {
      dst = c0;
      c0 = c1;
      c1 = c2;
      c2 = 0;
    };

    unsigned long long r[8];
    add_prod(a[0], a[0]);
    shift(r[0]);
    add_prod(a[0], a[1]);
    add_prod(a[0], a[1]);
    shift(r[1]);
    add_prod(a[0], a[2]);
    add_prod(a[0], a[2]);
    add_prod(a[1], a[1]);
    shift(r[2]);
    add_prod(a[0], a[3]);
    add_prod(a[0], a[3]);
    add_prod(a[1], a[2]);
    add_prod(a[1], a[2]);
    shift(r[3]);
    add_prod(a[1], a[3]);
    add_prod(a[1], a[3]);
    add_prod(a[2], a[2]);
    shift(r[4]);
    add_prod(a[2], a[3]);
    add_prod(a[2], a[3]);
    shift(r[5]);
    add_prod(a[3], a[3]);
    shift(r[6]);
    r[7] = c0;  // a^2 < 2^508: top column is one word
    c0 = c1 = c2 = 0;

    unsigned long long m[4], out_w[4], discard;
    c0 = r[0];
    m[0] = c0 * kInv64;
    add_prod(m[0], p[0]);
    shift(discard);
    add_word(r[1]);
    add_prod(m[0], p[1]);
    m[1] = c0 * kInv64;
    add_prod(m[1], p[0]);
    shift(discard);
    add_word(r[2]);
    add_prod(m[0], p[2]);
    add_prod(m[1], p[1]);
    m[2] = c0 * kInv64;
    add_prod(m[2], p[0]);
    shift(discard);
    add_word(r[3]);
    add_prod(m[0], p[3]);
    add_prod(m[1], p[2]);
    add_prod(m[2], p[1]);
    m[3] = c0 * kInv64;
    add_prod(m[3], p[0]);
    shift(discard);
    add_word(r[4]);
    add_prod(m[1], p[3]);
    add_prod(m[2], p[2]);
    add_prod(m[3], p[1]);
    shift(out_w[0]);
    add_word(r[5]);
    add_prod(m[2], p[3]);
    add_prod(m[3], p[2]);
    shift(out_w[1]);
    add_word(r[6]);
    add_prod(m[3], p[3]);
    shift(out_w[2]);
    add_word(r[7]);
    shift(out_w[3]);
    const unsigned long long extra = c0;
    (void)discard;

    const Limbs res{out_w[0], out_w[1], out_w[2], out_w[3]};
    bool borrow = false;
    const Limbs reduced = detail::limbs_sub(res, kModulus, borrow);
    const std::uint64_t need = static_cast<std::uint64_t>(extra != 0) |
                               (static_cast<std::uint64_t>(borrow) ^ 1);
    Fp out;
    out.limbs_ = detail::limbs_select(res, reduced, need);
    ZL_CT_PROP1(out.limbs_, limbs_);
    return out;
  }
#endif  // ZL_FP_NATIVE

  Limbs to_canonical() const {
    // Multiply by 1 (non-Montgomery) to strip the R factor.
    Fp unit;
    unit.limbs_ = {1, 0, 0, 0};
    return mont_mul(unit).limbs_;
  }

  Limbs limbs_;
};

}  // namespace zl
