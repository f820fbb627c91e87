#include "ec/ecdsa.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#include "ec/glv.h"

namespace zl {

namespace {

const BigInt& curve_order() { return SecpPoint::order(); }

using Affine = SecpPoint::Affine;

// wNAF widths of the verification engine (DESIGN.md §16). G's table is built
// once per process, so it affords a wide window: 2^(8-2) = 64 odd multiples
// of G plus their 64 endomorphism images, ~9 KiB. Q changes every call, so
// its window balances the table build (2^(5-2) = 8 odd multiples, one batch
// inversion) against the ~128/(5+1) additions per half-scalar it saves.
constexpr int kGWindow = 8;
constexpr int kQWindow = 5;

/// Variable-time inverse (GMP's extended Euclid, ~1/8 the cost of the
/// Fermat chain in SecpFp::inverse). Public values only: it inverts the Z
/// product of the verifier's Q table.
SecpFp inverse_vartime(const SecpFp& f) {
  return SecpFp::from_bigint(mod_inverse(f.to_bigint(), SecpFp::modulus_bigint()));
}

/// Odd multiples P, 3P, ..., (2^(w-1) - 1)P in affine form (one batch
/// inversion), followed by their images under the endomorphism phi.
std::vector<Affine> odd_multiples(const SecpPoint& p, int w) {
  const std::size_t count = std::size_t{1} << (w - 2);
  std::vector<SecpPoint> jacobian(count, p);
  const SecpPoint p2 = p.dbl();
  for (std::size_t i = 1; i < count; ++i) jacobian[i] = jacobian[i - 1] + p2;
  std::vector<Affine> table = SecpPoint::normalize(jacobian, inverse_vartime);
  // phi(x, y) = (beta*x, y): the second half costs one multiplication each.
  const SecpFp& beta = detail::glv_curve<SecpPoint>().endo_scale;
  table.reserve(2 * count);
  for (std::size_t i = 0; i < count; ++i) {
    const Affine& a = table[i];
    table.push_back(a.infinity ? Affine{} : Affine{beta * a.x, a.y, false});
  }
  return table;
}

const std::vector<Affine>& generator_table() {
  static const std::vector<Affine> table = odd_multiples(SecpPoint::generator(), kGWindow);
  return table;
}

/// Width-w non-adjacent form of a signed half-scalar, least significant
/// digit first: every nonzero digit is odd with |d| < 2^(w-1), and any w
/// consecutive digits hold at most one nonzero. The sign of k is folded into
/// the digits. GLV halves are ~129 bits; the bound leaves ample headroom.
struct Wnaf {
  static constexpr std::size_t kMaxDigits = 192;
  std::array<std::int8_t, kMaxDigits> digits{};
  std::size_t len = 0;
};

Wnaf to_wnaf(const BigInt& k, int w) {
  if (mpz_sizeinbase(k.get_mpz_t(), 2) >= Wnaf::kMaxDigits - 1) {
    throw std::logic_error("wnaf: half-scalar wider than the GLV bound");
  }
  std::array<std::uint64_t, 4> v{};  // |k|, little-endian limbs
  mpz_export(v.data(), nullptr, -1, sizeof(std::uint64_t), 0, 0, k.get_mpz_t());
  const int sign = k < 0 ? -1 : 1;
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  Wnaf out;
  while ((v[0] | v[1] | v[2] | v[3]) != 0) {
    int d = 0;
    if ((v[0] & 1) != 0) {
      d = static_cast<int>(v[0] & mask);
      if (d >= (1 << (w - 1))) d -= 1 << w;
      // v -= d. The low w bits of v are d mod 2^w, so a positive d clears
      // them without a borrow; a negative d is an addition that may carry.
      if (d > 0) {
        v[0] -= static_cast<std::uint64_t>(d);
      } else {
        std::uint64_t carry = static_cast<std::uint64_t>(-d);
        for (std::uint64_t& limb : v) {
          limb += carry;
          carry = limb < carry ? 1 : 0;
          if (carry == 0) break;
        }
      }
    }
    out.digits[out.len++] = static_cast<std::int8_t>(sign * d);
    for (std::size_t i = 0; i < 3; ++i) v[i] = (v[i] >> 1) | (v[i + 1] << 63);
    v[3] >>= 1;
  }
  return out;
}

SecpPoint point_from_bytes(const Bytes& b) {
  if (b.size() != 65 || b[0] != 0x04) {
    throw std::invalid_argument("ecdsa: bad public key encoding");
  }
  ByteReader r(b, "secp256k1 point");
  r.skip(1);  // 0x04 uncompressed tag, checked above
  const Bytes xb = r.take(32), yb = r.take(32);
  r.expect_end();
  return SecpPoint::from_affine(SecpFp::from_bytes(xb), SecpFp::from_bytes(yb));
}

BigInt hash_to_scalar(const Bytes& message) {
  return bigint_from_bytes(keccak256(message)) % curve_order();
}

}  // namespace

Bytes EcdsaSignature::to_bytes() const {
  return concat({bigint_to_bytes(r, 32), bigint_to_bytes(s, 32)});
}

EcdsaSignature EcdsaSignature::from_bytes(const Bytes& bytes) {
  if (bytes.size() != 64) throw std::invalid_argument("EcdsaSignature: need 64 bytes");
  EcdsaSignature sig;
  ByteReader reader(bytes, "EcdsaSignature");
  sig.r = bigint_from_bytes(reader.take(32));
  sig.s = bigint_from_bytes(reader.take(32));
  reader.expect_end();
  return sig;
}

EcdsaKeyPair EcdsaKeyPair::generate(Rng& rng) {
  EcdsaKeyPair key;
  do {
    // The zero check is public-by-rejection: it only ever observes (and
    // discards) candidates, never the key that leaves this loop.
    key.secret_ = random_below(rng, curve_order());
  } while (key.secret_ == 0);
  ct::poison(key.secret_);
  key.pub_ = SecpPoint::generator().mul_blinded(key.secret_, rng);
  return key;
}

Bytes EcdsaKeyPair::public_key_bytes() const {
  const auto [x, y] = pub_.to_affine();
  Bytes out = {0x04};
  const Bytes xb = x.to_bytes(), yb = y.to_bytes();
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

Bytes EcdsaKeyPair::address() const { return ecdsa_address(public_key_bytes()); }

Bytes ecdsa_address(const Bytes& public_key_bytes) {
  if (public_key_bytes.size() != 65) throw std::invalid_argument("ecdsa_address: bad key");
  const Bytes digest =
      keccak256(Bytes(public_key_bytes.begin() + 1, public_key_bytes.end()));
  return Bytes(digest.begin() + 12, digest.end());
}

EcdsaSignature EcdsaKeyPair::sign(const Bytes& message, Rng& rng) const {
  const BigInt n = curve_order();
  const BigInt z = hash_to_scalar(message);
  ct::poison(secret_);  // harness hook; no-op outside a CT-checking scope
  for (;;) {
    const BigInt k = random_below(rng, n);
    if (k == 0) continue;  // public-by-rejection
    const ct::ScopedPoison poison_k(k);  // the nonce is as secret as the key
    // k enters the ladder blinded (k + t*n) and the inversion blinded
    // (b * (kb)^-1): neither variable-time algorithm ever sees k itself.
    const SecpPoint kg = SecpPoint::generator().mul_blinded(k, rng);
    const BigInt r = kg.to_affine().first.to_bigint() % n;
    if (r == 0) continue;
    BigInt s = (mod_inverse_blinded(k, n, rng) * ((z + r * secret_) % n)) % n;
    // r and s are the published signature — declassified outputs by
    // definition (and fresh mpz buffers, so untainted either way).
    ct::declassify(s);
    if (s == 0) continue;
    return {r, s};
  }
}

bool ecdsa_verify(const Bytes& public_key_bytes, const Bytes& message,
                  const EcdsaSignature& sig) {
  const BigInt n = curve_order();
  if (sig.r <= 0 || sig.r >= n || sig.s <= 0 || sig.s >= n) return false;
  SecpPoint pub;
  try {
    pub = point_from_bytes(public_key_bytes);
  } catch (const std::invalid_argument&) {
    return false;
  }
  const BigInt z = hash_to_scalar(message);
  const BigInt w = mod_inverse(sig.s, n);
  const BigInt u1 = (z * w) % n;
  const BigInt u2 = (sig.r * w) % n;
  const SecpPoint point = secp_joint_mul(u1, pub, u2);
  if (point.is_infinity()) return false;
  // x(R) mod n == r holds iff x(R) is r or r + n (x(R) < p < 2n). Compare
  // x(R) = X/Z^2 as X == r*Z^2, which needs no inversion; the r + n
  // candidate exists only when it is still below p.
  static const SecpFp n_fp = SecpFp::from_bigint(n);
  static const BigInt p_minus_n = SecpFp::modulus_bigint() - n;
  const SecpFp z2 = point.jacobian_z().squared();
  const SecpFp r_fp = SecpFp::from_bigint(sig.r);
  if (r_fp * z2 == point.jacobian_x()) return true;
  return sig.r < p_minus_n && (r_fp + n_fp) * z2 == point.jacobian_x();
}

SecpPoint secp_joint_mul(const BigInt& u1, const SecpPoint& q, const BigInt& u2) {
  const GlvDecomposition a = glv_decompose<SecpPoint>(u1);  // guards tainted u1
  const GlvDecomposition b = glv_decompose<SecpPoint>(u2);  // guards tainted u2
  const std::vector<Affine>& g_table = generator_table();
  const std::vector<Affine> q_table = odd_multiples(q, kQWindow);
  const std::size_t g_half = g_table.size() / 2, q_half = q_table.size() / 2;
  // u1*G + u2*Q = a1*G + a2*phi(G) + b1*Q + b2*phi(Q): four wNAF streams,
  // each over its own half of a table, sharing one doubling chain.
  struct Stream {
    Wnaf naf;
    const Affine* odd;  // odd[j] = (2j + 1) * base
  };
  const std::array<Stream, 4> streams = {{{to_wnaf(a.k1, kGWindow), g_table.data()},
                                          {to_wnaf(a.k2, kGWindow), g_table.data() + g_half},
                                          {to_wnaf(b.k1, kQWindow), q_table.data()},
                                          {to_wnaf(b.k2, kQWindow), q_table.data() + q_half}}};
  std::size_t len = 0;
  for (const Stream& s : streams) len = std::max(len, s.naf.len);
  SecpPoint acc;
  for (std::size_t i = len; i-- > 0;) {
    acc = acc.dbl();
    for (const Stream& s : streams) {
      const int d = s.naf.digits[i];
      if (d > 0) {
        acc = acc.add_mixed(s.odd[d / 2]);
      } else if (d < 0) {
        acc = acc.add_mixed(s.odd[-d / 2].negated());
      }
    }
  }
  return acc;
}

}  // namespace zl
