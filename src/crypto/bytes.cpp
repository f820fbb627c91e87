#include "crypto/bytes.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace zl {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("from_hex: invalid hex character");
}
}  // namespace

std::string to_hex(const Bytes& data) { return to_hex(data.data(), data.size()); }

std::string to_hex(const std::uint8_t* data, std::size_t len) {
  std::string out;
  out.reserve(2 * len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0xf]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() >= 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) {
    hex.remove_prefix(2);
  }
  if (hex.size() % 2 != 0) throw std::invalid_argument("from_hex: odd length");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((hex_nibble(hex[i]) << 4) | hex_nibble(hex[i + 1])));
  }
  return out;
}

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

Bytes concat(std::initializer_list<Bytes> parts) {
  Bytes out;
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

void append_u32_be(Bytes& out, std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void append_u64_be(Bytes& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void append_frame(Bytes& out, const Bytes& part) {
  append_u32_be(out, static_cast<std::uint32_t>(part.size()));
  out.insert(out.end(), part.begin(), part.end());
}

Hash32 to_hash32(const Bytes& digest) {
  Hash32 h;
  if (digest.size() != h.size()) throw std::invalid_argument("hash must be 32 bytes");
  std::copy(digest.begin(), digest.end(), h.begin());
  return h;
}

void ByteReader::fail(const char* detail) const {
  throw DecodeError(std::string(what_) + ": " + detail);
}

void ByteReader::need(std::size_t n) const {
  // off_ <= size_ is a class invariant, so size_ - off_ cannot wrap; the
  // naive `off_ + n > size_` would overflow for attacker-chosen n.
  if (n > size_ - off_) fail("truncated");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[off_++];
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[off_ + static_cast<std::size_t>(i)];
  off_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[off_ + static_cast<std::size_t>(i)];
  off_ += 8;
  return v;
}

Bytes ByteReader::take(std::size_t n) {
  need(n);
  Bytes out(data_ + off_, data_ + off_ + n);
  off_ += n;
  return out;
}

Bytes ByteReader::frame(std::size_t cap) {
  const std::uint32_t len = u32();
  // The cap check comes first: an over-cap length is rejected before any
  // allocation, so a corrupt 4-byte prefix cannot force a multi-GiB resize.
  if (len > cap) fail("frame length over cap");
  if (len > size_ - off_) fail("truncated");
  Bytes out(data_ + off_, data_ + off_ + len);
  off_ += len;
  return out;
}

std::uint32_t ByteReader::count(std::uint32_t cap) {
  const std::uint32_t n = u32();
  if (n > cap) fail("element count over cap");
  return n;
}

void ByteReader::skip(std::size_t n) {
  need(n);
  off_ += n;
}

void ByteReader::expect_end() const {
  if (off_ != size_) fail("trailing data");
}

bool ct_equal(const Bytes& a, const Bytes& b) {
  // Lengths are public (fixed per protocol); content is compared without an
  // early exit. The final bool is the one sanctioned declassification of the
  // comparison result.
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return acc == 0;
}

void secure_zero(void* p, std::size_t n) {
  if (n == 0) return;
  std::memset(p, 0, n);
  // The asm barrier claims to read memory, so the memset above is observable
  // and cannot be dropped by dead-store elimination.
  __asm__ __volatile__("" : : "r"(p) : "memory");
}

void secure_zero(Bytes& b) { secure_zero(b.data(), b.size()); }

}  // namespace zl
