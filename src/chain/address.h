#pragma once
// 20-byte account / contract addresses (Ethereum-style pseudonyms).
//
// The paper's anonymity protocol relies on participants generating a fresh
// "one-task-only" address per task; an Address here is exactly that
// blockchain pseudonym.

#include <array>
#include <compare>
#include <functional>
#include <stdexcept>

#include "crypto/bytes.h"
#include "crypto/keccak.h"

namespace zl::chain {

class Address {
 public:
  static constexpr std::size_t kSize = 20;

  Address() { bytes_.fill(0); }

  static Address from_bytes(const Bytes& b) {
    if (b.size() != kSize) throw std::invalid_argument("Address: need 20 bytes");
    Address a;
    std::copy(b.begin(), b.end(), a.bytes_.begin());
    return a;
  }

  static Address from_hex(std::string_view hex) { return from_bytes(zl::from_hex(hex)); }

  /// Contract address derivation: keccak(creator || nonce)[12..32).
  static Address for_contract(const Address& creator, std::uint64_t nonce) {
    Bytes preimage = creator.to_bytes();
    append_u64_be(preimage, nonce);
    const Bytes digest = keccak256(preimage);
    return from_bytes(Bytes(digest.begin() + 12, digest.end()));
  }

  Bytes to_bytes() const { return Bytes(bytes_.begin(), bytes_.end()); }
  std::string to_hex() const { return zl::to_hex(bytes_.data(), bytes_.size()); }

  bool is_zero() const {
    for (const auto b : bytes_) {
      if (b != 0) return false;
    }
    return true;
  }

  auto operator<=>(const Address&) const = default;

 private:
  friend struct std::hash<Address>;

  std::array<std::uint8_t, kSize> bytes_;
};

}  // namespace zl::chain

template <>
struct std::hash<zl::chain::Address> {
  std::size_t operator()(const zl::chain::Address& a) const noexcept {
    return zl::fnv1a(a.bytes_.data(), a.bytes_.size());
  }
};
