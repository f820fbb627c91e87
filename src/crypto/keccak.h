#pragma once
// Keccak-256 (the pre-NIST-padding variant used by Ethereum), from scratch.
//
// The blockchain substrate uses Keccak-256 for transaction/block hashes,
// account addresses (last 20 bytes of Keccak(pubkey)), contract addresses
// (Keccak(creator || nonce)), and the simplified proof-of-work.

#include "crypto/bytes.h"

namespace zl {

/// Keccak-256 with the legacy 0x01 domain padding (Ethereum's keccak256).
/// keccak256("") = c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470
Bytes keccak256(const Bytes& data);
Bytes keccak256(std::string_view s);
/// The same digest over a raw buffer, returned by value: no allocation, for
/// hot paths that hash fixed-size preimages (Merkle pairs).
Hash32 keccak256(const std::uint8_t* data, std::size_t size);

}  // namespace zl
