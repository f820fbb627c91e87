#include "crypto/keccak.h"

#include <array>
#include <cstring>

namespace zl {

namespace {

constexpr int kRounds = 24;
constexpr std::size_t kRate = 136;  // 1088-bit rate for Keccak-256

constexpr std::array<std::uint64_t, kRounds> kRoundConstants = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL, 0x8000000080008000ULL,
    0x000000000000808bULL, 0x0000000080000001ULL, 0x8000000080008081ULL, 0x8000000000008009ULL,
    0x000000000000008aULL, 0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL, 0x8000000000008003ULL,
    0x8000000000008002ULL, 0x8000000000000080ULL, 0x000000000000800aULL, 0x800000008000000aULL,
    0x8000000080008081ULL, 0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL};

// Rho + Pi as one walk: lane kPiLane[i] receives the previous lane of the
// walk rotated by kRhoOffset[i]. Pi's lane permutation is a single 24-cycle
// starting at lane 1 (lane 0 stays put, unrotated), so the step needs one
// carried lane instead of a 25-lane copy of the state.
constexpr std::array<int, 24> kPiLane = {10, 7,  11, 17, 18, 3, 5,  16, 8,  21, 24, 4,
                                         15, 23, 19, 13, 12, 2, 20, 14, 22, 9,  6,  1};
constexpr std::array<int, 24> kRhoOffset = {1,  3,  6,  10, 15, 21, 28, 36, 45, 55, 2,  14,
                                            27, 41, 56, 8,  25, 43, 62, 18, 39, 61, 20, 44};

inline std::uint64_t rotl64(std::uint64_t x, int n) { return (x << n) | (x >> (64 - n)); }

// Keccak-f[1600] over lanes a[x + 5y]. Every loop has a constant trip count
// and is unrolled, so all lane indices and rotation amounts are compile-time
// constants: no % 5, no per-round temporary state.
void keccak_f1600(std::array<std::uint64_t, 25>& a) {
  for (int round = 0; round < kRounds; ++round) {
    // Theta: column parities c, then a[x + 5y] ^= c[x - 1] ^ rotl(c[x + 1], 1).
    std::uint64_t c[5];
#pragma GCC unroll 5
    for (int x = 0; x < 5; ++x) c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
    const std::uint64_t d[5] = {c[4] ^ rotl64(c[1], 1), c[0] ^ rotl64(c[2], 1),
                                c[1] ^ rotl64(c[3], 1), c[2] ^ rotl64(c[4], 1),
                                c[3] ^ rotl64(c[0], 1)};
#pragma GCC unroll 5
    for (int y = 0; y < 25; y += 5) {
#pragma GCC unroll 5
      for (int x = 0; x < 5; ++x) a[y + x] ^= d[x];
    }
    // Rho + Pi.
    std::uint64_t carried = a[1];
#pragma GCC unroll 24
    for (int i = 0; i < 24; ++i) {
      const std::uint64_t next = a[kPiLane[i]];
      a[kPiLane[i]] = rotl64(carried, kRhoOffset[i]);
      carried = next;
    }
    // Chi, row by row: a[x] ^= ~a[x + 1] & a[x + 2] within each row of 5.
#pragma GCC unroll 5
    for (int y = 0; y < 25; y += 5) {
      const std::uint64_t r0 = a[y], r1 = a[y + 1], r2 = a[y + 2], r3 = a[y + 3], r4 = a[y + 4];
      a[y] = r0 ^ (~r1 & r2);
      a[y + 1] = r1 ^ (~r2 & r3);
      a[y + 2] = r2 ^ (~r3 & r4);
      a[y + 3] = r3 ^ (~r4 & r0);
      a[y + 4] = r4 ^ (~r0 & r1);
    }
    // Iota
    a[0] ^= kRoundConstants[round];
  }
}

}  // namespace

Bytes keccak256(const Bytes& data) {
  std::array<std::uint64_t, 25> state{};

  // Absorb.
  std::size_t offset = 0;
  while (data.size() - offset >= kRate) {
    for (std::size_t i = 0; i < kRate / 8; ++i) {
      std::uint64_t lane;
      std::memcpy(&lane, data.data() + offset + 8 * i, 8);  // little-endian host
      state[i] ^= lane;
    }
    keccak_f1600(state);
    offset += kRate;
  }

  // Pad the final (possibly empty) block: Keccak legacy padding 0x01 ... 0x80.
  std::array<std::uint8_t, kRate> block{};
  const std::size_t remaining = data.size() - offset;
  std::memcpy(block.data(), data.data() + offset, remaining);
  block[remaining] = 0x01;
  block[kRate - 1] |= 0x80;
  for (std::size_t i = 0; i < kRate / 8; ++i) {
    std::uint64_t lane;
    std::memcpy(&lane, block.data() + 8 * i, 8);
    state[i] ^= lane;
  }
  keccak_f1600(state);

  // Squeeze 32 bytes.
  Bytes out(32);
  std::memcpy(out.data(), state.data(), 32);
  return out;
}

Bytes keccak256(std::string_view s) { return keccak256(to_bytes(s)); }

}  // namespace zl
