#pragma once
// Reference multiexp: the original Jacobian bucket method the library
// shipped before the batch-affine GLV engine (ec/multiexp.h). Unsigned
// c-bit windows over full 254-bit scalars, Jacobian buckets, per-chunk
// partial window sums merged in chunk order. Kept out of the library: the
// differential tests (test_ec) and bench_kernels use it as the oracle the
// engine must agree with point for point.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"
#include "ec/bn254_groups.h"

namespace zl::oracle {

/// The c-bit window digit of a canonical little-endian limb array starting
/// at bit position `pos`.
inline std::uint32_t window_digit(const Limbs& limbs, unsigned pos, unsigned c) {
  const unsigned limb = pos / 64, off = pos % 64;
  std::uint64_t v = limbs[limb] >> off;
  if (off + c > 64 && limb + 1 < limbs.size()) v |= limbs[limb + 1] << (64 - off);
  return static_cast<std::uint32_t>(v & ((std::uint64_t{1} << c) - 1));
}

template <typename Point>
Point multiexp_textbook(const std::vector<Point>& points, const std::vector<Fr>& scalars) {
  if (points.size() != scalars.size()) {
    throw std::invalid_argument("multiexp: size mismatch");
  }
  const std::size_t n = points.size();
  if (n == 0) return Point::infinity();
  if (n < 8) {
    Point acc = Point::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (!scalars[i].is_zero()) acc += points[i] * scalars[i].to_bigint();
    }
    return acc;
  }

  // Window size ~ log2(n) is the classic Pippenger choice; the window count
  // is derived from the field (254 bits for Fr), not a hardcoded 256.
  const unsigned c = n < 32 ? 3 : static_cast<unsigned>(std::log2(static_cast<double>(n))) - 1;
  const unsigned scalar_bits = Fr::kModulusBits;
  const unsigned windows = (scalar_bits + c - 1) / c;

  // Decompose every scalar into canonical limbs exactly once.
  std::vector<Limbs> digits(n);
  parallel_for(n, [&](std::size_t i) { digits[i] = scalars[i].to_limbs(); });
  const auto is_zero_scalar = [&](std::size_t i) {
    return digits[i] == Limbs{0, 0, 0, 0};
  };

  // Per-chunk partial window sums. Keep chunks coarse: each one walks all
  // windows over its slice with a private bucket array.
  const std::size_t max_chunks = static_cast<std::size_t>(num_threads());
  std::size_t chunks = n / 512;
  if (chunks < 1) chunks = 1;
  if (chunks > max_chunks) chunks = max_chunks;

  std::vector<std::vector<Point>> partial(chunks);
  ThreadPool::instance().run(chunks, [&](std::size_t t) {
    const auto [begin, end] = chunk_range(n, chunks, t);
    std::vector<Point>& sums = partial[t];
    sums.assign(windows, Point::infinity());
    std::vector<Point> buckets(static_cast<std::size_t>(1) << c);
    for (unsigned w = 0; w < windows; ++w) {
      std::fill(buckets.begin(), buckets.end(), Point::infinity());
      for (std::size_t i = begin; i < end; ++i) {
        if (is_zero_scalar(i)) continue;
        const std::uint32_t v = window_digit(digits[i], w * c, c);
        if (v != 0) buckets[v] += points[i];
      }
      // Sum b_1 + 2 b_2 + ... via running suffix sums.
      Point running = Point::infinity();
      Point window_sum = Point::infinity();
      for (std::size_t b = buckets.size(); b-- > 1;) {
        running += buckets[b];
        window_sum += running;
      }
      sums[w] = window_sum;
    }
  });

  // Deterministic merge: windows high-to-low (Horner), chunks in order.
  Point result = Point::infinity();
  for (unsigned w = windows; w-- > 0;) {
    for (unsigned bit = 0; bit < c; ++bit) result = result.dbl();
    for (std::size_t t = 0; t < chunks; ++t) result += partial[t][w];
  }
  return result;
}

}  // namespace zl::oracle
