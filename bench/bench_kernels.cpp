// Micro-benchmarks for the low-level prover kernel engine (DESIGN.md §11):
//
//   - Fq Montgomery multiply vs. the dedicated squaring kernel (ns/op,
//     dependent chains so the loop cannot be pipelined away),
//   - G1 single-scalar multiplication: variable-time double-and-add ladder
//     vs. GLV two-dimensional joint ladder,
//   - G1 multiexp at n = 2^10..2^16: textbook Pippenger oracle vs. the
//     batch-affine signed-digit kernel (us/point),
//   - radix-2 FFT at n = 2^10..2^16: textbook oracle vs. the cache-blocked
//     kernel (ms/transform),
//   - secp256k1 ECDSA verify: the two-ladder oracle (tests/oracle) vs. the
//     joint-wNAF GLV engine (us/verify), and Keccak-256 of a 303-byte
//     message, the size of an encoded marketplace submission (us/hash).
//
// The oracle/kernel comparisons run single-threaded (the kernels are
// single-core rewrites) so the printed ratios are pure kernel effects; a
// final section re-times the two pool-parallel kernels (multiexp, FFT) at
// n = 2^14 across thread counts on multi-core hosts — on one core the
// section records null plus a warning instead of a fake 1.0x ladder.
// Results land in BENCH_kernels.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_host.h"
#include "common/thread_pool.h"
#include "crypto/keccak.h"
#include "ec/bn254_groups.h"
#include "ec/ecdsa.h"
#include "ec/glv.h"
#include "ec/multiexp.h"
#include "oracle/ecdsa_oracle.h"
#include "oracle/multiexp_oracle.h"
#include "snark/domain.h"

using namespace zl;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `reps` timed runs of `fn` (seconds).
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    samples.push_back(seconds_since(start));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  set_num_threads(1);
  Rng rng(20260808);

  // --- Fq Montgomery multiply vs. dedicated squaring --------------------
  // Dependent chains: each op feeds the next, so we measure latency of the
  // kernel itself rather than how many the OoO core can overlap.
  constexpr int kFieldIters = 2'000'000;
  Fq acc = Fq::random(rng);
  const Fq mul_operand = Fq::random(rng);
  auto mul_start = Clock::now();
  for (int i = 0; i < kFieldIters; ++i) acc = acc * mul_operand;
  const double mont_mul_ns = seconds_since(mul_start) * 1e9 / kFieldIters;

  Fq acc2 = Fq::random(rng);
  auto sqr_start = Clock::now();
  for (int i = 0; i < kFieldIters; ++i) acc2 = acc2.squared();
  const double mont_sqr_ns = seconds_since(sqr_start) * 1e9 / kFieldIters;
  // Keep the chains observable so the loops cannot be dead-code eliminated.
  if (acc.is_zero() && acc2.is_zero()) std::fprintf(stderr, "(unreachable)\n");

  std::printf("Fq mont_mul  %7.1f ns/op\n", mont_mul_ns);
  std::printf("Fq mont_sqr  %7.1f ns/op   (%.2fx of mul)\n", mont_sqr_ns,
              mont_sqr_ns / mont_mul_ns);

  // --- G1 scalar multiplication: ladder vs. GLV -------------------------
  constexpr int kMulReps = 200;
  std::vector<BigInt> scalars_big;
  for (int i = 0; i < kMulReps; ++i) scalars_big.push_back(Fr::random(rng).to_bigint());
  const G1 base = G1::generator() * Fr::random(rng).to_bigint();

  G1 sink = G1::infinity();
  auto ladder_start = Clock::now();
  for (const BigInt& k : scalars_big) sink = sink + base * k;
  const double ladder_us = seconds_since(ladder_start) * 1e6 / kMulReps;

  G1 sink2 = G1::infinity();
  auto glv_start = Clock::now();
  for (const BigInt& k : scalars_big) sink2 = sink2 + glv_mul(base, k);
  const double glv_us = seconds_since(glv_start) * 1e6 / kMulReps;
  if (!(sink == sink2)) {
    std::fprintf(stderr, "FATAL: GLV disagrees with the ladder\n");
    return 1;
  }
  std::printf("G1 ladder    %7.1f us/mul\n", ladder_us);
  std::printf("G1 glv_mul   %7.1f us/mul   (%.2fx speedup)\n", glv_us, ladder_us / glv_us);

  // --- secp256k1 ECDSA verify: two-ladder oracle vs. joint wNAF ---------
  constexpr int kVerifyReps = 200;
  std::vector<Bytes> pubs, msgs;
  std::vector<EcdsaSignature> sigs;
  for (int i = 0; i < kVerifyReps; ++i) {
    const EcdsaKeyPair key = EcdsaKeyPair::generate(rng);
    pubs.push_back(key.public_key_bytes());
    msgs.push_back(to_bytes("submission " + std::to_string(i)));
    sigs.push_back(key.sign(msgs.back(), rng));
  }
  (void)ecdsa_verify(pubs[0], msgs[0], sigs[0]);  // builds the static G table
  int verified = 0;
  const double oracle_verify_us = median_seconds(5, [&] {
    for (int i = 0; i < kVerifyReps; ++i) {
      verified += oracle::ecdsa_verify_two_ladder(pubs[i], msgs[i], sigs[i]) ? 1 : 0;
    }
  }) * 1e6 / kVerifyReps;
  const double fast_verify_us = median_seconds(5, [&] {
    for (int i = 0; i < kVerifyReps; ++i) {
      verified += ecdsa_verify(pubs[i], msgs[i], sigs[i]) ? 1 : 0;
    }
  }) * 1e6 / kVerifyReps;
  if (verified != 10 * kVerifyReps) {
    std::fprintf(stderr, "FATAL: a valid signature failed to verify\n");
    return 1;
  }
  std::printf("ECDSA verify oracle %7.1f us\n", oracle_verify_us);
  std::printf("ECDSA verify fast   %7.1f us   (%.2fx speedup)\n", fast_verify_us,
              oracle_verify_us / fast_verify_us);

  constexpr int kHashReps = 20'000;
  const Bytes tx_sized(303, 0x5a);
  Bytes digest;
  const double keccak_us = median_seconds(5, [&] {
    for (int i = 0; i < kHashReps; ++i) digest = keccak256(tx_sized);
  }) * 1e6 / kHashReps;
  std::printf("keccak256 303 B    %7.2f us/hash (%02x)\n", keccak_us, digest[0]);

  // --- G1 multiexp: textbook Pippenger vs. batch-affine kernel ----------
  struct MultiexpRow {
    std::size_t n;
    double textbook_us_per_point, kernel_us_per_point;
  };
  std::vector<MultiexpRow> multiexp_rows;
  {
    const std::size_t n_max = std::size_t{1} << 16;
    // Distinct points from a cheap addition chain (a fresh scalar mult per
    // point would dominate setup time at 2^16).
    std::vector<G1> points;
    points.reserve(n_max);
    G1 p = base;
    for (std::size_t i = 0; i < n_max; ++i, p = p + G1::generator()) points.push_back(p);
    std::vector<Fr> scalars;
    scalars.reserve(n_max);
    for (std::size_t i = 0; i < n_max; ++i) scalars.push_back(Fr::random(rng));

    std::printf("\nG1 multiexp (us/point)\n%8s %12s %12s %9s\n", "n", "textbook", "kernel",
                "speedup");
    for (unsigned log_n = 10; log_n <= 16; ++log_n) {
      const std::size_t n = std::size_t{1} << log_n;
      const std::vector<G1> pts(points.begin(), points.begin() + n);
      const std::vector<Fr> ks(scalars.begin(), scalars.begin() + n);
      const int reps = log_n <= 12 ? 5 : 3;
      G1 expect, got;
      const double textbook_s =
          median_seconds(reps, [&] { expect = oracle::multiexp_textbook(pts, ks); });
      const double kernel_s = median_seconds(reps, [&] { got = multiexp(pts, ks); });
      if (!(expect == got)) {
        std::fprintf(stderr, "FATAL: multiexp kernel disagrees with textbook at n=%zu\n", n);
        return 1;
      }
      const double tb_us = textbook_s * 1e6 / static_cast<double>(n);
      const double kn_us = kernel_s * 1e6 / static_cast<double>(n);
      multiexp_rows.push_back({n, tb_us, kn_us});
      std::printf("%8zu %12.3f %12.3f %8.2fx\n", n, tb_us, kn_us, tb_us / kn_us);
    }
  }

  // --- FFT: textbook vs. cache-blocked ----------------------------------
  struct FftRow {
    std::size_t n;
    double textbook_ms, kernel_ms;
  };
  std::vector<FftRow> fft_rows;
  {
    std::printf("\nFr FFT (ms/transform)\n%8s %12s %12s %9s\n", "n", "textbook", "kernel",
                "speedup");
    for (unsigned log_n = 10; log_n <= 16; ++log_n) {
      const std::size_t n = std::size_t{1} << log_n;
      const snark::EvaluationDomain domain(n);
      std::vector<Fr> input;
      input.reserve(n);
      for (std::size_t i = 0; i < n; ++i) input.push_back(Fr::random(rng));
      const int reps = log_n <= 13 ? 9 : 5;
      std::vector<Fr> a = input, b = input;
      const double textbook_s = median_seconds(reps, [&] {
        a = input;
        domain.fft_textbook(a);
      });
      const double kernel_s = median_seconds(reps, [&] {
        b = input;
        domain.fft(b);
      });
      if (a != b) {
        std::fprintf(stderr, "FATAL: blocked FFT disagrees with textbook at n=%zu\n", n);
        return 1;
      }
      fft_rows.push_back({n, textbook_s * 1e3, kernel_s * 1e3});
      std::printf("%8zu %12.3f %12.3f %8.2fx\n", n, textbook_s * 1e3, kernel_s * 1e3,
                  textbook_s / kernel_s);
    }
  }

  // --- Thread scaling: multiexp + FFT at n = 2^14 -----------------------
  // Both kernels distribute via the process-wide pool (parallel_for), so
  // set_num_threads is the only knob. Each width re-checks the result
  // against the 1-thread baseline: scaling must not change answers.
  struct ScalingRow {
    unsigned threads;
    double multiexp_s, fft_s;
  };
  std::vector<ScalingRow> scaling_rows;
  unsigned hardware_threads = std::thread::hardware_concurrency();
  if (hardware_threads == 0) hardware_threads = 1;
  if (hardware_threads > 1) {
    const std::size_t n = std::size_t{1} << 14;
    std::vector<G1> pts;
    pts.reserve(n);
    G1 p = base;
    for (std::size_t i = 0; i < n; ++i, p = p + G1::generator()) pts.push_back(p);
    std::vector<Fr> ks;
    ks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) ks.push_back(Fr::random(rng));
    const snark::EvaluationDomain domain(n);
    std::vector<Fr> fft_input;
    fft_input.reserve(n);
    for (std::size_t i = 0; i < n; ++i) fft_input.push_back(Fr::random(rng));

    std::vector<unsigned> widths{1};
    for (unsigned w = 2; w < hardware_threads; w *= 2) widths.push_back(w);
    widths.push_back(hardware_threads);

    std::printf("\nThread scaling at n=2^14 (seconds)\n%8s %12s %12s\n",
                "threads", "multiexp", "fft");
    G1 multiexp_baseline = G1::infinity();
    std::vector<Fr> fft_baseline;
    for (const unsigned w : widths) {
      set_num_threads(w);
      G1 acc_me = G1::infinity();
      const double me_s = median_seconds(3, [&] { acc_me = multiexp(pts, ks); });
      std::vector<Fr> fft_out;
      const double fft_s = median_seconds(3, [&] {
        fft_out = fft_input;
        domain.fft(fft_out);
      });
      if (w == 1) {
        multiexp_baseline = acc_me;
        fft_baseline = fft_out;
      } else if (!(acc_me == multiexp_baseline) || fft_out != fft_baseline) {
        std::fprintf(stderr, "FATAL: thread scaling changed kernel results at %u threads\n", w);
        return 1;
      }
      scaling_rows.push_back({w, me_s, fft_s});
      std::printf("%8u %12.4f %12.4f\n", w, me_s, fft_s);
    }
    set_num_threads(1);
  } else {
    std::fprintf(stderr,
                 "WARNING: single hardware thread — thread-scaling section skipped "
                 "(every width would time the same serial execution)\n");
  }

  // --- JSON --------------------------------------------------------------
  FILE* json = std::fopen("BENCH_kernels.json", "w");
  if (!json) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_kernels.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  %s,\n", zl::bench::host_json(hardware_threads).c_str());
  std::fprintf(json,
               "  \"ecdsa_verify_us\": {\"oracle\": %.1f, \"fast\": %.1f, "
               "\"speedup\": %.3f},\n",
               oracle_verify_us, fast_verify_us, oracle_verify_us / fast_verify_us);
  std::fprintf(json, "  \"keccak256_303B_us\": %.3f,\n", keccak_us);
  std::fprintf(json,
               "  \"field\": {\"mont_mul_ns\": %.2f, \"mont_sqr_ns\": %.2f, "
               "\"sqr_over_mul\": %.3f},\n",
               mont_mul_ns, mont_sqr_ns, mont_sqr_ns / mont_mul_ns);
  std::fprintf(json,
               "  \"g1_scalar_mul\": {\"ladder_us\": %.2f, \"glv_us\": %.2f, "
               "\"glv_speedup\": %.3f},\n",
               ladder_us, glv_us, ladder_us / glv_us);
  std::fprintf(json, "  \"g1_multiexp_us_per_point\": [\n");
  for (std::size_t i = 0; i < multiexp_rows.size(); ++i) {
    const MultiexpRow& r = multiexp_rows[i];
    std::fprintf(json,
                 "    {\"n\": %zu, \"textbook\": %.3f, \"kernel\": %.3f, \"speedup\": %.3f}%s\n",
                 r.n, r.textbook_us_per_point, r.kernel_us_per_point,
                 r.textbook_us_per_point / r.kernel_us_per_point,
                 i + 1 < multiexp_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"fft_ms\": [\n");
  for (std::size_t i = 0; i < fft_rows.size(); ++i) {
    const FftRow& r = fft_rows[i];
    std::fprintf(json,
                 "    {\"n\": %zu, \"textbook\": %.3f, \"kernel\": %.3f, \"speedup\": %.3f}%s\n",
                 r.n, r.textbook_ms, r.kernel_ms, r.textbook_ms / r.kernel_ms,
                 i + 1 < fft_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"hardware_threads\": %u,\n", hardware_threads);
  if (!scaling_rows.empty()) {
    std::fprintf(json, "  \"thread_scaling_n14\": [\n");
    for (std::size_t i = 0; i < scaling_rows.size(); ++i) {
      const ScalingRow& r = scaling_rows[i];
      std::fprintf(json, "    {\"threads\": %u, \"multiexp_s\": %.6f, \"fft_s\": %.6f}%s\n",
                   r.threads, r.multiexp_s, r.fft_s,
                   i + 1 < scaling_rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
  } else {
    std::fprintf(json,
                 "  \"thread_scaling_n14\": null,\n"
                 "  \"thread_scaling_warning\": \"single hardware thread: no widths to "
                 "ladder over\"\n}\n");
  }
  std::fclose(json);
  std::printf("\nwrote BENCH_kernels.json\n");
  return 0;
}
