// Ablation microbenchmarks for the design choices called out in DESIGN.md:
//   T2 — Jubjub/MiMC hybrid answer encryption vs the paper's RSA-OAEP-2048
//   T3 — MiMC7 vs SHA-256 as the in-circuit hash (native costs here;
//        constraint counts are asserted in tests)
//   Link() is "nearly nothing" (paper §V-B runs it O(n^2) times)
//   plus the pairing/multiexp/FFT primitives that dominate the SNARK stack.
#include <benchmark/benchmark.h>

#include "auth/cpl_auth.h"
#include "ec/ecdsa.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "ec/multiexp.h"
#include "snark/domain.h"
#include "zebralancer/encryption.h"

using namespace zl;

namespace {

Rng& bench_rng() {
  static Rng rng(60004);
  return rng;
}

// --- pairing stack -------------------------------------------------------

void BM_PairingFull(benchmark::State& state) {
  const G1 p = G1::generator() * 12345;
  const G2 q = G2::generator() * 67890;
  for (auto _ : state) benchmark::DoNotOptimize(pairing(q, p));
}
BENCHMARK(BM_PairingFull);

void BM_MillerLoop(benchmark::State& state) {
  const G1 p = G1::generator() * 12345;
  const G2 q = G2::generator() * 67890;
  for (auto _ : state) benchmark::DoNotOptimize(miller_loop(q, p));
}
BENCHMARK(BM_MillerLoop);

void BM_FinalExponentiation(benchmark::State& state) {
  const Fq12 f = miller_loop(G2::generator() * 7, G1::generator() * 11);
  for (auto _ : state) benchmark::DoNotOptimize(final_exponentiation(f));
}
BENCHMARK(BM_FinalExponentiation);

void BM_G1ScalarMul(benchmark::State& state) {
  const G1 p = G1::generator();
  const BigInt s = Fr::random(bench_rng()).to_bigint();
  for (auto _ : state) benchmark::DoNotOptimize(p * s);
}
BENCHMARK(BM_G1ScalarMul);

void BM_G2ScalarMul(benchmark::State& state) {
  const G2 p = G2::generator();
  const BigInt s = Fr::random(bench_rng()).to_bigint();
  for (auto _ : state) benchmark::DoNotOptimize(p * s);
}
BENCHMARK(BM_G2ScalarMul);

void BM_MultiexpG1(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<G1> points;
  std::vector<Fr> scalars;
  G1 acc = G1::generator();
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(acc);
    acc = acc.dbl();
    scalars.push_back(Fr::random(bench_rng()));
  }
  for (auto _ : state) benchmark::DoNotOptimize(multiexp(points, scalars));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MultiexpG1)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();

void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const snark::EvaluationDomain domain(n);
  std::vector<Fr> coeffs;
  for (std::size_t i = 0; i < domain.size(); ++i) coeffs.push_back(Fr::random(bench_rng()));
  for (auto _ : state) {
    std::vector<Fr> work = coeffs;
    domain.fft(work);
    benchmark::DoNotOptimize(work);
  }
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(16384);

// --- T3: in-circuit hash choice (native costs) ---------------------------

void BM_MimcPermute(benchmark::State& state) {
  const Fr x = Fr::random(bench_rng()), k = Fr::random(bench_rng());
  for (auto _ : state) benchmark::DoNotOptimize(mimc_permute(x, k));
}
BENCHMARK(BM_MimcPermute);

void BM_Sha256_64B(benchmark::State& state) {
  const Bytes data = bench_rng().bytes(64);
  for (auto _ : state) benchmark::DoNotOptimize(Sha256::hash(data));
}
BENCHMARK(BM_Sha256_64B);

void BM_Keccak256_1KB(benchmark::State& state) {
  const Bytes data = bench_rng().bytes(1024);
  for (auto _ : state) benchmark::DoNotOptimize(keccak256(data));
}
BENCHMARK(BM_Keccak256_1KB);

// --- T2: answer encryption choice ----------------------------------------

void BM_JubjubHybridEncrypt(benchmark::State& state) {
  const auto key = zebralancer::TaskEncKeyPair::generate(bench_rng());
  const Fr answer = Fr::from_u64(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zebralancer::encrypt_answer(key.epk, answer, bench_rng()));
  }
}
BENCHMARK(BM_JubjubHybridEncrypt);

void BM_JubjubHybridDecrypt(benchmark::State& state) {
  const auto key = zebralancer::TaskEncKeyPair::generate(bench_rng());
  const auto ct = zebralancer::encrypt_answer(key.epk, Fr::from_u64(3), bench_rng());
  for (auto _ : state) benchmark::DoNotOptimize(zebralancer::decrypt_answer(key.esk, ct));
}
BENCHMARK(BM_JubjubHybridDecrypt);

const RsaKeyPair& rsa_key_2048() {
  static const RsaKeyPair key = RsaKeyPair::generate(bench_rng(), 2048);
  return key;
}

void BM_RsaOaep2048Encrypt(benchmark::State& state) {
  const Bytes msg = bench_rng().bytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_oaep_encrypt(rsa_key_2048().pub, msg, bench_rng()));
  }
}
BENCHMARK(BM_RsaOaep2048Encrypt);

void BM_RsaOaep2048Decrypt(benchmark::State& state) {
  const Bytes ct = rsa_oaep_encrypt(rsa_key_2048().pub, bench_rng().bytes(32), bench_rng());
  for (auto _ : state) benchmark::DoNotOptimize(rsa_oaep_decrypt(rsa_key_2048(), ct));
}
BENCHMARK(BM_RsaOaep2048Decrypt);

// --- blockchain-side primitives ------------------------------------------

void BM_EcdsaSign(benchmark::State& state) {
  const EcdsaKeyPair key = EcdsaKeyPair::generate(bench_rng());
  const Bytes msg = bench_rng().bytes(200);
  for (auto _ : state) benchmark::DoNotOptimize(key.sign(msg, bench_rng()));
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const EcdsaKeyPair key = EcdsaKeyPair::generate(bench_rng());
  const Bytes msg = bench_rng().bytes(200);
  const EcdsaSignature sig = key.sign(msg, bench_rng());
  for (auto _ : state) benchmark::DoNotOptimize(ecdsa_verify(key.public_key_bytes(), msg, sig));
}
BENCHMARK(BM_EcdsaVerify);

void BM_MerklePathVerify(benchmark::State& state) {
  MerkleTree tree(16);
  for (int i = 0; i < 32; ++i) tree.append(Fr::from_u64(static_cast<std::uint64_t>(i)));
  const auto path = tree.path(17);
  const Fr root = tree.root();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::verify_path(tree.leaf(17), path, root, 16));
  }
}
BENCHMARK(BM_MerklePathVerify);

// --- Link() is "nearly nothing" (paper §V-B) ------------------------------

void BM_LinkCheck(benchmark::State& state) {
  auth::Attestation a, b;
  a.t1 = Fr::random(bench_rng());
  b.t1 = Fr::random(bench_rng());
  for (auto _ : state) benchmark::DoNotOptimize(auth::link(a, b));
}
BENCHMARK(BM_LinkCheck);

// Full O(n^2) link scan for an 11-worker task, as the contract runs it.
void BM_LinkScan11Workers(benchmark::State& state) {
  std::vector<auth::Attestation> atts(11);
  for (auto& att : atts) att.t1 = Fr::random(bench_rng());
  for (auto _ : state) {
    bool any = false;
    for (std::size_t i = 0; i < atts.size(); ++i) {
      for (std::size_t j = i + 1; j < atts.size(); ++j) {
        any |= auth::link(atts[i], atts[j]);
      }
    }
    benchmark::DoNotOptimize(any);
  }
}
BENCHMARK(BM_LinkScan11Workers);

}  // namespace

BENCHMARK_MAIN();
