// Parallel proving engine tests: the thread-pool layer itself, multiexp
// against a naive reference, FFT roundtrips, and — the load-bearing
// property — bit-identical setup/prove/verify_batch results between
// ZL_THREADS=1 (guaranteed serial fallback) and ZL_THREADS=8.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "ec/multiexp.h"
#include "ec/serialize.h"
#include "snark/groth16.h"

namespace zl {
namespace {

using snark::ConstraintSystem;
using snark::LinearCombination;

/// Restores the ambient thread count when a test body returns.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(num_threads()) {}
  ~ThreadGuard() { set_num_threads(saved_); }

 private:
  unsigned saved_;
};

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  set_num_threads(8);
  std::vector<int> hits(10'000, 0);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, /*min_grain=*/1);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10'000);
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPool, NestedParallelForRunsSeriallyWithoutDeadlock) {
  // At 2 threads the caller always claims chunks itself, so this exercises
  // the caller-side nested-region path (which must degrade to serial, not
  // re-enter the pool), as well as the worker-side one at 8.
  ThreadGuard guard;
  for (const unsigned threads : {2u, 8u}) {
    set_num_threads(threads);
    std::atomic<int> total{0};
    parallel_for(
        16,
        [&](std::size_t) {
          parallel_for(8, [&](std::size_t) { total.fetch_add(1); }, /*min_grain=*/1);
        },
        /*min_grain=*/1);
    EXPECT_EQ(total.load(), 16 * 8) << "threads=" << threads;
  }
}

TEST(ThreadPool, ExceptionFromChunkPropagatesToCaller) {
  ThreadGuard guard;
  set_num_threads(4);
  EXPECT_THROW(ThreadPool::instance().run(
                   64, [&](std::size_t c) { if (c == 13) throw std::runtime_error("boom"); }),
               std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> ran{0};
  ThreadPool::instance().run(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

// Lowering the width takes effect on the next region even though the wider
// region before it already spawned more workers: the surplus sit it out.
TEST(ThreadPool, RegionRunsOnAtMostTheTargetWidth) {
  ThreadGuard guard;
  const auto distinct_threads = [](std::size_t chunks) {
    std::vector<std::thread::id> ids(chunks);
    ThreadPool::instance().run(chunks, [&](std::size_t c) {
      ids[c] = std::this_thread::get_id();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    std::sort(ids.begin(), ids.end());
    return static_cast<std::size_t>(std::unique(ids.begin(), ids.end()) - ids.begin());
  };
  set_num_threads(4);
  EXPECT_LE(distinct_threads(64), 4u);
  for (const unsigned width : {2u, 3u, 1u}) {
    set_num_threads(width);
    EXPECT_LE(distinct_threads(64), width) << "width=" << width;
  }
}

TEST(ThreadPool, SerialFallbackAtOneThread) {
  ThreadGuard guard;
  set_num_threads(1);
  std::vector<std::size_t> order;
  parallel_for(64, [&](std::size_t i) { order.push_back(i); }, /*min_grain=*/1);
  // With one thread everything runs inline, in order, on the caller.
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

/// Reference implementation: plain double-and-add sum.
template <typename Point>
Point naive_multiexp(const std::vector<Point>& points, const std::vector<Fr>& scalars) {
  Point acc = Point::infinity();
  for (std::size_t i = 0; i < points.size(); ++i) acc += points[i] * scalars[i].to_bigint();
  return acc;
}

TEST(Multiexp, MatchesNaiveAcrossSizes) {
  ThreadGuard guard;
  Rng rng(7001);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
                              std::size_t{1000}}) {
    std::vector<G1> points;
    std::vector<Fr> scalars;
    for (std::size_t i = 0; i < n; ++i) {
      points.push_back(G1::generator() * Fr::random(rng));
      scalars.push_back(Fr::random(rng));
    }
    const G1 expected = naive_multiexp(points, scalars);
    for (const unsigned threads : {1u, 8u}) {
      set_num_threads(threads);
      EXPECT_EQ(multiexp(points, scalars), expected) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(Multiexp, ZeroAndDuplicateScalars) {
  ThreadGuard guard;
  set_num_threads(8);
  Rng rng(7002);
  std::vector<G1> points;
  for (int i = 0; i < 64; ++i) points.push_back(G1::generator() * Fr::random(rng));

  // All-zero scalars: the zero-skip path must still produce infinity.
  const std::vector<Fr> zeros(points.size(), Fr::zero());
  EXPECT_TRUE(multiexp(points, zeros).is_infinity());

  // Duplicate scalars (a constant vector) and a sparse vector.
  const std::vector<Fr> dup(points.size(), Fr::from_u64(123456789));
  EXPECT_EQ(multiexp(points, dup), naive_multiexp(points, dup));
  std::vector<Fr> sparse(points.size(), Fr::zero());
  sparse[3] = Fr::from_u64(42);
  sparse[63] = Fr::random(rng);
  EXPECT_EQ(multiexp(points, sparse), naive_multiexp(points, sparse));
}

TEST(Multiexp, WorksOnG2) {
  ThreadGuard guard;
  set_num_threads(8);
  Rng rng(7003);
  std::vector<G2> points;
  std::vector<Fr> scalars;
  for (int i = 0; i < 16; ++i) {
    points.push_back(G2::generator() * Fr::random(rng));
    scalars.push_back(Fr::random(rng));
  }
  EXPECT_EQ(multiexp(points, scalars), naive_multiexp(points, scalars));
}

TEST(Domain, ParallelFftRoundtripAndThreadInvariance) {
  ThreadGuard guard;
  Rng rng(7004);
  const snark::EvaluationDomain d(4096);
  std::vector<Fr> coeffs;
  for (std::size_t i = 0; i < d.size(); ++i) coeffs.push_back(Fr::random(rng));

  set_num_threads(8);
  std::vector<Fr> par = coeffs;
  d.fft(par);
  const std::vector<Fr> evals_par = par;
  d.ifft(par);
  EXPECT_EQ(par, coeffs);

  par = coeffs;
  d.coset_fft(par);
  d.coset_ifft(par);
  EXPECT_EQ(par, coeffs);

  // Serial fallback produces bit-identical evaluations.
  set_num_threads(1);
  std::vector<Fr> ser = coeffs;
  d.fft(ser);
  EXPECT_EQ(ser, evals_par);
}

/// A squaring-chain circuit with enough constraints to engage every chunked
/// code path: x_{k+1} = x_k^2, public input = the final value.
struct ChainCircuit {
  ConstraintSystem cs;
  std::size_t out, x0;
  std::vector<std::size_t> vars;

  explicit ChainCircuit(std::size_t length) {
    cs.num_inputs = 1;
    out = cs.allocate_variable();
    x0 = cs.allocate_variable();
    std::size_t prev = x0;
    for (std::size_t k = 0; k + 1 < length; ++k) {
      const std::size_t next = cs.allocate_variable();
      cs.add_constraint(LinearCombination::variable(prev), LinearCombination::variable(prev),
                        LinearCombination::variable(next));
      vars.push_back(next);
      prev = next;
    }
    cs.add_constraint(LinearCombination::variable(prev), LinearCombination::variable(prev),
                      LinearCombination::variable(out));
  }

  std::vector<Fr> assignment(std::uint64_t x_val) const {
    std::vector<Fr> z(cs.num_variables, Fr::zero());
    z[0] = Fr::one();
    z[x0] = Fr::from_u64(x_val);
    Fr cur = z[x0];
    for (const std::size_t v : vars) {
      cur *= cur;
      z[v] = cur;
    }
    z[out] = cur * cur;
    return z;
  }
};

Bytes digest_proving_key(const snark::ProvingKey& pk) {
  Bytes all;
  const auto add_g1 = [&](const G1& p) {
    const Bytes b = g1_to_bytes(p);
    all.insert(all.end(), b.begin(), b.end());
  };
  const auto add_g2 = [&](const G2& p) {
    const Bytes b = g2_to_bytes(p);
    all.insert(all.end(), b.begin(), b.end());
  };
  add_g1(pk.alpha_g1);
  add_g1(pk.beta_g1);
  add_g1(pk.delta_g1);
  add_g2(pk.beta_g2);
  add_g2(pk.delta_g2);
  for (const GlvBase<G1>& p : pk.a_query) add_g1(p.point());
  for (const GlvBase<G1>& p : pk.b_g1_query) add_g1(p.point());
  for (const GlvBase<G2>& p : pk.b_g2_query) add_g2(p.point());
  for (const GlvBase<G1>& p : pk.l_query) add_g1(p.point());
  for (const GlvBase<G1>& p : pk.h_query) add_g1(p.point());
  return Sha256::hash(all);
}

TEST(Parallel, SetupProveVerifyBatchBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const ChainCircuit circuit(1200);
  const std::vector<Fr> assignment = circuit.assignment(3);
  ASSERT_TRUE(circuit.cs.is_satisfied(assignment));
  const std::vector<Fr> statement(assignment.begin() + 1, assignment.begin() + 2);

  // Same seeds, different thread counts -> byte-identical keys and proofs.
  set_num_threads(1);
  Rng rng_serial(90210);
  const snark::Keypair keys_serial = snark::setup(circuit.cs, rng_serial);
  Rng prng_serial(555);
  const snark::Proof proof_serial =
      snark::prove(keys_serial.pk, circuit.cs, assignment, prng_serial);

  set_num_threads(8);
  Rng rng_par(90210);
  const snark::Keypair keys_par = snark::setup(circuit.cs, rng_par);
  Rng prng_par(555);
  const snark::Proof proof_par = snark::prove(keys_par.pk, circuit.cs, assignment, prng_par);

  EXPECT_EQ(keys_serial.vk.to_bytes(), keys_par.vk.to_bytes());
  EXPECT_EQ(digest_proving_key(keys_serial.pk), digest_proving_key(keys_par.pk));
  EXPECT_EQ(proof_serial.to_bytes(), proof_par.to_bytes());

  // Both verify, at both thread counts, including through verify_batch.
  for (const unsigned threads : {1u, 8u}) {
    set_num_threads(threads);
    EXPECT_TRUE(snark::verify(keys_serial.vk, statement, proof_par));
    const std::vector<std::uint8_t> ok =
        snark::verify_batch({{keys_serial.vk, statement, proof_serial},
                             {keys_par.vk, statement, proof_par}});
    EXPECT_EQ(ok, (std::vector<std::uint8_t>{1, 1}));
  }
}

TEST(VerifyBatch, PinpointsTheBadProof) {
  ThreadGuard guard;
  set_num_threads(8);
  const ChainCircuit circuit(16);
  Rng rng(424242);
  const snark::Keypair keys = snark::setup(circuit.cs, rng);

  const auto make_item = [&](std::uint64_t x_val) {
    const std::vector<Fr> z = circuit.assignment(x_val);
    const std::vector<Fr> statement(z.begin() + 1, z.begin() + 2);
    return snark::BatchVerifyItem{keys.vk, statement, snark::prove(keys.pk, circuit.cs, z, rng)};
  };
  std::vector<snark::BatchVerifyItem> items = {make_item(2), make_item(3), make_item(4)};

  EXPECT_EQ(snark::verify_batch(items), (std::vector<std::uint8_t>{1, 1, 1}));

  // Corrupt exactly the middle proof; the batch pinpoints it.
  items[1].proof.a = items[1].proof.a + G1::generator();
  EXPECT_EQ(snark::verify_batch(items), (std::vector<std::uint8_t>{1, 0, 1}));

  // A statement swap is also pinpointed (proof 0 against statement of 2).
  items[1] = make_item(3);
  items[0].public_inputs = items[2].public_inputs;
  EXPECT_EQ(snark::verify_batch(items), (std::vector<std::uint8_t>{0, 1, 1}));
}

}  // namespace
}  // namespace zl
