#include "snark/groth16.h"

#include <atomic>
#include <map>
#include <stdexcept>

#include "common/thread_pool.h"
#include "ec/glv.h"
#include "ec/multiexp.h"
#include "ec/serialize.h"
#include "obs/obs.h"

namespace zl::snark {

namespace {

/// QAP polynomials evaluated at tau: At/Bt/Ct[i] = {A,B,C}_i(tau) for each
/// variable i, over a domain with libsnark-style input-consistency rows
/// (row num_constraints + i pins A of input variable i), which make the
/// input polynomials linearly independent.
struct QapEvaluation {
  std::vector<Fr> at, bt, ct;
  Fr zt;
  std::size_t domain_size;
};

QapEvaluation evaluate_qap_at(const ConstraintSystem& cs, const Fr& tau) {
  const std::size_t rows = cs.constraints.size() + cs.num_inputs + 1;
  const EvaluationDomain domain(rows);
  const std::vector<Fr> lagrange = domain.lagrange_coeffs_at(tau);

  QapEvaluation qap;
  const std::size_t m = cs.num_variables;
  qap.at.assign(m, Fr::zero());
  qap.bt.assign(m, Fr::zero());
  qap.ct.assign(m, Fr::zero());
  // Constraints scatter into per-variable accumulators, so chunks keep
  // private partial vectors that merge per variable afterwards. Field
  // addition is exact, so the split is invisible in the result.
  std::size_t chunks = cs.constraints.size() / 512;
  if (chunks < 1) chunks = 1;
  if (chunks > num_threads()) chunks = num_threads();
  if (chunks <= 1) {
    for (std::size_t j = 0; j < cs.constraints.size(); ++j) {
      const Constraint& con = cs.constraints[j];
      for (const auto& t : con.a.terms()) qap.at[t.index] += t.coeff * lagrange[j];
      for (const auto& t : con.b.terms()) qap.bt[t.index] += t.coeff * lagrange[j];
      for (const auto& t : con.c.terms()) qap.ct[t.index] += t.coeff * lagrange[j];
    }
  } else {
    struct Partial {
      std::vector<Fr> at, bt, ct;
    };
    std::vector<Partial> partials(chunks);
    ThreadPool::instance().run(chunks, [&](std::size_t c) {
      const auto [begin, end] = chunk_range(cs.constraints.size(), chunks, c);
      Partial& p = partials[c];
      p.at.assign(m, Fr::zero());
      p.bt.assign(m, Fr::zero());
      p.ct.assign(m, Fr::zero());
      for (std::size_t j = begin; j < end; ++j) {
        const Constraint& con = cs.constraints[j];
        for (const auto& t : con.a.terms()) p.at[t.index] += t.coeff * lagrange[j];
        for (const auto& t : con.b.terms()) p.bt[t.index] += t.coeff * lagrange[j];
        for (const auto& t : con.c.terms()) p.ct[t.index] += t.coeff * lagrange[j];
      }
    });
    parallel_for(m, [&](std::size_t i) {
      for (const Partial& p : partials) {
        qap.at[i] += p.at[i];
        qap.bt[i] += p.bt[i];
        qap.ct[i] += p.ct[i];
      }
    });
  }
  for (std::size_t i = 0; i <= cs.num_inputs; ++i) {
    qap.at[i] += lagrange[cs.constraints.size() + i];
  }
  qap.zt = domain.vanishing_poly_at(tau);
  qap.domain_size = domain.size();
  return qap;
}

/// Coefficients of the quotient H(x) = (A(x)B(x) - C(x)) / Z(x) via coset
/// FFTs, where A/B/C are the assignment-weighted QAP polynomials. The
/// constraint evaluations double as the satisfaction check: an assignment
/// with a_j * b_j != c_j for some constraint j throws before any FFT.
std::vector<Fr> compute_h(const ConstraintSystem& cs, const std::vector<Fr>& z,
                          std::size_t domain_size) {
  ZL_TRACE_SPAN("prover.compute_h");
  const auto unsatisfied = [] {
    return std::invalid_argument("groth16::prove: assignment does not satisfy the constraints");
  };
  if (z.size() != cs.num_variables || z.empty() || z[0] != Fr::one()) throw unsatisfied();
  const EvaluationDomain domain(domain_size);
  std::vector<Fr> a_evals(domain.size(), Fr::zero());
  std::vector<Fr> b_evals(domain.size(), Fr::zero());
  std::vector<Fr> c_evals(domain.size(), Fr::zero());
  std::atomic<bool> satisfied{true};
  parallel_for(cs.constraints.size(), [&](std::size_t j) {
    const Constraint& con = cs.constraints[j];
    a_evals[j] = con.a.evaluate(z);
    b_evals[j] = con.b.evaluate(z);
    c_evals[j] = con.c.evaluate(z);
    if (a_evals[j] * b_evals[j] != c_evals[j]) satisfied.store(false, std::memory_order_relaxed);
  });
  if (!satisfied.load(std::memory_order_relaxed)) throw unsatisfied();
  for (std::size_t i = 0; i <= cs.num_inputs; ++i) {
    a_evals[cs.constraints.size() + i] = z[i];
  }

  domain.ifft(a_evals);
  domain.ifft(b_evals);
  domain.ifft(c_evals);
  domain.coset_fft(a_evals);
  domain.coset_fft(b_evals);
  domain.coset_fft(c_evals);

  const Fr z_inv = domain.vanishing_poly_on_coset().inverse();
  std::vector<Fr>& h = a_evals;
  parallel_for(domain.size(), [&](std::size_t j) {
    h[j] = (a_evals[j] * b_evals[j] - c_evals[j]) * z_inv;
  });
  domain.coset_ifft(h);
  // deg H = domain_size - 2, so the top coefficient must vanish.
  h.pop_back();
  return h;
}

/// One proving-key query in the multiexp engine's form: the fixed-base
/// products point_at(i) for i < n, each chunk normalized with one inversion.
template <typename Point, typename PointAt>
std::vector<GlvBase<Point>> key_query(std::size_t n, PointAt&& point_at) {
  std::vector<GlvBase<Point>> out(n);
  parallel_for_range(
      n,
      [&](std::size_t begin, std::size_t end) {
        std::vector<Point> points(end - begin);
        for (std::size_t i = begin; i < end; ++i) points[i - begin] = point_at(i);
        write_glv_bases(points, out.data() + begin);
      },
      /*min_grain=*/16);
  return out;
}

}  // namespace

Keypair setup(const ConstraintSystem& cs, Rng& rng) {
  ZL_TRACE_SPAN("prover.setup");
  ZL_OBS_COUNTER_ADD("prover.setup.count", 1);
  const auto nonzero = [&rng] {
    for (;;) {
      const Fr v = Fr::random(rng);
      if (!v.is_zero()) return v;
    }
  };
  // tau must avoid the evaluation domain; a random element hits it with
  // probability ~2^-226, but lagrange_coeffs_at throws in that case, so a
  // retry loop keeps the sampler exact.
  QapEvaluation qap;
  Fr tau;
  for (;;) {
    tau = nonzero();
    try {
      qap = evaluate_qap_at(cs, tau);
      break;
    } catch (const std::domain_error&) {
    }
  }
  const Fr alpha = nonzero(), beta = nonzero(), gamma = nonzero(), delta = nonzero();
  const Fr gamma_inv = gamma.inverse(), delta_inv = delta.inverse();

  const FixedBaseTable<G1> g1_table(G1::generator());
  const FixedBaseTable<G2> g2_table(G2::generator());

  Keypair keys;
  ProvingKey& pk = keys.pk;
  VerifyingKey& vk = keys.vk;
  const std::size_t m = cs.num_variables;

  pk.alpha_g1 = g1_table.mul(alpha);
  pk.beta_g1 = g1_table.mul(beta);
  pk.delta_g1 = g1_table.mul(delta);
  pk.beta_g2 = g2_table.mul(beta);
  pk.delta_g2 = g2_table.mul(delta);
  pk.domain_size = qap.domain_size;
  pk.num_inputs = cs.num_inputs;

  // The m-sized fixed-base exponentiation loops below are the setup's hot
  // path; every slot is independent, so they run on the thread pool.
  pk.a_query = key_query<G1>(m, [&](std::size_t i) { return g1_table.mul(qap.at[i]); });
  pk.b_g1_query = key_query<G1>(m, [&](std::size_t i) { return g1_table.mul(qap.bt[i]); });
  pk.b_g2_query = key_query<G2>(m, [&](std::size_t i) { return g2_table.mul(qap.bt[i]); });

  const auto combined = [&](std::size_t i) {
    return beta * qap.at[i] + alpha * qap.bt[i] + qap.ct[i];
  };
  vk.ic.resize(cs.num_inputs + 1);
  for (std::size_t i = 0; i <= cs.num_inputs; ++i) {
    vk.ic[i] = g1_table.mul(combined(i) * gamma_inv);
  }
  pk.l_query = key_query<G1>(m - cs.num_inputs - 1, [&](std::size_t i) {
    return g1_table.mul(combined(cs.num_inputs + 1 + i) * delta_inv);
  });

  // h_query[i] = [tau^i * Z(tau) / delta]_1 for i = 0 .. domain_size - 2.
  const std::vector<Fr> tau_powers = power_table(tau, qap.domain_size - 1);
  const Fr z_over_delta = qap.zt * delta_inv;
  pk.h_query = key_query<G1>(qap.domain_size - 1, [&](std::size_t i) {
    return g1_table.mul(tau_powers[i] * z_over_delta);
  });

  vk.alpha_g1 = pk.alpha_g1;
  vk.beta_g2 = pk.beta_g2;
  vk.gamma_g2 = g2_table.mul(gamma);
  vk.delta_g2 = pk.delta_g2;
  vk.alpha_beta_gt();  // precompute e(alpha, beta)
  return keys;
}

Proof prove(const ProvingKey& pk, const ConstraintSystem& cs, const std::vector<Fr>& assignment,
            Rng& rng) {
  ZL_TRACE_SPAN("prover.prove");
  ZL_OBS_COUNTER_ADD("prover.prove.count", 1);
  const std::size_t m = cs.num_variables;
  if (pk.a_query.size() != m || pk.b_g1_query.size() != m || pk.b_g2_query.size() != m ||
      pk.l_query.size() + cs.num_inputs + 1 != m || pk.h_query.size() + 1 != pk.domain_size) {
    throw std::invalid_argument("groth16::prove: proving key does not match the constraints");
  }
  const std::vector<Fr> h = compute_h(cs, assignment, pk.domain_size);

  const Fr r = Fr::random(rng), s = Fr::random(rng);

  // The five multiexps run as one pool region of (query, window) tasks. The
  // assignment is split once per group; l reads its witness suffix.
  G1 a_acc, b1_acc, l_acc, h_acc;
  G2 b2_acc;
  {
    ZL_TRACE_SPAN("prover.multiexp");
    TaskCpuTime prep;
    const std::vector<GlvSplit> z1 = glv_split_all<G1>(assignment, prep);
    const std::vector<GlvSplit> z2 = glv_split_all<G2>(assignment, prep);
    const std::vector<GlvSplit> h1 = glv_split_all<G1>(h, prep);
    MultiexpJob<G1> a(pk.a_query, z1.data());
    MultiexpJob<G1> b1(pk.b_g1_query, z1.data());
    MultiexpJob<G2> b2(pk.b_g2_query, z2.data());
    MultiexpJob<G1> l(pk.l_query, z1.data() + cs.num_inputs + 1);
    MultiexpJob<G1> hq(pk.h_query, h1.data());
    run_multiexp_jobs({&b2, &a, &b1, &l, &hq});  // G2 windows are the longest tasks
    a_acc = a.result();
    b1_acc = b1.result();
    b2_acc = b2.result();
    l_acc = l.result();
    h_acc = hq.result();
    ZL_OBS_COUNTER_ADD("prover.msm.prep_ns", prep.ns());
    ZL_OBS_COUNTER_ADD("prover.msm.a.cpu_ns", a.cpu().ns());
    ZL_OBS_COUNTER_ADD("prover.msm.b1.cpu_ns", b1.cpu().ns());
    ZL_OBS_COUNTER_ADD("prover.msm.b2.cpu_ns", b2.cpu().ns());
    ZL_OBS_COUNTER_ADD("prover.msm.l.cpu_ns", l.cpu().ns());
    ZL_OBS_COUNTER_ADD("prover.msm.h.cpu_ns", hq.cpu().ns());
  }

  Proof proof;
  proof.a = pk.alpha_g1 + a_acc + pk.delta_g1 * r;
  proof.b = pk.beta_g2 + b2_acc + pk.delta_g2 * s;
  const G1 b_g1 = pk.beta_g1 + b1_acc + pk.delta_g1 * s;
  proof.c = l_acc + h_acc + proof.a * s + b_g1 * r - pk.delta_g1 * (r * s);
  return proof;
}

const Fq12& VerifyingKey::alpha_beta_gt() const {
  // One-shot lazy cache populated at most once per key, never in a verify
  // hot loop — the textbook path is fine here and saves a G2 preparation.
  if (!alpha_beta.has_value()) alpha_beta = pairing(beta_g2, alpha_g1);  // zl-lint: allow(textbook-pairing)
  return *alpha_beta;
}

PreparedVerifyingKey PreparedVerifyingKey::prepare(const VerifyingKey& vk) {
  ZL_OBS_COUNTER_ADD("snark.prepare_key", 1);
  PreparedVerifyingKey pvk;
  pvk.beta_g2 = G2Prepared(vk.beta_g2);
  pvk.gamma_g2 = G2Prepared(vk.gamma_g2);
  pvk.delta_g2 = G2Prepared(vk.delta_g2);
  // Populate (and reuse) the key's lazy e(alpha, beta) cache, sharing the
  // prepared beta schedule just built.
  if (!vk.alpha_beta.has_value()) vk.alpha_beta = pairing(pvk.beta_g2, vk.alpha_g1);
  pvk.alpha_beta = *vk.alpha_beta;
  pvk.ic = vk.ic;
  return pvk;
}

bool verify(const PreparedVerifyingKey& pvk, const std::vector<Fr>& public_inputs,
            const Proof& proof) {
  ZL_TRACE_SPAN("prover.verify");
  if (public_inputs.size() + 1 != pvk.ic.size()) {
    ZL_OBS_COUNTER_ADD("prover.verify.fail", 1);
    return false;
  }
  if (!proof.a.is_on_curve() || !proof.b.is_on_curve() || !proof.c.is_on_curve()) {
    ZL_OBS_COUNTER_ADD("prover.verify.fail", 1);
    return false;
  }

  G1 vk_x = pvk.ic[0];
  for (std::size_t i = 0; i < public_inputs.size(); ++i) {
    // Public inputs are public by definition, so the variable-time GLV split
    // is safe here.
    vk_x += glv_mul(pvk.ic[i + 1], public_inputs[i]);
  }

  // e(A, B) == e(alpha, beta) e(vk_x, gamma) e(C, delta), with e(alpha,
  // beta) precomputed: 3 Miller loops + 1 final exponentiation.
  // e(B, -A) e(gamma, vk_x) e(delta, C) == e(alpha, beta)^-1 ... rearranged:
  const G2Prepared b_prepared(proof.b);
  const bool ok = pairing_product({{&b_prepared, -proof.a},
                                   {&pvk.gamma_g2, vk_x},
                                   {&pvk.delta_g2, proof.c}}) == pvk.alpha_beta.conjugate();
  if (ok) {
    ZL_OBS_COUNTER_ADD("prover.verify.ok", 1);
  } else {
    ZL_OBS_COUNTER_ADD("prover.verify.fail", 1);
  }
  return ok;
}

bool verify(const VerifyingKey& vk, const std::vector<Fr>& public_inputs, const Proof& proof) {
  return verify(PreparedVerifyingKey::prepare(vk), public_inputs, proof);
}

std::vector<std::uint8_t> verify_batch(const std::vector<BatchVerifyItem>& items) {
  std::map<Bytes, std::size_t> key_slot;  // serialized key -> index into prepared
  std::vector<PreparedVerifyingKey> prepared;
  std::vector<std::size_t> slot(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto [it, fresh] = key_slot.try_emplace(items[i].vk.to_bytes(), prepared.size());
    if (fresh) prepared.push_back(PreparedVerifyingKey::prepare(items[i].vk));
    slot[i] = it->second;
  }
  std::vector<std::uint8_t> ok(items.size(), 0);
  // std::vector<std::uint8_t> (not <bool>) so parallel writes hit disjoint
  // bytes. Nested parallelism inside verify() degrades to serial per item.
  parallel_for(
      items.size(),
      [&](std::size_t i) {
        ok[i] = verify(prepared[slot[i]], items[i].public_inputs, items[i].proof) ? 1 : 0;
      },
      /*min_grain=*/1);
  return ok;
}

Bytes Proof::to_bytes() const {
  Bytes out = g1_to_bytes(a);
  const Bytes bb = g2_to_bytes(b), cb = g1_to_bytes(c);
  out.insert(out.end(), bb.begin(), bb.end());
  out.insert(out.end(), cb.begin(), cb.end());
  return out;
}

Proof Proof::from_bytes(const Bytes& bytes) {
  if (bytes.size() != kByteSize) throw std::invalid_argument("Proof::from_bytes: bad size");
  Proof p;
  ByteReader r(bytes, "Proof");
  p.a = g1_from_bytes(r.take(65));
  p.b = g2_from_bytes(r.take(129));
  p.c = g1_from_bytes(r.take(65));
  r.expect_end();
  return p;
}

Bytes VerifyingKey::to_bytes() const {
  Bytes out = g1_to_bytes(alpha_g1);
  for (const G2* g : {&beta_g2, &gamma_g2, &delta_g2}) {
    const Bytes b = g2_to_bytes(*g);
    out.insert(out.end(), b.begin(), b.end());
  }
  append_u32_be(out, static_cast<std::uint32_t>(ic.size()));
  for (const G1& p : ic) {
    const Bytes b = g1_to_bytes(p);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

VerifyingKey VerifyingKey::from_bytes(const Bytes& bytes) {
  // One IC point per public input; no circuit in this repo is anywhere near
  // 2^16 inputs, and each point costs 65 bytes so the count cap cannot be
  // used to stretch the loop past the input anyway.
  constexpr std::uint32_t kMaxIcPoints = 1u << 16;
  VerifyingKey vk;
  ByteReader r(bytes, "VerifyingKey");
  vk.alpha_g1 = g1_from_bytes(r.take(65));
  vk.beta_g2 = g2_from_bytes(r.take(129));
  vk.gamma_g2 = g2_from_bytes(r.take(129));
  vk.delta_g2 = g2_from_bytes(r.take(129));
  const std::uint32_t n = r.count(kMaxIcPoints);
  vk.ic.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) vk.ic.push_back(g1_from_bytes(r.take(65)));
  r.expect_end();
  return vk;
}

}  // namespace zl::snark
