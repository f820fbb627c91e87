#include "zebralancer/reward_circuit.h"

#include "snark/gadgets/jubjub_gadget.h"
#include "snark/gadgets/mimc_gadget.h"

namespace zl::zebralancer {

using snark::CircuitBuilder;
using snark::PointWires;
using snark::Wire;

void build_reward_circuit(CircuitBuilder& b, const RewardCircuitSpec& spec,
                          const std::vector<Fr>& statement, const BigInt& esk) {
  const std::unique_ptr<IncentivePolicy> policy = IncentivePolicy::by_name(spec.policy_name);
  const std::size_t n = spec.num_answers;
  if (statement.size() != reward_statement_size(spec)) {
    throw std::invalid_argument("reward circuit: bad statement size");
  }

  // Public inputs.
  std::size_t pos = 0;
  const Wire epk_x = b.input(statement[pos++], "epk.x");
  const Wire epk_y = b.input(statement[pos++], "epk.y");
  const Wire share = b.input(statement[pos++], "share");
  std::vector<PointWires> ephemerals;
  std::vector<Wire> payloads;
  for (std::size_t j = 0; j < n; ++j) {
    const std::string tag = std::to_string(j);
    const Wire rx = b.input(statement[pos++], "R" + tag + ".x");
    const Wire ry = b.input(statement[pos++], "R" + tag + ".y");
    ephemerals.push_back({rx, ry});
    payloads.push_back(b.input(statement[pos++], "c" + tag));
  }
  std::vector<Wire> reward_inputs;
  for (std::size_t j = 0; j < n; ++j) {
    reward_inputs.push_back(b.input(statement[pos++], "reward" + std::to_string(j)));
  }

  // Witness: esk bits.
  std::vector<Wire> esk_bits;
  for (unsigned i = 0; i < kEskBits; ++i) {
    esk_bits.push_back(snark::boolean_witness(b, mpz_tstbit(esk.get_mpz_t(), i) != 0));
  }

  // pair(esk, epk): epk == esk * G.
  const PointWires epk_computed =
      snark::fixed_base_scalar_mul(b, esk_bits, JubjubPoint::generator());
  b.enforce_equal(epk_computed.x, epk_x);
  b.enforce_equal(epk_computed.y, epk_y);

  // Decrypt every answer: A_j = c_j - MiMC(x(esk * R_j), 0).
  std::vector<Wire> answers;
  answers.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const PointWires shared = snark::scalar_mul(b, esk_bits, ephemerals[j]);
    const Wire pad = snark::mimc_compress_gadget(b, shared.x, Wire::zero());
    answers.push_back(payloads[j] - pad);
  }

  // Policy rewards must equal the public instruction.
  const std::vector<Wire> computed = policy->rewards_gadget(b, answers, share);
  for (std::size_t j = 0; j < n; ++j) b.enforce_equal(computed[j], reward_inputs[j]);
}

std::size_t reward_statement_size(const RewardCircuitSpec& spec) {
  return 3 + 4 * spec.num_answers;
}

std::vector<Fr> reward_statement(const JubjubPoint& epk, std::uint64_t share,
                                 const std::vector<AnswerCiphertext>& ciphertexts,
                                 const std::vector<std::uint64_t>& rewards) {
  if (ciphertexts.size() != rewards.size()) {
    throw std::invalid_argument("reward_statement: size mismatch");
  }
  std::vector<Fr> statement = {epk.x, epk.y, Fr::from_u64(share)};
  for (const AnswerCiphertext& ct : ciphertexts) {
    statement.push_back(ct.ephemeral.x);
    statement.push_back(ct.ephemeral.y);
    statement.push_back(ct.payload);
  }
  for (const std::uint64_t r : rewards) statement.push_back(Fr::from_u64(r));
  return statement;
}

snark::Keypair reward_setup(const RewardCircuitSpec& spec, Rng& rng) {
  // Dummy-but-consistent values so the builder is exercised with the real
  // structure (values are irrelevant to setup).
  CircuitBuilder b;
  const std::vector<Fr> dummy(reward_statement_size(spec), Fr::zero());
  build_reward_circuit(b, spec, dummy, BigInt(0));
  return snark::setup(b.constraint_system(), rng);
}

RewardInstruction prove_rewards(const snark::ProvingKey& pk, const RewardCircuitSpec& spec,
                                const TaskEncKeyPair& enc_key, std::uint64_t share,
                                const std::vector<AnswerCiphertext>& ciphertexts, Rng& rng) {
  if (ciphertexts.size() != spec.num_answers) {
    throw std::invalid_argument("prove_rewards: ciphertext count mismatch");
  }
  const std::unique_ptr<IncentivePolicy> policy = IncentivePolicy::by_name(spec.policy_name);

  // Off-chain: decrypt and evaluate the policy.
  std::vector<Fr> answers;
  answers.reserve(ciphertexts.size());
  for (const AnswerCiphertext& ct : ciphertexts) {
    answers.push_back(decrypt_answer(enc_key.esk, ct));
  }
  RewardInstruction out;
  out.rewards = policy->rewards(answers, share);

  const std::vector<Fr> statement =
      reward_statement(enc_key.epk, share, ciphertexts, out.rewards);
  CircuitBuilder b;
  build_reward_circuit(b, spec, statement, enc_key.esk);
  try {
    out.proof = snark::prove(pk, b.constraint_system(), b.assignment(), rng);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("prove_rewards: inconsistent witness (wrong esk for epk?)");
  }
  return out;
}

}  // namespace zl::zebralancer
