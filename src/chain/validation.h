#pragma once
// The parallel block-validation pipeline.
//
// apply_transaction is inherently sequential (each transaction sees the
// state its predecessors left behind), but its expensive checks are not:
// ECDSA signature verification and snark_verify precompile proofs are pure
// functions of transaction bytes (plus, for proofs, the pre-block contract
// state). prevalidate_block() fans those out on the shared thread pool
// *before* sequential apply and records the results in the process-wide
// memo caches, so apply consumes cached verdicts instead of recomputing.
//
// Determinism: prevalidation only warms memo caches of pure functions — it
// never mutates chain state — so the applied state is bit-identical to a
// serial run with cold caches. A precheck that guesses a wrong statement
// (e.g. a reward proof whose statement depends on a submit earlier in the
// same block) is merely a cache miss: apply falls back to inline
// verification. tests/test_mempool.cpp pins parallel-vs-serial equality of
// receipts and state snapshot bytes over a randomized 50-block workload.

#include <functional>

#include "chain/state.h"

namespace zl::chain {

/// One snark_verify evaluation a transaction will perform if applied on top
/// of the observed state: enough to verify it out-of-band and warm the memo.
struct SnarkPrecheck {
  snark::VerifyingKey vk;
  std::vector<Fr> statement;
  snark::Proof proof;
};

/// Extracts the snark_verify calls `tx` would issue against `state` (the
/// state *before* the transaction applies). Best-effort: return an empty
/// vector — or throw — for transactions the extractor does not understand;
/// wrong guesses are harmless cache misses. Must not mutate anything.
using SnarkPrecheckExtractor =
    std::function<std::vector<SnarkPrecheck>(const ChainState&, const Transaction&)>;

/// Register a contract-family extractor (e.g. the ZebraLancer task contract
/// registers one alongside its ContractFactory type). Process-wide.
void register_snark_precheck_extractor(SnarkPrecheckExtractor extractor);

/// Toggle the parallel prevalidation phase (default on), and with it the
/// parallel phase of SimNetwork's batched admission. Off = the serial
/// oracle: admission and apply recompute everything inline. Benches flip
/// this (plus clear_validation_caches) to measure the speedup.
///
/// Safe to call while another thread is validating: the flag is an atomic
/// sampled exactly once at the top of each prevalidate_block call, so an
/// in-flight validation finishes under the mode it started with — the
/// toggle only selects *how* verdicts are computed, never what they are.
/// (tests/test_concurrency.cpp races this under TSan.)
void set_parallel_validation(bool enabled);
bool parallel_validation_enabled();

/// Drop every validation memo (signature verdicts + snark_verify results),
/// so the next block validates from a cold start.
///
/// Safe to call while another thread is validating: each cache clears under
/// its own ranked lock (kSigVerdictCache / kSnarkMemoCache), and every
/// cached value is a memo of a pure function — a concurrent clear turns
/// lookups into misses that recompute the same verdict, never into wrong
/// answers. The two caches clear non-atomically with respect to each other,
/// which is fine for the same reason. (TSan-raced in test_concurrency.cpp.)
void clear_validation_caches();

/// Stateless prevalidation of a block body against its pre-state: warms the
/// signature-verdict cache for every transaction in parallel, then verifies
/// all extracted snark prechecks in one parallel batch and warms the
/// precompile memo. No-op when parallel validation is disabled.
void prevalidate_block(const ChainState& pre_state, const std::vector<Transaction>& txs);

}  // namespace zl::chain
