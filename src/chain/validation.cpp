#include "chain/validation.h"

#include <atomic>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/obs.h"
#include "snark/groth16.h"

namespace zl::chain {

namespace {

// The parallel-validation toggle and the memos it feeds are safe to
// flip/clear mid-validation from another thread: the flag is sampled once
// per prevalidate call, and a cleared memo is only ever a miss (re-verify),
// never a wrong verdict. See set_parallel_validation/clear_validation_caches.
std::atomic<bool> g_parallel_validation{true};

/// The snark_verify calls `tx` will issue: asked of the contract it calls,
/// or of a blank instance of the type a creation deploys.
std::vector<SnarkPrecheck> snark_prechecks(const ChainState& pre_state, const Transaction& tx) {
  if (!tx.is_contract_creation()) {
    const Contract* contract = pre_state.contract_at(tx.to());
    return contract == nullptr ? std::vector<SnarkPrecheck>{} : contract->snark_prechecks(tx);
  }
  const ContractFactory& factory = ContractFactory::instance();
  if (!factory.knows(tx.method())) return {};
  return factory.create(tx.method())->snark_prechecks(tx);
}

}  // namespace

VerdictMemo& signature_memo() {
  static VerdictMemo memo{LockRank::kSigVerdictCache, "tx.sig_verdict_cache"};
  return memo;
}

VerdictMemo& snark_memo() {
  static VerdictMemo memo{LockRank::kSnarkMemoCache, "state.snark_verify_cache"};
  return memo;
}

void set_parallel_validation(bool enabled) {
  g_parallel_validation.store(enabled, std::memory_order_relaxed);
}

bool parallel_validation_enabled() {
  return g_parallel_validation.load(std::memory_order_relaxed);
}

void clear_validation_caches() {
  signature_memo().clear();
  snark_memo().clear();
}

void prevalidate_block(const ChainState& pre_state, const std::vector<Transaction>& txs) {
  if (!parallel_validation_enabled() || txs.empty()) return;
  ZL_TRACE_SPAN("validation.prevalidate");
  ZL_OBS_COUNTER_ADD("validation.prevalidate.blocks", 1);
  ZL_OBS_COUNTER_ADD("validation.prevalidate.txs", txs.size());

  // Phase 1: signature verdicts. Each check is independent and writes only
  // the mutex-guarded memo; grain 1 because one ECDSA verify dwarfs the
  // dispatch overhead.
  zl::parallel_for(
      txs.size(), [&](std::size_t i) { txs[i].verify_signature(); }, /*min_grain=*/1);

  // Phase 2: snark prechecks. Extraction is serial (cheap state reads); the
  // pairing work runs in one parallel batch. Statements are extracted
  // against the pre-block state, so a proof whose statement depends on an
  // earlier transaction in the same block yields a differently-keyed entry —
  // a memo miss at apply time, never a wrong verdict.
  std::vector<snark::BatchVerifyItem> items;
  for (const Transaction& tx : txs) {
    try {
      for (SnarkPrecheck& p : snark_prechecks(pre_state, tx)) {
        items.push_back({std::move(p.vk), std::move(p.statement), p.proof});
      }
    } catch (const std::exception&) {
      // Prechecks are best-effort; a confused one warms nothing.
    }
  }
  if (items.empty()) return;
  ZL_OBS_COUNTER_ADD("validation.snark_precheck.items", items.size());
  const std::vector<std::uint8_t> ok = snark::verify_batch(items);
  for (std::size_t i = 0; i < items.size(); ++i) {
    snark_memo().insert(
        snark_verify_cache_key(items[i].vk, items[i].public_inputs, items[i].proof), ok[i] != 0);
  }
}

}  // namespace zl::chain
