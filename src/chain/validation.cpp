#include "chain/validation.h"

#include <atomic>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "obs/obs.h"
#include "snark/groth16.h"

namespace zl::chain {

namespace {

// The parallel-validation toggle and the memo caches it feeds are safe to
// flip/clear mid-validation from another thread: the flag is sampled once
// per prevalidate call, and a cleared cache is only ever a miss (re-verify),
// never a wrong verdict. See set_parallel_validation/clear_validation_caches.
std::atomic<bool> g_parallel_validation{true};

struct ExtractorRegistry {
  OrderedMutex mutex{LockRank::kExtractorRegistry, "validation.extractor_registry"};
  std::vector<SnarkPrecheckExtractor> extractors ZL_GUARDED_BY(mutex);
};

ExtractorRegistry& extractor_registry() {
  static ExtractorRegistry registry;
  return registry;
}

}  // namespace

void register_snark_precheck_extractor(SnarkPrecheckExtractor extractor) {
  ExtractorRegistry& registry = extractor_registry();
  const MutexLock lock(registry.mutex);
  registry.extractors.push_back(std::move(extractor));
}

void set_parallel_validation(bool enabled) {
  g_parallel_validation.store(enabled, std::memory_order_relaxed);
}

bool parallel_validation_enabled() {
  return g_parallel_validation.load(std::memory_order_relaxed);
}

void clear_validation_caches() {
  clear_signature_verdict_cache();
  clear_snark_verify_cache();
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
  // a cache miss at apply time, never a wrong verdict.
  // The registry lock is released before verify_batch below: pairing work
  // must not serialize against extractor registration, and verify_batch
  // re-enters the thread pool (rank kPoolRegion < kExtractorRegistry would
  // otherwise trip the ordering check).
  std::vector<snark::BatchVerifyItem> items;
  {
    ExtractorRegistry& registry = extractor_registry();
    const MutexLock lock(registry.mutex);
    for (const Transaction& tx : txs) {
      for (const SnarkPrecheckExtractor& extract : registry.extractors) {
        try {
          for (SnarkPrecheck& p : extract(pre_state, tx)) {
            items.push_back({std::move(p.vk), std::move(p.statement), p.proof});
          }
        } catch (const std::exception&) {
          // Extractors are best-effort; a confused one warms nothing.
        }
      }
    }
  }
  if (items.empty()) return;
  ZL_OBS_COUNTER_ADD("validation.snark_precheck.items", items.size());
  const std::vector<std::uint8_t> ok = snark::verify_batch(items);
  for (std::size_t i = 0; i < items.size(); ++i) {
    warm_snark_verify_cache(
        snark_verify_cache_key(items[i].vk, items[i].public_inputs, items[i].proof), ok[i] != 0);
  }
}

}  // namespace zl::chain
