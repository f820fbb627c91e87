#include "chain/mempool.h"

#include <algorithm>
#include <limits>

#include "obs/obs.h"

namespace zl::chain {

namespace {

/// Funnels every admit() return through one outcome counter per code, so
/// the obs snapshot shows the full admission verdict distribution.
Mempool::Admission record_admission(Mempool::Admission a) {
  using Admission = Mempool::Admission;
  switch (a) {
    case Admission::kAdmitted:
      ZL_OBS_COUNTER_ADD("mempool.admit.admitted", 1);
      break;
    case Admission::kReplaced:
      ZL_OBS_COUNTER_ADD("mempool.admit.replaced", 1);
      break;
    case Admission::kDuplicate:
      ZL_OBS_COUNTER_ADD("mempool.admit.duplicate", 1);
      break;
    case Admission::kNonceTooLow:
      ZL_OBS_COUNTER_ADD("mempool.admit.nonce_too_low", 1);
      break;
    case Admission::kUnderpriced:
      ZL_OBS_COUNTER_ADD("mempool.admit.underpriced", 1);
      break;
    case Admission::kPoolFull:
      ZL_OBS_COUNTER_ADD("mempool.admit.pool_full", 1);
      break;
    case Admission::kInvalid:
      ZL_OBS_COUNTER_ADD("mempool.admit.invalid", 1);
      break;
  }
  return a;
}

}  // namespace

Mempool::Admission Mempool::admit(const Transaction& tx, const Hash32& tx_hash,
                                  std::uint64_t chain_nonce) {
  // Stateless checks run before the lock so ECDSA verification — by far the
  // most expensive step — never serializes concurrent gossip threads. This
  // preserves admission results: a transaction failing any of these checks
  // cannot be pooled (every pooled entry passed them at its own admission),
  // so the duplicate/replacement logic below can never disagree with a
  // pre-lock rejection. The only observable difference is which rejection
  // code a multiply-invalid transaction gets — never whether it is accepted.
  if (tx.nonce < chain_nonce) return record_admission(Admission::kNonceTooLow);
  if (tx.gas_limit < tx.intrinsic_gas()) return record_admission(Admission::kInvalid);
  // An escrow whose gas_limit + value wraps uint64 can never be funded, yet
  // its fee bid sorts it first — unrejected it would sit unconfirmable at
  // the top of every block template. Refuse it at the gate.
  if (tx.value > std::numeric_limits<std::uint64_t>::max() - tx.gas_limit)
    return record_admission(Admission::kInvalid);
  if (!tx.verify_signature(tx_hash)) return record_admission(Admission::kInvalid);

  MutexLock lock(mu_);
  if (by_hash_.contains(tx_hash)) return record_admission(Admission::kDuplicate);

  const std::uint64_t fee = fee_of(tx);
  bool replacing = false;
  if (const auto sc = by_sender_.find(tx.from); sc != by_sender_.end()) {
    const auto slot = sc->second.find(tx.nonce);
    replacing = slot != sc->second.end();
    if (replacing && fee < slot->second.fee + kReplacementBump) {
      return record_admission(Admission::kUnderpriced);
    }
  }

  if (!replacing && by_hash_.size() >= max_txs_) {
    // Pool is full: the new bid must beat the globally cheapest entry.
    if (by_fee_.empty() || fee <= by_fee_.begin()->first.first) {
      return record_admission(Admission::kPoolFull);
    }
    // May erase tx.from's own (emptied) chain from by_sender_, so the
    // sender chain is only acquired below, after the eviction.
    evict_cheapest();
  }
  SenderChain& chain = by_sender_[tx.from];
  if (replacing) unlink(chain, chain.find(tx.nonce));

  Entry entry{tx, tx_hash, fee, next_seq_++};
  by_hash_[tx_hash] = {tx.from, tx.nonce};
  by_fee_[{fee, entry.seq}] = {tx.from, tx.nonce};
  chain.emplace(tx.nonce, std::move(entry));
  version_.fetch_add(1, std::memory_order_release);
  ZL_OBS_GAUGE_SET("mempool.size", by_hash_.size());
  return record_admission(replacing ? Admission::kReplaced : Admission::kAdmitted);
}

Mempool::SenderChain::iterator Mempool::unlink(SenderChain& chain, SenderChain::iterator it) {
  by_hash_.erase(it->second.hash);
  by_fee_.erase({it->second.fee, it->second.seq});
  version_.fetch_add(1, std::memory_order_release);
  return chain.erase(it);
}

void Mempool::evict_cheapest() {
  // The globally cheapest bid picks the victim *sender*, but the entry shed
  // is the tail of that sender's chain (its highest pooled nonce): removing
  // a mid-chain nonce would strand the sender's higher nonces behind an
  // unfillable gap, quietly wasting pool capacity. The tail either is the
  // cheapest entry or can only execute after it, so its effective value is
  // bounded by the bid being shed.
  const auto sc = by_sender_.find(by_fee_.begin()->second.first);
  unlink(sc->second, std::prev(sc->second.end()));
  if (sc->second.empty()) by_sender_.erase(sc);
  ZL_OBS_COUNTER_ADD("mempool.evict.overflow", 1);
}

void Mempool::on_confirmed(const Address& sender, std::uint64_t nonce) {
  MutexLock lock(mu_);
  const auto sc = by_sender_.find(sender);
  if (sc == by_sender_.end()) return;
  // Everything at or below the confirmed nonce is dead: either this exact
  // transaction, a competing bid for the same slot, or a stale lower nonce.
  auto it = sc->second.begin();
  while (it != sc->second.end() && it->first <= nonce) {
    it = unlink(sc->second, it);
    ZL_OBS_COUNTER_ADD("mempool.evict.confirmed", 1);
  }
  if (sc->second.empty()) by_sender_.erase(sc);
  ZL_OBS_GAUGE_SET("mempool.size", by_hash_.size());
}

void Mempool::drop(const Hash32& tx_hash) {
  MutexLock lock(mu_);
  const auto at = by_hash_.find(tx_hash);
  if (at == by_hash_.end()) return;
  const auto [sender, nonce] = at->second;
  const auto sc = by_sender_.find(sender);
  unlink(sc->second, sc->second.find(nonce));
  if (sc->second.empty()) by_sender_.erase(sc);
}

std::vector<Transaction> Mempool::build_block(const ChainState& state,
                                              std::size_t max_txs) const {
  // Span and timer sit above the lock so their destructors (which take the
  // rank-86 trace-ring mutex) run after mu_ is released.
  ZL_TRACE_SPAN("mempool.build_block");
  ZL_OBS_SCOPED_LATENCY_US("mempool.build_block_us");
  MutexLock lock(mu_);
  // Candidate heads: each sender's next-executable transaction. The heap
  // comparator is a total order on (fee desc, seq asc), so the selection is
  // deterministic even though the sender map iterates in hash order.
  struct Head {
    std::uint64_t fee;
    std::uint64_t seq;
    const Address* sender;
    const SenderChain* chain;
    SenderChain::const_iterator it;
  };
  const auto lower_priority = [](const Head& a, const Head& b) {
    return a.fee != b.fee ? a.fee < b.fee : a.seq > b.seq;
  };

  std::vector<Head> heap;
  heap.reserve(by_sender_.size());
  // The heap below imposes a total order on (fee, seq), so the emitted block
  // is independent of this iteration order. zl-lint: allow(nondet-iteration)
  for (const auto& [sender, chain] : by_sender_) {
    const auto it = chain.find(state.nonce_of(sender));
    if (it != chain.end()) heap.push_back({it->second.fee, it->second.seq, &sender, &chain, it});
  }
  std::make_heap(heap.begin(), heap.end(), lower_priority);

  std::vector<Transaction> out;
  std::unordered_map<Address, std::uint64_t> spend_bound;
  while (!heap.empty() && out.size() < max_txs) {
    std::pop_heap(heap.begin(), heap.end(), lower_priority);
    const Head head = heap.back();
    heap.pop_back();
    const Transaction& tx = head.it->second.tx;
    // Conservative funds bound: everything the template already commits for
    // this sender plus this transaction's worst case must fit the balance.
    // Rearranged so neither sum can wrap uint64 — a wrapped bound would sail
    // past the balance check and wedge the template on an unfundable tx.
    std::uint64_t& bound = spend_bound[*head.sender];
    const std::uint64_t balance = state.balance_of(*head.sender);
    if (tx.value > balance || tx.gas_limit > balance - tx.value) continue;  // chain stops here
    const std::uint64_t cost = tx.gas_limit + tx.value;
    if (bound > balance - cost) continue;  // chain stops here
    bound += cost;
    out.push_back(tx);
    const auto next = std::next(head.it);
    if (next != head.chain->end() && next->first == tx.nonce + 1) {
      heap.push_back({next->second.fee, next->second.seq, head.sender, head.chain, next});
      std::push_heap(heap.begin(), heap.end(), lower_priority);
    }
  }
  ZL_OBS_COUNTER_ADD("mempool.build_block.count", 1);
  ZL_OBS_COUNTER_ADD("mempool.build_block.txs", out.size());
  return out;
}

}  // namespace zl::chain
