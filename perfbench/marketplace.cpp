// marketplace — a transaction flood on the simulated network, no SNARKs.
//
// Set-up: 25 funded wallets, 2 MinerNodes and an observer Node on
// SimNetwork; 200 microtask contracts deployed and confirmed; every
// submission of the flood pre-signed (in parallel on the pool).
// Window (cold caches, fresh obs): submissions are injected at alternating
// nodes (miner 1 / observer), with one simulated millisecond of delivery
// every 64 injections, then the network runs until every submission's
// receipt is visible at the observer. Confirmation is detected by walking
// the observer's new canonical blocks after each network step. The ingest
// rate spans the whole flood; tails and cycle times are medians over groups
// of kGroup consecutive submissions.

#include <unordered_map>

#include "bench.h"
#include "chain/network.h"
#include "chain/validation.h"
#include "load.h"
#include "obs/trace.h"

namespace zl::perfbench {
namespace {

using chain::Address;
using chain::GenesisConfig;
using chain::Transaction;
using chain::Wallet;

constexpr std::size_t kWallets = 25;
constexpr std::size_t kContracts = 200;
/// The flood is sized to the window at this nominal rate (9000
/// submissions for a 12 s window).
constexpr std::size_t kSubmissionsPerSecond = 750;
constexpr std::uint64_t kSimDeadlineMs = 3'600'000;
/// Consecutive submissions per group; end-to-end figures are medians over
/// the groups of one flood.
constexpr std::size_t kGroup = 1000;

/// One set-up: funded wallets, the network, deployed contracts, and the
/// pre-signed flood.
struct Marketplace {
  std::vector<std::unique_ptr<Wallet>> wallets;
  std::unique_ptr<chain::SimNetwork> net;
  std::unique_ptr<chain::MinerNode> miner1;
  std::unique_ptr<chain::MinerNode> miner2;
  std::unique_ptr<chain::Node> observer;
  std::vector<Address> contracts;
  std::vector<Transaction> submits;
  std::vector<Bytes> submit_hashes;
};

/// Runs the network until every hash has a receipt at `node`.
bool quiesce(chain::SimNetwork& net, const chain::Node& node, const std::vector<Bytes>& hashes) {
  std::size_t confirmed = 0;
  const std::uint64_t deadline = net.now() + kSimDeadlineMs;
  while (net.now() < deadline) {
    net.run_for(50);
    while (confirmed < hashes.size() && node.chain().find_receipt(hashes[confirmed])) ++confirmed;
    if (confirmed == hashes.size()) return true;
  }
  return false;
}

std::unique_ptr<Marketplace> set_up(std::uint64_t seed, std::size_t submissions) {
  auto m = std::make_unique<Marketplace>();
  Rng rng(seed);
  Rng load_rng = rng.fork("perfbench-marketplace-load");
  GenesisConfig genesis;
  genesis.difficulty = 64;
  for (std::size_t i = 0; i < kWallets; ++i) {
    m->wallets.push_back(std::make_unique<Wallet>(rng));
    genesis.allocations.emplace_back(m->wallets.back()->address(), 500'000'000'000ull);
  }
  const Wallet coinbase(rng);

  std::vector<PlannedTx> plan;
  for (std::size_t c = 0; c < kContracts; ++c) {
    const std::size_t w = c % kWallets;
    // Deploy c is wallet w's (c / kWallets)-th transaction.
    m->contracts.push_back(Address::for_contract(m->wallets[w]->address(), c / kWallets));
    plan.push_back({w, Address{}, 0, 200'000, MicrotaskContract::kType,
                    zl::to_bytes("task-" + std::to_string(c))});
  }
  for (std::size_t s = 0; s < submissions; ++s) {
    const Address& to = m->contracts[load_rng.uniform(kContracts)];
    plan.push_back({s % kWallets, to, 0, 60'000, "submit",
                    zl::to_bytes("answer-" + std::to_string(load_rng.next_u64()))});
  }
  std::vector<Transaction> signed_txs = sign_plan(m->wallets, plan);
  m->submits.assign(signed_txs.begin() + kContracts, signed_txs.end());
  for (const Transaction& tx : m->submits) m->submit_hashes.push_back(tx.hash());

  m->net = std::make_unique<chain::SimNetwork>(
      chain::SimNetwork::Config{.base_latency_ms = 5, .jitter_ms = 3, .seed = seed ^ 0x6d6b74});
  m->miner1 = std::make_unique<chain::MinerNode>(*m->net, genesis, coinbase.address());
  m->miner2 = std::make_unique<chain::MinerNode>(*m->net, genesis, coinbase.address());
  m->observer = std::make_unique<chain::Node>(*m->net, genesis);

  std::vector<Bytes> deploy_hashes;
  for (std::size_t c = 0; c < kContracts; ++c) {
    deploy_hashes.push_back(signed_txs[c].hash());
    m->observer->submit_transaction(signed_txs[c]);
  }
  if (!quiesce(*m->net, *m->observer, deploy_hashes)) {
    throw std::runtime_error("marketplace set-up: contract deployments did not confirm");
  }
  for (std::size_t c = 0; c < kContracts; ++c) {
    const auto receipt = m->observer->chain().find_receipt(deploy_hashes[c]);
    if (!receipt || !receipt->success || receipt->created_contract != m->contracts[c]) {
      throw std::runtime_error("marketplace set-up: deployment " + std::to_string(c) + " failed");
    }
  }
  return m;
}

/// Records when each submission first appears in the observer's canonical
/// chain, by walking only the blocks that are new since the last poll.
class ConfirmTracker {
 public:
  ConfirmTracker(const chain::Blockchain& chain, const std::vector<Bytes>& hashes)
      : chain_(chain), confirmed_at_(hashes.size()) {
    for (std::size_t i = 0; i < hashes.size(); ++i) index_.emplace(to_hex(hashes[i]), i);
    canonical_ = chain_.canonical_chain();
  }

  void poll(Clock::time_point now) {
    std::vector<Bytes> canonical = chain_.canonical_chain();
    std::size_t common = 0;
    while (common < canonical.size() && common < canonical_.size() &&
           canonical[common] == canonical_[common]) {
      ++common;
    }
    for (std::size_t h = common; h < canonical.size(); ++h) {
      const chain::Block* block = chain_.block_by_hash(canonical[h]);
      if (block == nullptr) continue;
      for (const Transaction& tx : block->transactions) {
        const auto it = index_.find(to_hex(tx.hash()));
        if (it == index_.end() || confirmed_at_[it->second].has_value()) continue;
        confirmed_at_[it->second] = now;
        ++confirmed_;
      }
    }
    canonical_ = std::move(canonical);
  }

  std::size_t confirmed() const { return confirmed_; }
  const std::vector<std::optional<Clock::time_point>>& confirmed_at() const {
    return confirmed_at_;
  }

 private:
  const chain::Blockchain& chain_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<Bytes> canonical_;
  std::vector<std::optional<Clock::time_point>> confirmed_at_;
  std::size_t confirmed_ = 0;
};

}  // namespace

Result run_marketplace(const Options& opts, Tracer& tracer) {
  MicrotaskContract::register_type();
  const std::size_t n = kSubmissionsPerSecond * opts.seconds;

  Result r;
  std::vector<double> setup_s;
  std::unique_ptr<Marketplace> m;
  for (int i = 0; i < kSetupRepeats; ++i) {
    m.reset();
    const Clock::time_point t0 = Clock::now();
    m = set_up(opts.seed, n);
    setup_s.push_back(seconds_since(t0));
  }
  chain::SimNetwork& net = *m->net;
  chain::Node& observer = *m->observer;

  // Cold window: no signature or snark verdicts inherited from set-up.
  chain::clear_validation_caches();
  zl::obs::reset();
  zl::obs::clear_trace();
  const std::uint64_t height0 = observer.chain().height();
  const std::size_t messages0 = net.messages_delivered();
  ConfirmTracker tracker(observer.chain(), m->submit_hashes);
  std::vector<double> submit_us;
  std::vector<Clock::time_point> injected_at(n);
  double run_for_s = 0.0;
  double poll_s = 0.0;
  const auto step = [&](std::uint64_t ms, std::uint64_t request) {
    run_for_s += tracer.time("chain.run_for", request, [&] { net.run_for(ms); });
    poll_s += tracer.time("bench.receipt_poll", request, [&] { tracker.poll(Clock::now()); });
  };

  const Clock::time_point t0 = Clock::now();
  for (std::size_t s = 0; s < n; ++s) {
    chain::Node& entry = s % 2 == 0 ? static_cast<chain::Node&>(*m->miner1) : observer;
    injected_at[s] = Clock::now();
    submit_us.push_back(1e6 * tracer.time("chain.submit_transaction", s,
                                          [&] { entry.submit_transaction(m->submits[s]); }));
    if (s % 64 == 63) step(1, s);
  }
  const Clock::time_point t_injected = Clock::now();
  const std::uint64_t deadline = net.now() + kSimDeadlineMs;
  while (tracker.confirmed() < n && net.now() < deadline) step(50, n);
  const Clock::time_point t_end = Clock::now();
  const double window_s = seconds_between(t0, t_end);
  const zl::obs::Snapshot window_obs = zl::obs::snapshot();

  // Checks: every submission has a success receipt at the observer, and the
  // contracts hold exactly the submitted entries.
  std::vector<double> confirm_ms(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const auto receipt = observer.chain().find_receipt(m->submit_hashes[s]);
    const auto& at = tracker.confirmed_at()[s];
    r.check(receipt.has_value() && receipt->success && at.has_value(),
            "submission " + std::to_string(s) + " not confirmed successfully");
    if (at) confirm_ms[s] = 1e3 * seconds_between(injected_at[s], *at);
  }
  std::size_t entries = 0;
  for (const Address& c : m->contracts) {
    const auto* contract = observer.chain().state().contract_as<MicrotaskContract>(c);
    if (contract != nullptr) entries += contract->entry_count();
  }
  r.check(entries == n, "contract state holds " + std::to_string(entries) + " entries, expected " +
                            std::to_string(n));

  // The ingest rate spans the whole flood: first injection to last
  // confirmation at the observer.
  Clock::time_point last_confirmed = t0;
  for (const auto& at : tracker.confirmed_at()) {
    if (at && *at > last_confirmed) last_confirmed = *at;
  }
  const double ingest_tx_per_s = ratio(static_cast<double>(n), seconds_between(t0, last_confirmed));

  // Per-group figures, reported as medians over the groups: a host slowdown
  // that covers a few groups moves them, not the result.
  std::vector<double> group_p99_ms, group_cycle_s, group_drain_s;
  for (std::size_t g = 0; g + kGroup <= n; g += kGroup) {
    const std::vector<double> latencies(confirm_ms.begin() + g, confirm_ms.begin() + g + kGroup);
    group_p99_ms.push_back(quantile(latencies, 0.99));
    Clock::time_point last = injected_at[g];
    for (std::size_t s = g; s < g + kGroup; ++s) {
      const auto& at = tracker.confirmed_at()[s];
      if (at && *at > last) last = *at;
    }
    group_cycle_s.push_back(seconds_between(injected_at[g], last));
    group_drain_s.push_back(seconds_between(injected_at[g + kGroup - 1], last));
  }

  const std::uint64_t blocks = observer.chain().height() - height0;
  r.report["window_s"] = window_s;
  r.report["setup_s"] = median(setup_s);
  r.report["submissions"] = static_cast<double>(n);
  r.report["groups"] = static_cast<double>(group_cycle_s.size());
  r.report["ingest_tx_per_s"] = ingest_tx_per_s;
  r.report["confirm_ms_p50"] = quantile(confirm_ms, 0.50);
  r.report["confirm_ms_p99"] = median(group_p99_ms);
  r.report["confirm_ms_p99_whole_flood"] = quantile(confirm_ms, 0.99);
  r.report["group_cycle_s"] = median(group_cycle_s);
  r.report["group_drain_s"] = median(group_drain_s);
  r.report["drain_s_whole_flood"] = seconds_between(t_injected, t_end);
  r.report["blocks_to_quiescence"] = static_cast<double>(blocks);

  if (!opts.trace) {
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["ops_per_s"] = r.report["ingest_tx_per_s"];
    r.metrics["op_p50_ms"] = r.report["confirm_ms_p50"];
    r.metrics["op_tail_ms"] = r.report["confirm_ms_p99"];
    r.metrics["cycle_s"] = r.report["group_cycle_s"];
    r.metrics["finish_s"] = r.report["group_drain_s"];
    return r;
  }
  add_obs_metrics(r, window_obs, window_s);
  r.metrics["chain.submit_us_p50"] = quantile(submit_us, 0.50);
  r.metrics["chain.submit_us_p99"] = quantile(submit_us, 0.99);
  r.metrics["chain.run_for_share"] = ratio(run_for_s, window_s);
  r.metrics["chain.messages_per_tx"] =
      ratio(static_cast<double>(net.messages_delivered() - messages0), static_cast<double>(n));
  r.metrics["chain.blocks_to_quiescence"] = static_cast<double>(blocks);
  r.metrics["chain.receipt_poll_share"] = ratio(poll_s, window_s);
  // No add_block timing is visible from outside a Node, so on this workload
  // the prevalidate share is taken over the window.
  const zl::obs::SpanSample* prevalidate = window_obs.span("validation.prevalidate");
  r.metrics["chain.prevalidate_share"] =
      ratio(prevalidate ? static_cast<double>(prevalidate->total_ns) / 1e9 : 0.0, window_s);
  return r;
}

}  // namespace zl::perfbench
