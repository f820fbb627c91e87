// chain_sync — a fresh durable node ingests a pre-mined chain, is forced
// through reorgs, and is closed and reopened from its store.
//
// Set-up: 16 funded wallets; block 1 deploys one microtask contract per
// wallet, every later block carries a seeded mix of microtask submits and
// transfers. Every kSegment blocks (at height h) a decoy branch forks
// kReorgDepth blocks below h and runs one block past it, so it is heavier
// than the head it meets. Blocks are mined at toy difficulty and
// serialised; the load is signed in parallel on the pool.
// Window (cold caches, fresh obs): a durable Blockchain on store::RealVfs
// in a fresh directory decodes and adds the main chain block by block
// (block_from_bytes -> add_block). At each decoy point it adds the decoy
// (adopt_branch onto it), then main blocks h+1 and h+2 (adopt_branch back),
// then closes the node and reopens it from its store and carries on. The
// whole sync runs kPasses times, each on a fresh node with cold caches.
// Reorgs and reopens are thus spread over the whole window, and each
// end-to-end figure is a median over them or over the segments between.

#include <filesystem>

#include "bench.h"
#include "chain/blockchain.h"
#include "chain/validation.h"
#include "load.h"
#include "obs/trace.h"

namespace zl::perfbench {
namespace {

using chain::Address;
using chain::Block;
using chain::GenesisConfig;
using chain::Transaction;
using chain::Wallet;

constexpr std::size_t kWallets = 16;
constexpr std::size_t kTxsPerBlock = 16;
/// The main chain is sized to the window at this nominal rate (480 blocks
/// for a 12 s window; two passes over it take about that long).
constexpr std::size_t kBlocksPerSecond = 40;
/// Blocks between decoy points: a multiple of the default snapshot interval
/// (16), so every reorg and every reopen replays the same number of blocks.
constexpr std::uint64_t kSegment = 96;
constexpr std::uint64_t kReorgDepth = 24;
/// Fresh nodes that sync the same pre-mined chain, one after another.
constexpr int kPasses = 2;

struct Branch {
  std::vector<Bytes> blocks;  // serialised, in height order
  Bytes tip_hash;
  std::size_t txs = 0;
};

struct Decoy {
  std::uint64_t height = 0;  // main height at which the decoy is added
  Branch branch;
};

struct Workload {
  GenesisConfig genesis;
  Branch main;
  std::vector<Decoy> decoys;  // ascending height
};

Block mine_block(const Bytes& parent, std::uint64_t number, std::uint64_t stamp,
                 const Address& miner, std::uint64_t difficulty, std::vector<Transaction> txs) {
  Block b;
  b.header.parent_hash = parent;
  b.header.number = number;
  b.header.difficulty = difficulty;
  b.header.timestamp = stamp;
  b.header.miner = miner;
  b.transactions = std::move(txs);
  b.header.tx_root = Block::compute_tx_root(b.transactions);
  while (!chain::proof_of_work_valid(b.header)) ++b.header.nonce;
  return b;
}

/// Pre-mines branches for one workload: the wallets, their contracts and
/// the seeded generator every block draws from.
class Miner {
 public:
  Miner(std::uint64_t seed, GenesisConfig& genesis)
      : rng_(seed), load_rng_(rng_.fork("perfbench-chain-sync-load")) {
    genesis.difficulty = 4;  // toy PoW: the window measures validation, not mining
    for (std::size_t i = 0; i < kWallets; ++i) {
      wallets_.push_back(std::make_unique<Wallet>(rng_));
      genesis.allocations.emplace_back(wallets_.back()->address(), 50'000'000'000ull);
      contracts_.push_back(Address::for_contract(wallets_.back()->address(), 0));
    }
    difficulty_ = genesis.difficulty;
  }

  /// The block-1 deployments of every wallet's contract.
  std::vector<PlannedTx> deploys() const {
    std::vector<PlannedTx> plan;
    for (std::size_t i = 0; i < kWallets; ++i) {
      plan.push_back({i, Address{}, 0, 200'000, MicrotaskContract::kType,
                      zl::to_bytes("task-" + std::to_string(i))});
    }
    return plan;
  }

  /// `count` blocks on top of `parent` (at height first - 1), signed by the
  /// wallets' current nonces and mined by `miner`. With `head` non-empty the
  /// first block carries exactly those transactions.
  Branch build(const Address& miner, Bytes parent, std::uint64_t first, std::size_t count,
               std::vector<PlannedTx> head = {}) {
    std::vector<PlannedTx> plan = std::move(head);
    const std::size_t head_txs = plan.size();
    for (std::size_t b = head_txs > 0 ? 1 : 0; b < count; ++b) {
      for (std::size_t t = 0; t < kTxsPerBlock; ++t) {
        const std::size_t w = load_rng_.uniform(kWallets);
        if (t % 3 == 0) {
          plan.push_back({w, contracts_[load_rng_.uniform(kWallets)], 0, 60'000, "submit",
                          zl::to_bytes("answer-" + std::to_string(load_rng_.next_u64()))});
        } else {
          plan.push_back({w, wallets_[load_rng_.uniform(kWallets)]->address(),
                          1 + load_rng_.uniform(1000), 31'000, "", {}});
        }
      }
    }
    const std::vector<Transaction> txs = sign_plan(wallets_, plan);

    Branch branch;
    branch.txs = txs.size();
    std::size_t next = 0;
    for (std::size_t b = 0; b < count; ++b) {
      const std::size_t take = (b == 0 && head_txs > 0) ? head_txs : kTxsPerBlock;
      std::vector<Transaction> body(txs.begin() + next, txs.begin() + next + take);
      next += take;
      const std::uint64_t number = first + b;
      const Block block = mine_block(parent, number, number * 1000 + load_rng_.uniform(1000),
                                     miner, difficulty_, std::move(body));
      parent = block.hash();
      branch.blocks.push_back(chain::block_to_bytes(block));
    }
    branch.tip_hash = parent;
    return branch;
  }

  std::vector<std::uint64_t> nonces() const {
    std::vector<std::uint64_t> out;
    for (const auto& w : wallets_) out.push_back(w->next_nonce());
    return out;
  }
  void set_nonces(const std::vector<std::uint64_t>& nonces) {
    for (std::size_t i = 0; i < kWallets; ++i) wallets_[i]->set_nonce(nonces[i]);
  }
  Address fresh_address(const std::string& label) {
    Rng rng = rng_.fork(label);
    return Wallet(rng).address();
  }

 private:
  Rng rng_;
  Rng load_rng_;
  std::vector<std::unique_ptr<Wallet>> wallets_;
  std::vector<Address> contracts_;
  std::uint64_t difficulty_ = 1;
};

Workload set_up(std::uint64_t seed, std::uint64_t main_blocks) {
  Workload w;
  Miner miner(seed, w.genesis);
  const Address main_miner = miner.fresh_address("main-miner");
  Bytes parent = w.genesis.build().hash();
  std::uint64_t height = 0;
  const auto extend_main = [&](std::uint64_t to) {
    Branch seg = miner.build(main_miner, parent, height + 1, to - height,
                             height == 0 ? miner.deploys() : std::vector<PlannedTx>{});
    w.main.blocks.insert(w.main.blocks.end(), seg.blocks.begin(), seg.blocks.end());
    w.main.txs += seg.txs;
    parent = seg.tip_hash;
    height = to;
  };
  for (std::uint64_t at = kSegment; at + kSegment <= main_blocks; at += kSegment) {
    // A decoy forks kReorgDepth below `at`, so it is signed from the nonces
    // the main chain had at its fork point.
    extend_main(at - kReorgDepth);
    const Bytes fork_hash = parent;
    const std::vector<std::uint64_t> fork_nonces = miner.nonces();
    extend_main(at);
    const std::vector<std::uint64_t> main_nonces = miner.nonces();
    miner.set_nonces(fork_nonces);
    const Address decoy_miner = miner.fresh_address("decoy-miner-" + std::to_string(at));
    w.decoys.push_back(
        {at, miner.build(decoy_miner, fork_hash, at - kReorgDepth + 1, kReorgDepth + 1)});
    miner.set_nonces(main_nonces);
  }
  extend_main(main_blocks);
  w.main.tip_hash = parent;
  return w;
}

}  // namespace

Result run_chain_sync(const Options& opts, Tracer& tracer) {
  MicrotaskContract::register_type();
  const std::uint64_t main_blocks = kBlocksPerSecond * opts.seconds;
  if (main_blocks < 2 * kSegment) throw std::invalid_argument("chain_sync: window too short");

  Result r;
  std::vector<double> setup_s;
  Workload w;
  for (int i = 0; i < kSetupRepeats; ++i) {
    w = {};
    const Clock::time_point t0 = Clock::now();
    w = set_up(opts.seed, main_blocks);
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> decode_s, add_ms;  // main blocks outside reorgs, every pass
  std::vector<double> segment_rate, checkpoint_ms, growth;
  std::vector<double> reorg_s, reorg_back_s, reopen_s, load_ms;
  double add_total_s = 0.0;  // every add_block call, reorgs included

  // Cold window: no signature or snark verdicts inherited from set-up.
  zl::obs::reset();
  zl::obs::clear_trace();
  const Clock::time_point t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::string dir = opts.out_dir + "/chain_sync-store-seed" + std::to_string(opts.seed);
    std::filesystem::remove_all(dir);
    store::RealVfs vfs;
    store::OpenOptions storage;
    storage.vfs = &vfs;
    storage.path = dir;
    auto node = std::make_unique<chain::Blockchain>(w.genesis, storage);
    // Every pass starts cold, including the second.
    chain::clear_validation_caches();

    const std::size_t pass_first = add_ms.size();
    std::size_t segment_txs = 0;
    double segment_s = 0.0;
    const auto close_segment = [&] {
      segment_rate.push_back(ratio(static_cast<double>(segment_txs), segment_s));
      segment_txs = 0;
      segment_s = 0.0;
    };

    struct Added {
      double decode_s;
      double add_s;
      std::size_t txs;
      Bytes hash;
    };
    const auto add = [&](const Bytes& bytes, const char* what, std::uint64_t request) {
      Block block;
      const double dec = tracer.time("chain.block_from_bytes", request,
                                     [&] { block = chain::block_from_bytes(bytes); });
      bool ok = false;
      const double add_s =
          tracer.time("chain.add_block", request, [&] { ok = node->add_block(block); });
      r.check(ok, std::string(what) + " block at height " + std::to_string(request) + " rejected");
      add_total_s += add_s;
      return Added{dec, add_s, block.transactions.size(), block.hash()};
    };

    std::size_t next_decoy = 0;
    std::uint64_t back_until = 0;  // main height that completes a reorg back
    double back_s = 0.0;
    for (std::uint64_t h = 1; h <= main_blocks; ++h) {
      const Added a = add(w.main.blocks[h - 1], "main", h);
      if (h <= back_until) {
        // The blocks that make the main chain heavier than the decoy again.
        back_s += a.decode_s + a.add_s;
        if (h < back_until) continue;
        reorg_back_s.push_back(back_s);
        back_s = 0.0;
        const Bytes head = node->head_hash();
        r.check(head == a.hash,
                "head did not return to the main chain at height " + std::to_string(h));
        const std::optional<Bytes> state = node->state().snapshot_bytes();
        node.reset();
        ObsDelta obs;
        reopen_s.push_back(tracer.time(
            "chain.reopen", h,
            [&] { node = std::make_unique<chain::Blockchain>(w.genesis, storage); }, &obs));
        load_ms.push_back(obs.span_ms("store.snapshot.load"));
        r.check(node->head_hash() == head, "reopened head differs at height " + std::to_string(h));
        r.check(state.has_value() && node->state().snapshot_bytes() == state,
                "reopened state differs at height " + std::to_string(h));
        continue;
      }
      decode_s.push_back(a.decode_s);
      add_ms.push_back(1e3 * a.add_s);
      // The slow class of add_block: the canonical head lands on a snapshot
      // height, so the block also serialises and persists a checkpoint.
      if (h % storage.snapshot_interval == 0) checkpoint_ms.push_back(add_ms.back());
      segment_txs += a.txs;
      segment_s += a.decode_s + a.add_s;
      if (next_decoy < w.decoys.size() && w.decoys[next_decoy].height == h) {
        const Branch& decoy = w.decoys[next_decoy].branch;
        close_segment();
        reorg_s.push_back(tracer.time("chain.reorg", h, [&] {
          for (std::size_t i = 0; i < decoy.blocks.size(); ++i) {
            add(decoy.blocks[i], "decoy", h - kReorgDepth + 1 + i);
          }
        }));
        r.check(node->head_hash() == decoy.tip_hash,
                "head is not the decoy tip after the reorg at height " + std::to_string(h));
        back_until = h + 2;
        ++next_decoy;
      }
    }
    close_segment();
    r.check(node->head_hash() == w.main.tip_hash, "head is not the main tip after sync");
    node.reset();
    std::filesystem::remove_all(dir);

    // add_block cost over the last tenth of heights against the first.
    const auto first = add_ms.begin() + static_cast<std::ptrdiff_t>(pass_first);
    const std::ptrdiff_t tenth = std::max<std::ptrdiff_t>(1, (add_ms.end() - first) / 10);
    growth.push_back(ratio(mean(std::vector<double>(add_ms.end() - tenth, add_ms.end())),
                           mean(std::vector<double>(first, first + tenth))));
  }
  const double window_s = seconds_since(t0);
  const zl::obs::Snapshot window_obs = zl::obs::snapshot();
  double main_s = 0.0;
  for (std::size_t i = 0; i < add_ms.size(); ++i) main_s += add_ms[i] / 1e3 + decode_s[i];

  r.report["window_s"] = window_s;
  r.report["setup_s"] = median(setup_s);
  r.report["main_blocks"] = static_cast<double>(w.main.blocks.size());
  r.report["main_txs"] = static_cast<double>(w.main.txs);
  r.report["segments"] = static_cast<double>(segment_rate.size());
  r.report["sync_tx_per_s"] = median(segment_rate);
  r.report["sync_tx_per_s_whole_chain"] =
      ratio(static_cast<double>(kPasses * w.main.txs), main_s);
  r.report["add_block_ms_p50"] = quantile(add_ms, 0.50);
  r.report["add_block_ms_checkpoint_p50"] = median(checkpoint_ms);
  r.report["checkpoint_samples"] = static_cast<double>(checkpoint_ms.size());
  r.report["add_block_ms_p99"] = quantile(add_ms, 0.99);
  r.report["add_block_samples"] = static_cast<double>(add_ms.size());
  r.report["reorg_s"] = median(reorg_s);
  r.report["reorg_back_s"] = median(reorg_back_s);
  r.report["reorg_samples"] = static_cast<double>(reorg_s.size());
  r.report["reopen_s"] = median(reopen_s);
  r.report["reopen_samples"] = static_cast<double>(reopen_s.size());

  if (!opts.trace) {
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["ops_per_s"] = r.report["sync_tx_per_s"];
    r.metrics["op_p50_ms"] = r.report["add_block_ms_p50"];
    r.metrics["op_tail_ms"] = r.report["add_block_ms_checkpoint_p50"];
    r.metrics["cycle_s"] = r.report["reorg_s"];
    r.metrics["finish_s"] = r.report["reopen_s"];
    return r;
  }
  add_obs_metrics(r, window_obs, window_s);
  r.metrics["chain.decode_us_per_block"] = 1e6 * mean(decode_s);
  r.metrics["chain.add_block_ms_p50"] = r.report["add_block_ms_p50"];
  r.metrics["chain.add_block_ms_p99"] = r.report["add_block_ms_p99"];
  r.metrics["chain.add_block_growth"] = mean(growth);
  const zl::obs::SpanSample* prevalidate = window_obs.span("validation.prevalidate");
  r.metrics["chain.prevalidate_share"] =
      ratio(prevalidate ? static_cast<double>(prevalidate->total_ns) / 1e9 : 0.0, add_total_s);
  r.metrics["chain.reorg_depth"] = static_cast<double>(kReorgDepth);
  r.metrics["store.snapshot.load_ms"] = median(load_ms);
  return r;
}

}  // namespace zl::perfbench
