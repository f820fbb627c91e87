// bench_scale — the marketplace-at-scale chain-throughput series.
//
// Two phases, emitted to BENCH_scale.json:
//
//  A. Validation engine: a pre-mined workload of blocks full of signed
//     transactions is applied to two fresh chains — once with the serial
//     oracle (1 thread, prevalidation off, cold caches) and once with the
//     parallel prevalidate/apply pipeline (cold caches again) — timing both
//     and pinning the resulting state snapshot bytes bit-identical.
//
//  B. Testnet churn: hundreds of concurrent task contracts and 10^4+
//     simulated worker submissions through the deterministic SimNetwork
//     (miners + observer), measuring wall-clock tx/s ingest, blocks to
//     quiescence (every submission confirmed at the observer), and peak RSS.
//
// The workload uses a lightweight "microtask" contract registered by this
// binary: deploy stores the task id, submit appends (sender, payload digest)
// — real contract-runtime storage traffic without the SNARK proving cost,
// which BENCH_prover.json already tracks. --smoke shrinks both phases to CI
// budget (the `scale` leg of tools/check_all.sh).

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chain/network.h"
#include "chain/validation.h"
#include "common/thread_pool.h"
#include "crypto/keccak.h"
#include "obs/obs.h"

namespace zl::chain {
namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// A minimal task-shaped contract: deploy stores an id, "submit" appends the
// sender and a digest of the payload. Snapshot hooks are implemented so the
// chain's reorg checkpoints keep working with the bench type deployed.
class MicrotaskContract : public Contract {
 public:
  static constexpr const char* kType = "bench-microtask";

  static void register_type() {
    if (!ContractFactory::instance().knows(kType)) {
      ContractFactory::instance().register_type(
          kType, [] { return std::make_unique<MicrotaskContract>(); });
    }
  }

  void on_deploy(CallContext& ctx, const Bytes& ctor_args) override {
    ctx.charge(GasSchedule::kStorageWrite);
    task_id_ = ctor_args;
  }

  void invoke(CallContext& ctx, const std::string& method, const Bytes& args) override {
    if (method != "submit") throw ContractRevert("unknown method");
    ctx.charge(GasSchedule::kStorageWrite);
    Bytes entry = ctx.sender.to_bytes();
    const Bytes digest = keccak256(args);
    entry.insert(entry.end(), digest.begin(), digest.end());
    entries_.push_back(std::move(entry));
  }

  std::optional<Bytes> snapshot_state() const override {
    Bytes out;
    append_frame(out, task_id_);
    append_u32_be(out, static_cast<std::uint32_t>(entries_.size()));
    for (const Bytes& e : entries_) append_frame(out, e);
    return out;
  }

  void restore_state(const Bytes& state) override {
    // An entry is a 20-byte address plus a 32-byte keccak digest.
    constexpr std::size_t kMaxTaskIdBytes = 256;
    constexpr std::size_t kEntryBytes = Address::kSize + 32;
    constexpr std::uint32_t kMaxEntries = 1u << 20;
    ByteReader in(state, "microtask state");
    Bytes task_id = in.frame(kMaxTaskIdBytes);
    const std::uint32_t n = in.count(kMaxEntries);
    std::vector<Bytes> entries;
    entries.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) entries.push_back(in.frame(kEntryBytes));
    in.expect_end();
    task_id_ = std::move(task_id);
    entries_ = std::move(entries);
  }

  std::size_t entry_count() const { return entries_.size(); }

 private:
  Bytes task_id_;
  std::vector<Bytes> entries_;
};

Block mine_block(const GenesisConfig& genesis, const Bytes& parent, std::uint64_t number,
                 std::uint64_t stamp, const Address& miner, std::vector<Transaction> txs) {
  Block b;
  b.header.parent_hash = parent;
  b.header.number = number;
  b.header.difficulty = genesis.difficulty;
  b.header.timestamp = stamp;
  b.header.miner = miner;
  b.transactions = std::move(txs);
  b.header.tx_root = Block::compute_tx_root(b.transactions);
  while (!proof_of_work_valid(b.header)) ++b.header.nonce;
  return b;
}

struct ValidationResult {
  std::size_t blocks = 0;
  std::size_t txs = 0;
  double serial_s = 0.0;
  double parallel_s = 0.0;
  bool bit_identical = false;
};

// Phase A: pre-mine a workload once, then race the serial oracle against the
// parallel pipeline on identical inputs, both from cold caches.
ValidationResult run_validation_phase(std::size_t num_blocks, std::size_t txs_per_block,
                                      unsigned parallel_threads) {
  Rng rng(20260808);
  constexpr std::size_t kWallets = 16;
  std::vector<std::unique_ptr<Wallet>> wallets;
  GenesisConfig genesis;
  genesis.difficulty = 4;  // trivial PoW: this phase measures validation
  for (std::size_t i = 0; i < kWallets; ++i) {
    wallets.push_back(std::make_unique<Wallet>(rng));
    genesis.allocations.emplace_back(wallets.back()->address(), 50'000'000'000ull);
  }
  const Address miner = wallets[0]->address();

  // Each wallet deploys one microtask contract in block 1, then the rest of
  // the workload interleaves contract submits and plain transfers.
  std::vector<Address> contracts;
  std::vector<Transaction> deploys;
  for (std::size_t i = 0; i < kWallets; ++i) {
    contracts.push_back(Address::for_contract(wallets[i]->address(), wallets[i]->next_nonce()));
    deploys.push_back(wallets[i]->make_transaction(
        Address{}, 0, 200'000, MicrotaskContract::kType, zl::to_bytes("task-" + std::to_string(i))));
  }

  const Block genesis_block = genesis.build();
  std::vector<Block> blocks;
  blocks.push_back(mine_block(genesis, genesis_block.hash(), 1, 1, miner, std::move(deploys)));
  for (std::size_t n = 2; n <= num_blocks; ++n) {
    std::vector<Transaction> txs;
    txs.reserve(txs_per_block);
    for (std::size_t t = 0; t < txs_per_block; ++t) {
      Wallet& w = *wallets[(n * txs_per_block + t) % kWallets];
      if (t % 3 == 0) {
        txs.push_back(w.make_transaction(contracts[t % contracts.size()], 0, 60'000, "submit",
                                         zl::to_bytes("answer-" + std::to_string(t))));
      } else {
        txs.push_back(w.make_transaction(wallets[(t + 1) % kWallets]->address(), 1, 31'000, "",
                                         {}));
      }
    }
    blocks.push_back(mine_block(genesis, blocks.back().hash(), n, n, miner, std::move(txs)));
  }

  const auto apply_all = [&](bool parallel) {
    set_parallel_validation(parallel);
    clear_validation_caches();
    set_num_threads(parallel ? parallel_threads : 1);
    Blockchain chain(genesis);
    const auto t0 = Clock::now();
    for (const Block& b : blocks) {
      if (!chain.add_block(b)) {
        std::fprintf(stderr, "FATAL: pre-mined block %llu rejected\n",
                     static_cast<unsigned long long>(b.header.number));
        std::exit(1);
      }
    }
    const double elapsed = secs_since(t0);
    const std::optional<Bytes> snapshot = chain.state().snapshot_bytes();
    if (!snapshot.has_value()) {
      std::fprintf(stderr, "FATAL: state snapshot unavailable\n");
      std::exit(1);
    }
    return std::pair<double, Bytes>{elapsed, *snapshot};
  };

  std::fprintf(stderr, "[validation] serial oracle (1 thread, cold caches)...\n");
  const auto [serial_s, serial_state] = apply_all(false);
  std::fprintf(stderr, "[validation] parallel pipeline (%u threads, cold caches)...\n",
               parallel_threads);
  const auto [parallel_s, parallel_state] = apply_all(true);
  set_parallel_validation(true);

  ValidationResult result;
  result.blocks = blocks.size();
  result.txs = (num_blocks - 1) * txs_per_block + kWallets;
  result.serial_s = serial_s;
  result.parallel_s = parallel_s;
  result.bit_identical = serial_state == parallel_state;
  return result;
}

struct TestnetResult {
  std::size_t contracts = 0;
  std::size_t submissions = 0;
  std::size_t wallets = 0;
  double ingest_tx_per_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t sim_ms = 0;
  std::uint64_t blocks_to_quiescence = 0;
  bool all_confirmed = false;
};

// Phase B: flood the deterministic testnet and measure end-to-end chain
// throughput — admission, gossip, template building, mining, validation.
TestnetResult run_testnet_phase(std::size_t num_contracts, std::size_t num_submissions,
                                std::size_t num_wallets) {
  Rng rng(777);
  GenesisConfig genesis;
  genesis.difficulty = 64;
  std::vector<std::unique_ptr<Wallet>> wallets;
  for (std::size_t i = 0; i < num_wallets; ++i) {
    wallets.push_back(std::make_unique<Wallet>(rng));
    genesis.allocations.emplace_back(wallets.back()->address(), 500'000'000'000ull);
  }
  Wallet coinbase(rng);

  SimNetwork net({.base_latency_ms = 5, .jitter_ms = 3, .seed = 99});
  MinerNode miner1(net, genesis, coinbase.address());
  MinerNode miner2(net, genesis, coinbase.address());
  Node observer(net, genesis);

  const auto quiesce = [&](const std::vector<Bytes>& tx_hashes, std::uint64_t deadline_ms) {
    std::size_t confirmed_from = 0;
    const std::uint64_t deadline = net.now() + deadline_ms;
    while (net.now() < deadline) {
      net.run_for(50);
      while (confirmed_from < tx_hashes.size() &&
             observer.chain().find_receipt(tx_hashes[confirmed_from]).has_value()) {
        ++confirmed_from;
      }
      if (confirmed_from == tx_hashes.size()) return true;
    }
    return false;
  };

  // Stage 1: deploy the task contracts (round-robin across wallets).
  std::vector<Address> contracts;
  std::vector<Bytes> deploy_hashes;
  for (std::size_t c = 0; c < num_contracts; ++c) {
    Wallet& w = *wallets[c % num_wallets];
    contracts.push_back(Address::for_contract(w.address(), w.next_nonce()));
    const Transaction tx = w.make_transaction(Address{}, 0, 200'000, MicrotaskContract::kType,
                                              zl::to_bytes("task-" + std::to_string(c)));
    deploy_hashes.push_back(tx.hash());
    observer.submit_transaction(tx);
  }
  if (!quiesce(deploy_hashes, 600'000)) {
    std::fprintf(stderr, "FATAL: task deployments did not confirm\n");
    std::exit(1);
  }
  const std::uint64_t deploy_height = observer.chain().height();

  // Stage 2: the submission flood, timed wall-clock from first injection to
  // the last confirmation at the observer.
  TestnetResult result;
  result.contracts = num_contracts;
  result.submissions = num_submissions;
  result.wallets = num_wallets;

  std::vector<Bytes> submit_hashes;
  submit_hashes.reserve(num_submissions);
  const auto t0 = Clock::now();
  const std::uint64_t sim_start = net.now();
  for (std::size_t s = 0; s < num_submissions; ++s) {
    Wallet& w = *wallets[s % num_wallets];
    const Transaction tx =
        w.make_transaction(contracts[s % num_contracts], 0, 60'000, "submit",
                           zl::to_bytes("worker-answer-" + std::to_string(s)));
    submit_hashes.push_back(tx.hash());
    // Inject at alternating nodes, as if workers connect to different peers.
    (s % 2 == 0 ? static_cast<Node&>(miner1) : observer).submit_transaction(tx);
    if (s % 64 == 63) net.run_for(1);  // interleave injection with delivery
  }
  result.all_confirmed = quiesce(submit_hashes, 3'600'000);
  result.wall_s = secs_since(t0);
  result.sim_ms = net.now() - sim_start;
  result.blocks_to_quiescence = observer.chain().height() - deploy_height;
  result.ingest_tx_per_s =
      result.wall_s > 0.0 ? static_cast<double>(num_submissions) / result.wall_s : 0.0;
  return result;
}

}  // namespace
}  // namespace zl::chain

int main(int argc, char** argv) {
  using namespace zl::chain;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  MicrotaskContract::register_type();

  unsigned hardware_threads = std::thread::hardware_concurrency();
  if (hardware_threads == 0) hardware_threads = 1;
  unsigned parallel_threads = zl::num_threads();
  if (hardware_threads > 1 && parallel_threads <= 1) parallel_threads = hardware_threads;
  if (parallel_threads > hardware_threads) parallel_threads = hardware_threads;
  const bool speedup_meaningful = hardware_threads > 1;
  if (!speedup_meaningful) {
    std::fprintf(stderr,
                 "[scale] WARNING: single hardware thread — the parallel validation pass runs "
                 "serially and the speedup figure is suppressed\n");
  }

  const std::size_t val_blocks = smoke ? 16 : 50;
  const std::size_t val_txs_per_block = smoke ? 24 : 200;
  const std::size_t net_contracts = smoke ? 20 : 200;
  const std::size_t net_submissions = smoke ? 400 : 10'000;
  const std::size_t net_wallets = smoke ? 8 : 25;

  const ValidationResult val =
      run_validation_phase(val_blocks, val_txs_per_block, parallel_threads);
  if (!val.bit_identical) {
    std::fprintf(stderr, "FATAL: parallel validation diverged from the serial oracle\n");
    return 1;
  }
  zl::set_num_threads(parallel_threads);

  // Phase B runs with a clean registry so the obs section below reflects the
  // testnet churn alone (cache hit rates, span totals), not phase A.
  zl::obs::reset();

  std::fprintf(stderr, "[testnet] %zu contracts, %zu submissions, %zu wallets...\n",
               net_contracts, net_submissions, net_wallets);
  const TestnetResult tn = run_testnet_phase(net_contracts, net_submissions, net_wallets);
  if (!tn.all_confirmed) {
    std::fprintf(stderr, "FATAL: testnet did not quiesce within the deadline\n");
    return 1;
  }

  const double rss_mb = peak_rss_mb();
  const double speedup = val.parallel_s > 0.0 ? val.serial_s / val.parallel_s : 0.0;
  const zl::obs::Snapshot obs_snap = zl::obs::snapshot();
  const auto rate_json = [](double r) {
    char buf[32];
    if (r < 0.0) return std::string("null");
    std::snprintf(buf, sizeof buf, "%.4f", r);
    return std::string(buf);
  };

  std::printf("\nCHAIN THROUGHPUT — marketplace at scale%s\n", smoke ? " (smoke)" : "");
  std::printf("validation: %zu blocks / %zu txs  serial %.3fs  parallel %.3fs", val.blocks,
              val.txs, val.serial_s, val.parallel_s);
  if (speedup_meaningful) {
    std::printf("  speedup %.2fx", speedup);
  }
  std::printf("  bit_identical=%s\n", val.bit_identical ? "true" : "false");
  std::printf("testnet:    %zu contracts, %zu submissions  %.0f tx/s ingest  %llu blocks to "
              "quiescence  (%.1fs wall, %llu sim-ms)\n",
              tn.contracts, tn.submissions, tn.ingest_tx_per_s,
              static_cast<unsigned long long>(tn.blocks_to_quiescence), tn.wall_s,
              static_cast<unsigned long long>(tn.sim_ms));
  std::printf("peak RSS:   %.1f MiB\n", rss_mb);

  const char* json_path = "BENCH_scale.json";
  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WARNING: could not open %s for writing\n", json_path);
    return 0;
  }
  std::fprintf(f,
               "{\n"
               "  \"smoke\": %s,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"validation\": {\n"
               "    \"blocks\": %zu,\n"
               "    \"txs\": %zu,\n"
               "    \"serial_s\": %.6f,\n"
               "    \"parallel_s\": %.6f,\n"
               "    \"parallel_threads\": %u,\n",
               smoke ? "true" : "false", hardware_threads, val.blocks, val.txs, val.serial_s,
               val.parallel_s, parallel_threads);
  if (speedup_meaningful) {
    std::fprintf(f, "    \"speedup\": %.3f,\n", speedup);
  } else {
    std::fprintf(f,
                 "    \"speedup\": null,\n"
                 "    \"speedup_warning\": \"single hardware thread: serial-vs-parallel ratio "
                 "is not meaningful\",\n");
  }
  std::fprintf(f,
               "    \"bit_identical\": %s\n"
               "  },\n"
               "  \"testnet\": {\n"
               "    \"contracts\": %zu,\n"
               "    \"submissions\": %zu,\n"
               "    \"wallets\": %zu,\n"
               "    \"ingest_tx_per_s\": %.1f,\n"
               "    \"wall_s\": %.3f,\n"
               "    \"sim_ms\": %llu,\n"
               "    \"blocks_to_quiescence\": %llu,\n"
               "    \"all_confirmed\": %s\n"
               "  },\n"
               "  \"peak_rss_mb\": %.1f,\n",
               val.bit_identical ? "true" : "false", tn.contracts, tn.submissions, tn.wallets,
               tn.ingest_tx_per_s, tn.wall_s, static_cast<unsigned long long>(tn.sim_ms),
               static_cast<unsigned long long>(tn.blocks_to_quiescence),
               tn.all_confirmed ? "true" : "false", rss_mb);
  // Why the numbers above moved: cache effectiveness and where the wall
  // time went, from the phase-B obs registry (empty maps when ZL_OBS=OFF).
  std::fprintf(f,
               "  \"obs\": {\n"
               "    \"sig_cache_hit_rate\": %s,\n"
               "    \"snark_cache_hit_rate\": %s,\n"
               "    \"metrics\": %s\n"
               "  }\n"
               "}\n",
               rate_json(obs_snap.hit_rate("validation.sig_cache")).c_str(),
               rate_json(obs_snap.hit_rate("validation.snark_cache")).c_str(),
               obs_snap.to_json("    ").c_str());
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return 0;
}
