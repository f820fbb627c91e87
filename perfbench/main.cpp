// zl_perfbench — the whole-system benchmark (see README.md).
//
//   zl_perfbench --workload task_lifecycle|marketplace|chain_sync --seed N
//                --seconds S --trace 0|1 [--out DIR] [--git-sha SHA]
//
// Prints a human-readable report (host fingerprint, seed, pool width, the
// workload's named metrics with sample and base counts) and, as the last
// line of stdout, one JSON object {correct, attempted, failed, metrics}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exits non-zero if any output check failed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"

namespace zl::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json. Every workload reports every metric; README.md
// says what each end-to-end metric means on each workload. A per-layer
// metric of a layer the workload does not use reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},    {"peak_rss_mb", "MiB"}, {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"}, {"cycle_s", "s"},       {"finish_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"snark.prove_ms.auth_p50", "ms"},
    {"snark.prove_ms.reward_p50", "ms"},
    {"snark.multiexp_share", "ratio"},
    {"snark.fft_share", "ratio"},
    {"snark.setup_ms", "ms"},
    {"snark.verify_count", "count"},
    {"snark.verify_ms_mean", "ms"},
    {"zebralancer.submit_nonprove_ms_p50", "ms"},
    {"zebralancer.reward_nonprove_ms_p50", "ms"},
    {"zebralancer.publish_ms_p50", "ms"},
    {"chain.confirm_wait_ms_p50", "ms"},
    {"chain.blocks_per_task", "count"},
    {"chain.snark_cache_hit_rate", "ratio"},
    {"crypto.sig_verify_count", "count"},
    {"crypto.sig_verify_us_mean", "us"},
    {"crypto.sig_verify_share", "ratio"},
    {"chain.sig_cache_hit_rate", "ratio"},
    {"chain.submit_us_p50", "us"},
    {"chain.submit_us_p99", "us"},
    {"chain.run_for_share", "ratio"},
    {"chain.messages_per_tx", "count"},
    {"chain.mempool.build_block_ms_total", "ms"},
    {"chain.mempool.txs_per_template", "count"},
    {"chain.mempool.admit_reject_ratio", "ratio"},
    {"chain.blocks_to_quiescence", "count"},
    {"chain.receipt_poll_share", "ratio"},
    {"chain.decode_us_per_block", "us"},
    {"chain.add_block_ms_p50", "ms"},
    {"chain.add_block_ms_p99", "ms"},
    {"chain.add_block_growth", "ratio"},
    {"chain.prevalidate_share", "ratio"},
    {"chain.reorg_depth", "count"},
    {"store.wal.append_count", "count"},
    {"store.wal.bytes_per_block", "B"},
    {"store.wal.fsync_us_mean", "us"},
    {"store.snapshot.save_count", "count"},
    {"store.snapshot.save_ms_total", "ms"},
    {"store.snapshot.load_ms", "ms"},
    {"trace.overhead", "ratio"},
};

/// The pool is pinned to at most this many threads so results from larger
/// hosts stay comparable; the width used is part of every result.
constexpr unsigned kMaxPoolWidth = 4;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "zl_perfbench: %s\nusage: zl_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--git-sha SHA]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const std::string& flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage("bad value for " + flag);
  return v;
}

std::string result_line(const Result& result, bool trace) {
  std::ostringstream line;
  const bool correct = result.failed == 0 && result.attempted > 0;
  line << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
       << result.attempted << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& m) {
    const auto it = result.metrics.find(m.name);
    const double v = it == result.metrics.end() ? 0.0 : it->second;
    line << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": " << json_number(v)
         << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  };
  if (trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  line << "}}";
  return line.str();
}

}  // namespace
}  // namespace zl::perfbench

int main(int argc, char** argv) {
  using namespace zl::perfbench;
  Options opts;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = parse_u64(value, flag);
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<unsigned>(parse_u64(value, flag));
    } else if (flag == "--trace") {
      opts.trace = parse_u64(value, flag) != 0;
    } else if (flag == "--out") {
      opts.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opts.seconds == 0) usage("--seconds must be positive");
  if (opts.out_dir.empty()) usage("--out is required");

  Result (*run)(const Options&, Tracer&) = nullptr;
  if (opts.workload == "task_lifecycle") run = run_task_lifecycle;
  if (opts.workload == "marketplace") run = run_marketplace;
  if (opts.workload == "chain_sync") run = run_chain_sync;
  if (run == nullptr) usage("unknown workload '" + opts.workload + "'");

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned pool_width = std::min(hw, kMaxPoolWidth);
  zl::set_num_threads(pool_width);
  std::printf("fingerprint %s\n", fingerprint_json(opts, pool_width, git_sha).c_str());
  std::fflush(stdout);

  Tracer tracer(opts.trace);
  const Clock::time_point origin = Clock::now();
  Result result;
  try {
    result = run(opts, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zl_perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }

  if (opts.trace) {
    result.metrics["trace.overhead"] = ratio(tracer.overhead_s(), result.report["window_s"]);
    result.report["trace.spans"] = static_cast<double>(tracer.spans().size());
    const std::string path =
        opts.out_dir + "/spans-" + opts.workload + "-seed" + std::to_string(opts.seed) + ".json";
    tracer.write_json(path, origin);
    std::printf("spans written to %s\n", path.c_str());
  } else {
    result.metrics["peak_rss_mb"] = peak_rss_mb();
  }

  for (const auto& [name, value] : result.report) {
    std::printf("  %-40s %s\n", name.c_str(), json_number(value).c_str());
  }
  std::printf("  %-40s %s (%llu failed of %llu attempted)\n", "error_rate",
              json_number(ratio(static_cast<double>(result.failed),
                                static_cast<double>(result.attempted)))
                  .c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& f : result.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("%s\n", result_line(result, opts.trace).c_str());
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
