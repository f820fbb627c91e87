#pragma once
// Shared harness of the whole-system benchmark: run options, the per-run
// result, sample statistics, and the benchmark's own spans.
//
// Every workload times its calls into the library with steady_clock, always.
// In a traced run (--trace 1) each timed call additionally becomes a span
// (name, start, end, parent, request id) kept in memory and written out at
// the end, and selected calls take zl::obs::snapshot() before and after so
// the library's own prover/validation/mempool/store counters can be charged
// to that call. The bookkeeping cost of all of this is itself timed and
// reported as `trace.overhead`.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace zl::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  std::string out_dir;  // span files and the chain_sync store go here
};

/// One run's outcome. `metrics` holds end-to-end metrics in an untraced run
/// and per-layer metrics in a traced one (names absent from it are reported
/// as 0: the layer did no work in this workload). `report` carries the
/// workload's own figure names, sample and base counts for the printed report.
struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, double> report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Count one checked operation; a false `ok` is a failure and is kept
  /// with its description (the run then exits non-zero).
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 32) failures.push_back(what);
    }
  }
};

/// Nearest-rank quantile (q in [0, 1]) of a sample; 0 for an empty one.
double quantile(std::vector<double> samples, double q);
inline double median(const std::vector<double>& samples) { return quantile(samples, 0.5); }
double mean(const std::vector<double>& samples);

/// Ratio that reads 0 instead of dividing by zero.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Obs registry snapshots taken around one call.
struct ObsDelta {
  zl::obs::Snapshot before;
  zl::obs::Snapshot after;
  /// Time the named span accumulated during the call, ms.
  double span_ms(const std::string& name) const;
};

/// The benchmark's own spans. Disabled (untraced run): `time` only reads
/// the clock. Enabled: spans nest through an explicit stack, and a call
/// given an ObsDelta is bracketed with obs snapshots.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  struct Span {
    const char* name;
    std::uint64_t request;
    Clock::time_point start;
    Clock::time_point end;
    int parent;  // index into spans(), -1 for a root span
  };

  /// Times `fn()` and returns its duration in seconds. In a traced run the
  /// call also becomes a span; with `obs` non-null the obs registry is
  /// snapshotted around it into *obs.
  template <typename Fn>
  double time(const char* name, std::uint64_t request, Fn&& fn, ObsDelta* obs = nullptr) {
    const int idx = open(name, request, obs);
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    close(idx, t0, t1, obs);
    return seconds_between(t0, t1);
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Wall time spent in span and snapshot bookkeeping, seconds.
  double overhead_s() const { return overhead_s_; }

  /// Writes the spans as a JSON array (times in µs from `origin`).
  void write_json(const std::string& path, Clock::time_point origin) const;

 private:
  int open(const char* name, std::uint64_t request, ObsDelta* obs);
  void close(int idx, Clock::time_point t0, Clock::time_point t1, ObsDelta* obs);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  double overhead_s_ = 0.0;
};

/// Host fingerprint, seed and pool width as a JSON object.
std::string fingerprint_json(const Options& opts, unsigned pool_width, const std::string& git_sha);

/// The per-layer metrics every workload derives alike from the obs registry
/// snapshot of its window (prover, validation caches, signature verify,
/// mempool, WAL and snapshot store), with their base counts in the report.
void add_obs_metrics(Result& r, const zl::obs::Snapshot& window, double window_s);

std::string json_number(double v);
std::string json_string(const std::string& s);

/// Workload entry points. Each sets up (several times; setup_s is the
/// median), starts its window cold, measures, checks its outputs, and fills
/// the result for the run's mode.
Result run_task_lifecycle(const Options& opts, Tracer& tracer);
Result run_marketplace(const Options& opts, Tracer& tracer);
Result run_chain_sync(const Options& opts, Tracer& tracer);

/// Number of times each workload repeats its set-up to report a median.
inline constexpr int kSetupRepeats = 3;

}  // namespace zl::perfbench
