// Harness pieces shared by the workloads: statistics, the span recorder,
// obs deltas, the host fingerprint, and the per-layer metrics every
// workload derives the same way from the library's obs registry.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"

namespace zl::perfbench {

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double ObsDelta::span_ms(const std::string& name) const {
  const zl::obs::SpanSample* a = after.span(name);
  const zl::obs::SpanSample* b = before.span(name);
  return static_cast<double>((a ? a->total_ns : 0) - (b ? b->total_ns : 0)) / 1e6;
}

int Tracer::open(const char* name, std::uint64_t request, ObsDelta* obs) {
  if (!enabled_) return -1;
  const Clock::time_point t0 = Clock::now();
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, request, t0, t0, parent});
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  if (obs != nullptr) obs->before = zl::obs::snapshot();
  overhead_s_ += seconds_since(t0);
  return idx;
}

void Tracer::close(int idx, Clock::time_point t0, Clock::time_point t1, ObsDelta* obs) {
  if (!enabled_) return;
  if (obs != nullptr) obs->after = zl::obs::snapshot();
  spans_[idx].start = t0;
  spans_[idx].end = t1;
  stack_.pop_back();
  overhead_s_ += seconds_since(t1);
}

void Tracer::write_json(const std::string& path, Clock::time_point origin) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << json_string(s.name) << ",\"request\":" << s.request
        << ",\"parent\":" << s.parent << ",\"start_us\":" << json_number(us(s.start))
        << ",\"end_us\":" << json_number(us(s.end)) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

namespace {

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) continue;
    if (colon + 2 <= line.size()) return line.substr(colon + 2);
  }
  return "unknown";
}

double hist_sum(const zl::obs::Snapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : static_cast<double>(it->second.sum);
}

double hist_count(const zl::obs::Snapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : static_cast<double>(it->second.count);
}

double span_ms(const zl::obs::Snapshot& s, const std::string& name) {
  const zl::obs::SpanSample* span = s.span(name);
  return span == nullptr ? 0.0 : static_cast<double>(span->total_ns) / 1e6;
}

double span_count(const zl::obs::Snapshot& s, const std::string& name) {
  const zl::obs::SpanSample* span = s.span(name);
  return span == nullptr ? 0.0 : static_cast<double>(span->count);
}

double counter(const zl::obs::Snapshot& s, const std::string& name) {
  return static_cast<double>(s.counter(name));
}

}  // namespace

std::string fingerprint_json(const Options& opts, unsigned pool_width, const std::string& git_sha) {
  std::ostringstream out;
  out << "{\"cpu_model\":" << json_string(read_cpu_model())
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"compiler\":" << json_string(ZL_BENCH_COMPILER)
      << ",\"build_type\":" << json_string(ZL_BENCH_BUILD_TYPE)
      // Fixed by perfbench/CMakeLists.txt: ZL_OBS on, ZL_NATIVE off.
      << ",\"zl_obs\":true,\"zl_native\":false"
      << ",\"git_sha\":" << json_string(git_sha) << ",\"workload\":" << json_string(opts.workload)
      << ",\"seed\":" << opts.seed << ",\"seconds\":" << opts.seconds
      << ",\"trace\":" << (opts.trace ? "true" : "false") << ",\"pool_width\":" << pool_width
      << "}";
  return out.str();
}

void add_obs_metrics(Result& r, const zl::obs::Snapshot& w, double window_s) {
  auto& m = r.metrics;
  auto& rep = r.report;

  const double prove_ms = span_ms(w, "prover.prove");
  m["snark.multiexp_share"] = ratio(span_ms(w, "prover.multiexp"), prove_ms);
  m["snark.fft_share"] = ratio(span_ms(w, "prover.compute_h"), prove_ms);
  rep["base.prover.prove_ms_total"] = prove_ms;
  const double verifies = span_count(w, "prover.verify");
  m["snark.verify_count"] = verifies;
  m["snark.verify_ms_mean"] = ratio(span_ms(w, "prover.verify"), verifies);

  const double snark_hit = counter(w, "validation.snark_cache.hit");
  const double snark_miss = counter(w, "validation.snark_cache.miss");
  m["chain.snark_cache_hit_rate"] = ratio(snark_hit, snark_hit + snark_miss);
  rep["base.snark_cache.hit"] = snark_hit;
  rep["base.snark_cache.miss"] = snark_miss;

  const double sig_hit = counter(w, "validation.sig_cache.hit");
  const double sig_miss = counter(w, "validation.sig_cache.miss");
  const double sig_us = hist_sum(w, "validation.sig_verify_us");
  m["crypto.sig_verify_count"] = sig_miss;
  m["crypto.sig_verify_us_mean"] = ratio(sig_us, hist_count(w, "validation.sig_verify_us"));
  m["crypto.sig_verify_share"] = ratio(sig_us / 1e6, window_s);
  m["chain.sig_cache_hit_rate"] = ratio(sig_hit, sig_hit + sig_miss);
  rep["base.sig_cache.hit"] = sig_hit;
  rep["base.sig_cache.miss"] = sig_miss;

  const double templates = counter(w, "mempool.build_block.count");
  m["chain.mempool.build_block_ms_total"] = span_ms(w, "mempool.build_block");
  m["chain.mempool.txs_per_template"] = ratio(counter(w, "mempool.build_block.txs"), templates);
  rep["base.mempool.templates"] = templates;
  double admitted = 0.0;
  double attempts = 0.0;
  for (const auto& [name, value] : w.counters) {
    if (name.rfind("mempool.admit.", 0) != 0) continue;
    attempts += static_cast<double>(value);
    if (name == "mempool.admit.admitted") admitted += static_cast<double>(value);
  }
  m["chain.mempool.admit_reject_ratio"] = ratio(attempts - admitted, attempts);
  rep["base.mempool.admit_attempts"] = attempts;

  const double appends = counter(w, "store.wal.append.count");
  m["store.wal.append_count"] = appends;
  m["store.wal.bytes_per_block"] = ratio(counter(w, "store.wal.append.bytes"), appends);
  m["store.wal.fsync_us_mean"] =
      ratio(hist_sum(w, "store.wal.fsync_us"), hist_count(w, "store.wal.fsync_us"));
  rep["base.store.wal.fsync_count"] = hist_count(w, "store.wal.fsync_us");
  m["store.snapshot.save_count"] = span_count(w, "store.snapshot.save");
  m["store.snapshot.save_ms_total"] = span_ms(w, "store.snapshot.save");
}

}  // namespace zl::perfbench
