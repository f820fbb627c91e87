#pragma once
// Host fingerprint shared by the BENCH_*.json writers: a figure is only
// comparable with one taken on the same CPU, thread count, compiler and build.
// ZL_BENCH_COMPILER / ZL_BENCH_BUILD_TYPE come from bench/CMakeLists.txt.

#include <fstream>
#include <string>

namespace zl::bench {

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The `"host": {...}` JSON member, without a trailing comma.
inline std::string host_json(unsigned hardware_threads) {
#if defined(ZL_NATIVE)
  const char* zl_native = "true";
#else
  const char* zl_native = "false";
#endif
  return "\"host\": {\"cpu_model\": \"" + cpu_model() +
         "\", \"hardware_threads\": " + std::to_string(hardware_threads) +
         ", \"compiler\": \"" ZL_BENCH_COMPILER "\", \"build_type\": \"" ZL_BENCH_BUILD_TYPE
         "\", \"zl_native\": " + zl_native + "}";
}

}  // namespace zl::bench
