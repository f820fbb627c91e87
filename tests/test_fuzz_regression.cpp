// Corpus regression runner: replays every file under tests/fuzz_corpus/
// through its decoder-family fuzz entry point (tools/fuzz/fuzz_targets.h),
// with no libFuzzer or Clang required. Two jobs:
//
//   1. Every seed the generator produced (valid + deterministic mutants)
//      exercises the decoders on each plain ctest run.
//   2. Any crasher the ZL_FUZZ harnesses find is dropped into the matching
//      family directory and becomes a permanent regression case here —
//      an invariant violation aborts, a decoder exception other than a
//      decode error propagates, and either fails this test.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "fuzz_targets.h"

namespace fs = std::filesystem;

namespace {

using FuzzTarget = void (*)(const std::uint8_t*, std::size_t);

struct Family {
  const char* name;
  FuzzTarget target;
};

const Family kFamilies[] = {
    {"tx", zl::fuzz::fuzz_tx},           {"block", zl::fuzz::fuzz_block},
    {"proof", zl::fuzz::fuzz_proof},     {"wal", zl::fuzz::fuzz_wal},
    {"snapshot", zl::fuzz::fuzz_snapshot},
};

// Without this gtest prints the raw struct bytes (two pointers), which puts
// load-address-dependent text into every discovered ctest name.
void PrintTo(const Family& family, std::ostream* os) { *os << family.name; }

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

class FuzzCorpus : public testing::TestWithParam<Family> {};

TEST_P(FuzzCorpus, ReplaysClean) {
  const Family& family = GetParam();
  const fs::path dir = fs::path(ZL_SOURCE_DIR) / "tests" / "fuzz_corpus" / family.name;
  ASSERT_TRUE(fs::is_directory(dir)) << dir << " missing — run zl_gen_fuzz_corpus";
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << dir << " has no corpus files";
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    const std::vector<std::uint8_t> bytes = slurp(file);
    family.target(bytes.data(), bytes.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FuzzCorpus, testing::ValuesIn(kFamilies),
                         [](const testing::TestParamInfo<Family>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
