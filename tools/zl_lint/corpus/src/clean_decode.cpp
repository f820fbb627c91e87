// Known-good decode patterns for the zl-lint corpus: nothing in this file
// may be flagged (precision). Scanned, never compiled.

#include <cstdint>
#include <vector>

using Bytes = std::vector<std::uint8_t>;

namespace clean {

inline constexpr std::uint32_t kMaxEntries = 1u << 16;

void parse_with_cursor(Reader& r, std::vector<Bytes>& out) {
  // count(cap) yields a bounded value: sizing a reserve with it is the
  // sanctioned pattern, and frame(cap) bounds every payload read.
  const std::uint32_t n = r.count(kMaxEntries);
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.frame(64));
  r.expect_end();
}

bool all_below(const Bytes& v, std::uint8_t limit) {
  // `i + 1 < v.size()` loop guards are not the throw-if-out-of-bounds shape
  // and must stay clean.
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    if (v[i] > limit) return false;
  }
  return v.size() > 0;
}

}  // namespace clean
