// Planted decode-taint violations for the zl-lint corpus: every pattern in
// this file must be flagged (recall). The file is scanned, never compiled,
// so the helpers it calls need no declarations.
//
// Expected findings:
//   unchecked-length  x2  (two wraparound-prone `off + len > buf.size()`
//                          checks)
//   unbounded-resize  x2  (a resize and a reserve sized by wire-derived,
//                          uncapped lengths)

#include <cstdint>
#include <vector>

using Bytes = std::vector<std::uint8_t>;

namespace planted {

bool parse_record(Reader& r, const Bytes& payload, std::vector<Bytes>& items) {
  std::size_t off = 0;
  // An uncapped wire length: u32() bounds nothing.
  const std::uint32_t len = r.u32();
  // The classic wraparound: off + len can wrap and pass the check.
  if (off + len > payload.size()) return false;
  // Wire-derived length sizes the allocation before the bytes exist.
  items.resize(len);
  const Bytes body = r.frame(64);
  std::size_t pos = 0;
  if (pos + 9 >= body.size()) return false;
  return true;
}

void parse_header(Reader& r, std::vector<Bytes>& entries) {
  std::uint32_t n = 0;
  n = r.u32();  // taints `n`: an uncapped wire length
  entries.reserve(n);
}

}  // namespace planted
