#include "store/journal.h"

#include "crypto/bytes.h"

namespace zl::store {

// Record payload layout: 32-byte block hash || consensus block bytes. The
// hash is stored (not recomputed) so the journal layer stays agnostic of the
// chain's hash function; the CRC in the WAL record guards both fields.
BlockJournal::BlockJournal(Vfs& vfs, const std::string& dir, const Wal::Options& options,
                           const BlockFn& on_block)
    : wal_(vfs, dir, options,
           [this, &on_block](std::uint8_t type, const Bytes& payload, std::uint64_t segment) {
             if (type != kBlockRecord || payload.size() < 32) return;  // foreign record: skip
             ByteReader r(payload, "journal block record");
             index_[to_hash32(r.take(32))] = Position{segment, sequence_++};
             on_block(r.take(r.remaining()));
           }) {}

void BlockJournal::append_block(const Bytes& block_hash, const Bytes& block_bytes) {
  if (block_hash.size() != 32) throw IoError("journal: block hash must be 32 bytes");
  const Hash32 key = to_hash32(block_hash);
  if (index_.contains(key)) return;  // already journaled
  Bytes payload;
  payload.reserve(32 + block_bytes.size());
  payload.insert(payload.end(), block_hash.begin(), block_hash.end());
  payload.insert(payload.end(), block_bytes.begin(), block_bytes.end());
  wal_.append(kBlockRecord, payload);
  index_[key] = Position{wal_.segment_index(), sequence_++};
}

bool BlockJournal::contains(const Bytes& block_hash) const {
  return find_by_hash(index_, block_hash) != nullptr;
}

}  // namespace zl::store
