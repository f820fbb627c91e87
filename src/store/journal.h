#pragma once
// Block journal: the append-only record of every structurally-valid block a
// node has ever accepted, in arrival order (parents always precede children
// because Blockchain::add_block requires a known parent).
//
// Built on the WAL, so it inherits the acknowledgement and recovery
// contracts: a block whose append_block()+sync() has returned survives any
// power cut; a torn or corrupt tail record truncates the journal there and
// the node simply re-learns the lost blocks from its peers.
//
// The in-memory index maps block hash -> journal position, built during
// replay; it lets pruning decide which whole segments a snapshot has made
// redundant without re-reading them.

#include <map>

#include "store/wal.h"

namespace zl::store {

class BlockJournal {
 public:
  struct Position {
    std::uint64_t segment = 0;
    std::uint64_t sequence = 0;  // 0-based record number across the log
  };

  /// Replay callback: consensus-encoded block bytes, in append order.
  using BlockFn = std::function<void(const Bytes&)>;

  /// Open `dir` (created if needed) and replay every intact block record.
  BlockJournal(Vfs& vfs, const std::string& dir, const Wal::Options& options,
               const BlockFn& on_block);

  /// Append a consensus-encoded block. Durable once sync() returns.
  void append_block(const Bytes& block_hash, const Bytes& block_bytes);

  void sync() { wal_.sync(); }

  bool contains(const Bytes& block_hash) const;
  std::size_t size() const { return index_.size(); }

  std::uint64_t records_truncated() const { return wal_.records_truncated(); }

 private:
  static constexpr std::uint8_t kBlockRecord = 1;

  std::map<Hash32, Position> index_;  // block hash -> position
  std::uint64_t sequence_ = 0;
  Wal wal_;  // initialized last: its replay fills index_
};

}  // namespace zl::store
