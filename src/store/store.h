#pragma once
// OpenOptions — how a node asks for its storage. The default is the
// historical in-memory mode (every existing test and simulation keeps
// running unchanged); pointing `vfs` + `path` at a directory turns on the
// durable engine: block journal + periodic state snapshots, opened and
// recovered on construction.

#include <string>

#include "store/fault_vfs.h"
#include "store/journal.h"
#include "store/snapshot.h"
#include "store/vfs.h"
#include "store/wal.h"

namespace zl::store {

struct OpenOptions {
  /// nullptr => pure in-memory node (no durability, no files).
  Vfs* vfs = nullptr;
  /// Root directory for this node's data (journal/ and snapshots/ beneath).
  std::string path;
  /// Materialize a state snapshot every K canonical blocks (0 = never).
  std::uint64_t snapshot_interval = 16;
  /// WAL segment rotation threshold.
  std::uint64_t max_segment_bytes = 4u << 20;

  bool durable() const { return vfs != nullptr; }
};

}  // namespace zl::store
