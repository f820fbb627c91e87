#pragma once
// FaultVfs — a deterministic in-memory disk with a crash-and-corruption
// model, used to *prove* the storage engine's recovery invariants rather
// than hope for them.
//
// Disk model (the ALICE/CrashMonkey abstraction):
//   - Every inode has a LIVE image (what reads see now) and a DURABLE image
//     (what survives a power cut). write()/truncate() touch only the live
//     image; sync() copies live -> durable for that inode. Handles bind to
//     the inode at open time, like POSIX fds.
//   - The namespace (path -> inode, rename results) likewise has a live and
//     a durable view; sync_dir() commits the live view of one directory.
//   - A power cut discards all live state. For each durably-reachable inode
//     the disk may additionally have flushed an arbitrary *prefix* of the
//     un-synced tail on its own (a torn write); the prefix length is drawn
//     deterministically from the seed, so every run of a test replays the
//     exact same tear. Fsync-acknowledged bytes are never lost.
//
// Fault schedule: `plan_crash(op)` arms a power cut at the op-th mutating
// operation (writes, syncs, renames, truncates, removes all count). The op
// raises PowerCut after applying a deterministic partial effect; every
// subsequent call on old handles raises IoError until `recover()` rebuilds
// the live state from the durable state. `op_count()` after an un-crashed
// workload enumerates the schedulable crash points.
//
// Independent fault knobs (all deterministic):
//   - short_reads:      read() returns at most 7 bytes per call
//   - capacity_bytes:   total live bytes cap; writes beyond raise NoSpace

#include <map>
#include <memory>
#include <set>

#include "crypto/rng.h"
#include "store/vfs.h"

namespace zl::store {

class FaultVfs final : public Vfs {
 public:
  explicit FaultVfs(std::uint64_t seed = 1) : rng_(seed) {}

  // --- fault schedule -----------------------------------------------------

  /// Arm a power cut at the `at_op`-th mutating operation from now
  /// (1 = the very next one). 0 disarms.
  void plan_crash(std::uint64_t at_op) {
    crash_at_op_ = at_op == 0 ? 0 : op_count_ + at_op;
  }

  /// Mutating operations performed so far (the crash-point space).
  std::uint64_t op_count() const { return op_count_; }

  bool crashed() const { return crashed_; }

  /// Post-crash reboot: rebuild live state from durable state. New open()
  /// calls then see exactly what a real machine would find after power-on.
  void recover();

  void set_short_reads(bool on) { short_reads_ = on; }
  /// 0 = unlimited.
  void set_capacity(std::uint64_t bytes) { capacity_bytes_ = bytes; }

  /// Flip one byte in both the live and durable image (models latent media
  /// corruption — e.g. a bit-rotted WAL tail recovery must catch by CRC).
  void corrupt(const std::string& path, std::uint64_t offset, std::uint8_t xor_mask);

  // --- Vfs ----------------------------------------------------------------

  std::unique_ptr<VfsFile> open(const std::string& path, bool create) override;
  bool exists(const std::string& path) override;
  void remove(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  std::vector<std::string> list(const std::string& dir) override;
  void make_dirs(const std::string& path) override;
  void sync_dir(const std::string& dir) override;

 private:
  friend class FaultFile;

  struct Inode {
    Bytes live;
    Bytes durable;
  };

  /// Count a mutating op; true means the armed crash point is reached — the
  /// caller applies its deterministic partial effect, then calls power_cut().
  bool tick_op();
  [[noreturn]] void power_cut();
  void check_alive() const;
  std::uint64_t live_bytes() const;

  std::map<std::string, std::shared_ptr<Inode>> live_ns_;
  std::map<std::string, std::shared_ptr<Inode>> durable_ns_;
  std::set<std::string> dirs_;  // make_dirs results (namespace only)

  Rng rng_;
  std::uint64_t op_count_ = 0;
  std::uint64_t crash_at_op_ = 0;  // absolute op index; 0 = disarmed
  std::uint64_t generation_ = 0;   // bumped on crash; stale handles die
  bool crashed_ = false;
  bool short_reads_ = false;
  std::uint64_t capacity_bytes_ = 0;
};

}  // namespace zl::store
