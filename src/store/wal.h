#pragma once
// Write-ahead log: the durability primitive under the block journal.
//
// A log is a directory of segment files `wal-%08u.seg`, each a header plus
// a run of checksummed, length-prefixed records:
//
//   segment header:  "ZLWAL1\n" + u8 version
//   record:          u32 payload_len | u8 type | u32 crc | payload
//                    (crc = CRC-32 over type byte + payload)
//
// Append contract: append() stages the record at the tail; sync() makes
// every staged record durable. A record is ACKNOWLEDGED once sync() has
// returned — acknowledged records survive any power cut (torture-tested).
//
// Recovery contract: open() scans segments in order and replays records
// through a callback. The first record that is truncated, fails its CRC, or
// declares an insane length ends the log: the segment is truncated at that
// record's start, later segments are deleted, and appending resumes there.
// This is exactly the "tear at the tail, never in the middle" guarantee a
// prefix-torn disk gives an append-only file.
//
// Segments rotate at `max_segment_bytes`. Nothing is pruned: the block
// journal is the node's only block store (open_durable rebuilds the block
// tree from it), so every segment stays.

#include <functional>

#include "store/vfs.h"

namespace zl::store {

class Wal {
 public:
  struct Options {
    std::uint64_t max_segment_bytes = 4u << 20;  // rotate past this size
    bool sync_on_append = false;                 // fsync inside every append()
  };

  /// Replay callback: (record type, payload, segment index the record lives in).
  using ReplayFn = std::function<void(std::uint8_t, const Bytes&, std::uint64_t)>;

  /// Open (creating `dir` if needed), replay every intact record through
  /// `replay`, and position the append cursor after the last intact record.
  Wal(Vfs& vfs, std::string dir, const Options& options, const ReplayFn& replay);

  /// Append one record. Durable only after sync() unless sync_on_append.
  void append(std::uint8_t type, const Bytes& payload);

  /// fsync the tail segment — acknowledges every staged record.
  void sync();

  std::uint64_t segment_index() const { return segment_index_; }
  std::uint64_t records_replayed() const { return records_replayed_; }
  std::uint64_t records_truncated() const { return records_truncated_; }

  static constexpr std::size_t kHeaderSize = 8;        // "ZLWAL1\n" + version
  static constexpr std::size_t kRecordHeader = 4 + 1 + 4;  // len + type + crc
  static constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

 private:
  std::string segment_path(std::uint64_t index) const;
  void open_segment(std::uint64_t index, bool create);
  void rotate();

  Vfs& vfs_;
  std::string dir_;
  Options options_;
  std::unique_ptr<VfsFile> tail_;       // current segment
  std::uint64_t segment_index_ = 0;
  std::uint64_t tail_offset_ = 0;       // append cursor within the segment
  std::uint64_t records_replayed_ = 0;
  std::uint64_t records_truncated_ = 0;
  bool dirty_ = false;                  // staged appends since last sync
};

}  // namespace zl::store
