#include "store/wal.h"

#include <cstdio>
#include <cstring>

#include "obs/obs.h"

namespace zl::store {

namespace {

constexpr char kMagic[7] = {'Z', 'L', 'W', 'A', 'L', '1', '\n'};
constexpr std::uint8_t kVersion = 1;

void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

std::string Wal::segment_path(std::uint64_t index) const {
  char name[32];
  std::snprintf(name, sizeof name, "wal-%08llu.seg", static_cast<unsigned long long>(index));
  return dir_ + "/" + name;
}

Wal::Wal(Vfs& vfs, std::string dir, const Options& options, const ReplayFn& replay)
    : vfs_(vfs), dir_(std::move(dir)), options_(options) {
  vfs_.make_dirs(dir_);

  // Collect existing segments, sorted (list() sorts; zero-padded names sort
  // numerically). Anything that is not a segment file is ignored.
  std::vector<std::uint64_t> segments;
  for (const std::string& name : vfs_.list(dir_)) {
    unsigned long long index = 0;
    if (std::sscanf(name.c_str(), "wal-%08llu.seg", &index) == 1) segments.push_back(index);
  }

  if (segments.empty()) {
    segment_index_ = 1;
    open_segment(segment_index_, /*create=*/true);
    return;
  }

  // Replay segment by segment. The first corrupt/truncated record ends the
  // log: truncate there, delete every later segment, append from that point.
  bool log_ended = false;
  bool removed_any = false;
  std::uint64_t end_segment = segments.front();
  std::uint64_t end_offset = kHeaderSize;
  for (const std::uint64_t index : segments) {
    if (log_ended) {
      vfs_.remove(segment_path(index));
      removed_any = true;
      ++records_truncated_;  // count discarded segments as truncation events
      continue;
    }
    const std::unique_ptr<VfsFile> file = vfs_.open(segment_path(index), /*create=*/false);
    const std::uint64_t file_size = file->size();
    std::uint8_t header[kHeaderSize];
    if (read_exact(*file, 0, header, kHeaderSize) != kHeaderSize ||
        // Public file-format magic, not secret. zl-lint: allow(secret-memcmp)
        std::memcmp(header, kMagic, sizeof kMagic) != 0) {
      // Unreadable header (e.g. the torn file a crash between create and
      // first sync leaves behind): the log ends before this segment. Wipe
      // the garbage now — open_segment below writes a fresh header, and a
      // stale half-header must never survive to fail the NEXT recovery
      // after new records were acknowledged on top of it.
      file->truncate(0);
      file->sync();
      log_ended = true;
      end_segment = index;
      end_offset = kHeaderSize;
      ++records_truncated_;
      continue;
    }
    std::uint64_t offset = kHeaderSize;
    while (offset < file_size) {
      std::uint8_t rec_header[kRecordHeader];
      if (read_exact(*file, offset, rec_header, kRecordHeader) != kRecordHeader) {
        log_ended = true;  // torn record header at the tail
        break;
      }
      ByteReader rh(rec_header, kRecordHeader, "wal record header");
      const std::uint32_t len = rh.u32();
      const std::uint8_t type = rh.u8();
      const std::uint32_t crc = rh.u32();
      // read_exact just proved offset + kRecordHeader <= file_size, so this
      // subtraction cannot wrap the way `offset + kRecordHeader + len` could.
      const std::uint64_t payload_avail = file_size - offset - kRecordHeader;
      if (len > kMaxRecordBytes || len > payload_avail) {
        log_ended = true;  // insane length or payload torn off
        break;
      }
      Bytes payload(len);
      if (read_exact(*file, offset + kRecordHeader, payload.data(), len) != len) {
        log_ended = true;
        break;
      }
      const std::uint32_t expect = crc32(payload.data(), payload.size(), crc32(&type, 1));
      if (expect != crc) {
        log_ended = true;  // corrupt payload (bit rot or tear)
        break;
      }
      replay(type, payload, index);
      ++records_replayed_;
      offset += kRecordHeader + len;
    }
    end_segment = index;
    end_offset = offset;
    if (log_ended) {
      ++records_truncated_;
    }
    // A segment that ends cleanly mid-list but is followed by another
    // segment continues the log; only corruption ends it.
  }

  // Deleted trailing segments must stay deleted across a later crash, or a
  // future recovery would replay stale records past the truncation point.
  if (removed_any) vfs_.sync_dir(dir_);

  segment_index_ = end_segment;
  open_segment(segment_index_, /*create=*/true);
  if (tail_->size() != end_offset) {
    tail_->truncate(end_offset);
    tail_->sync();
  }
  tail_offset_ = end_offset;
}

void Wal::open_segment(std::uint64_t index, bool create) {
  tail_ = vfs_.open(segment_path(index), create);
  if (tail_->size() < kHeaderSize) {
    std::uint8_t header[kHeaderSize];
    std::memcpy(header, kMagic, sizeof kMagic);
    header[7] = kVersion;
    tail_->truncate(0);
    tail_->write(0, header, kHeaderSize);
    tail_->sync();
    vfs_.sync_dir(dir_);  // the new segment's dir entry must be durable
  }
  tail_offset_ = tail_->size();
}

void Wal::rotate() {
  tail_->sync();  // seal the old segment
  ++segment_index_;
  open_segment(segment_index_, /*create=*/true);
}

void Wal::append(std::uint8_t type, const Bytes& payload) {
  if (payload.size() > kMaxRecordBytes) throw IoError("wal: record too large");
  if (tail_offset_ + kRecordHeader + payload.size() > options_.max_segment_bytes &&
      tail_offset_ > kHeaderSize) {
    rotate();
  }
  Bytes record(kRecordHeader + payload.size());
  store_u32(record.data(), static_cast<std::uint32_t>(payload.size()));
  record[4] = type;
  store_u32(record.data() + 5, crc32(payload.data(), payload.size(), crc32(&type, 1)));
  std::memcpy(record.data() + kRecordHeader, payload.data(), payload.size());
  tail_->write(tail_offset_, record.data(), record.size());
  tail_offset_ += record.size();
  dirty_ = true;
  ZL_OBS_COUNTER_ADD("store.wal.append.count", 1);
  ZL_OBS_COUNTER_ADD("store.wal.append.bytes", record.size());
  if (options_.sync_on_append) sync();
}

void Wal::sync() {
  if (!dirty_) return;
  ZL_OBS_SCOPED_LATENCY_US("store.wal.fsync_us");
  ZL_OBS_COUNTER_ADD("store.wal.fsync.count", 1);
  tail_->sync();
  dirty_ = false;
}

}  // namespace zl::store
