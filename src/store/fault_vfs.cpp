#include "store/fault_vfs.h"

#include <algorithm>
#include <limits>

namespace zl::store {

namespace {

bool in_dir(const std::string& path, const std::string& dir) {
  if (dir.empty()) return path.find('/') == std::string::npos;
  if (path.size() <= dir.size() + 1 || path.compare(0, dir.size(), dir) != 0 ||
      path[dir.size()] != '/') {
    return false;
  }
  // Directly under `dir`: no further slash.
  return path.find('/', dir.size() + 1) == std::string::npos;
}

}  // namespace

class FaultFile final : public VfsFile {
 public:
  FaultFile(FaultVfs& vfs, std::shared_ptr<FaultVfs::Inode> inode, std::string path,
            std::uint64_t generation)
      : vfs_(vfs), inode_(std::move(inode)), path_(std::move(path)), generation_(generation) {}

  std::size_t read(std::uint64_t offset, std::uint8_t* out, std::size_t n) override {
    check();
    const Bytes& data = inode_->live;
    if (offset >= data.size() || n == 0) return 0;
    std::size_t take = std::min<std::size_t>(n, data.size() - offset);
    if (vfs_.short_reads_) take = std::min<std::size_t>(take, 7);
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(offset), take, out);
    return take;
  }

  void write(std::uint64_t offset, const std::uint8_t* data, std::size_t n) override {
    check();
    Bytes& img = inode_->live;
    // offset + n must not wrap: a wrapped end-of-write would pass the
    // capacity check below and then resize to a tiny (wrapped) size while
    // copy_n writes past it.
    if (n > std::numeric_limits<std::uint64_t>::max() - offset) {
      throw NoSpace("write " + path_ + ": offset + size overflows");
    }
    const std::uint64_t end = offset + n;
    if (vfs_.capacity_bytes_ != 0) {
      const std::uint64_t grow = end > img.size() ? end - img.size() : 0;
      if (vfs_.live_bytes() + grow > vfs_.capacity_bytes_) {
        // A failed write is still an I/O event a crash can interleave with.
        if (vfs_.tick_op()) vfs_.power_cut();
        throw NoSpace("write " + path_);
      }
    }
    const bool crash_now = vfs_.tick_op();
    // A power cut during a write applies a deterministic prefix of it — the
    // torn write. The tail the disk never saw is simply absent.
    const std::size_t apply = crash_now ? vfs_.rng_.uniform(n + 1) : n;
    const std::uint64_t write_end = offset + apply;  // <= end, so no wrap
    if (write_end > img.size()) img.resize(write_end);
    std::copy_n(data, apply, img.begin() + static_cast<std::ptrdiff_t>(offset));
    if (crash_now) vfs_.power_cut();
  }

  std::uint64_t size() const override {
    check();
    return inode_->live.size();
  }

  void truncate(std::uint64_t new_size) override {
    check();
    if (vfs_.tick_op()) vfs_.power_cut();
    inode_->live.resize(new_size, 0x00);
  }

  void sync() override {
    check();
    if (vfs_.tick_op()) vfs_.power_cut();
    inode_->durable = inode_->live;
  }

 private:
  void check() const {
    vfs_.check_alive();
    if (generation_ != vfs_.generation_) throw IoError("stale handle " + path_);
  }

  FaultVfs& vfs_;
  std::shared_ptr<FaultVfs::Inode> inode_;
  std::string path_;
  std::uint64_t generation_;
};

// --- crash machinery --------------------------------------------------------

bool FaultVfs::tick_op() {
  ++op_count_;
  return crash_at_op_ != 0 && op_count_ == crash_at_op_;
}

void FaultVfs::power_cut() {
  const std::uint64_t at = op_count_;
  // For every durably-reachable inode with un-synced data the disk may have
  // flushed a prefix of the tail on its own. Fsync-acknowledged bytes are
  // never lost; anything past the seeded tear point is gone.
  for (auto& [path, inode] : durable_ns_) {
    if (inode->live.size() <= inode->durable.size()) continue;
    const std::uint64_t span = inode->live.size() - inode->durable.size();
    const std::uint64_t extra = rng_.uniform(span + 1);
    inode->durable.insert(
        inode->durable.end(),
        inode->live.begin() + static_cast<std::ptrdiff_t>(inode->durable.size()),
        inode->live.begin() + static_cast<std::ptrdiff_t>(inode->durable.size() + extra));
  }
  crashed_ = true;
  crash_at_op_ = 0;
  throw PowerCut(at);
}

void FaultVfs::recover() {
  // Power-on: the durable namespace is the namespace; every inode's live
  // image resets to its durable image.
  live_ns_ = durable_ns_;
  for (auto& [path, inode] : live_ns_) inode->live = inode->durable;
  crashed_ = false;
  ++generation_;
}

void FaultVfs::check_alive() const {
  if (crashed_) throw IoError("disk is powered off (crash injected)");
}

std::uint64_t FaultVfs::live_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [path, inode] : live_ns_) total += inode->live.size();
  return total;
}

void FaultVfs::corrupt(const std::string& path, std::uint64_t offset, std::uint8_t xor_mask) {
  const auto it = live_ns_.find(path);
  if (it == live_ns_.end()) return;
  if (offset < it->second->live.size()) it->second->live[offset] ^= xor_mask;
  if (offset < it->second->durable.size()) it->second->durable[offset] ^= xor_mask;
}

// --- Vfs surface -------------------------------------------------------------

std::unique_ptr<VfsFile> FaultVfs::open(const std::string& path, bool create) {
  check_alive();
  auto it = live_ns_.find(path);
  if (it == live_ns_.end()) {
    if (!create) throw IoError("open " + path + ": no such file");
    // Dir entry stays volatile until sync_dir(parent).
    it = live_ns_.emplace(path, std::make_shared<Inode>()).first;
  }
  return std::make_unique<FaultFile>(*this, it->second, path, generation_);
}

bool FaultVfs::exists(const std::string& path) {
  check_alive();
  return live_ns_.find(path) != live_ns_.end();
}

void FaultVfs::remove(const std::string& path) {
  check_alive();
  if (tick_op()) power_cut();
  live_ns_.erase(path);
}

void FaultVfs::rename(const std::string& from, const std::string& to) {
  check_alive();
  const auto it = live_ns_.find(from);
  if (it == live_ns_.end()) throw IoError("rename " + from + ": no such file");
  if (tick_op()) power_cut();
  // Atomic in the live view; durability of the swap waits for sync_dir.
  live_ns_[to] = it->second;
  live_ns_.erase(from);
}

std::vector<std::string> FaultVfs::list(const std::string& dir) {
  check_alive();
  std::vector<std::string> names;
  for (const auto& [path, inode] : live_ns_) {
    if (in_dir(path, dir)) names.push_back(path.substr(dir.empty() ? 0 : dir.size() + 1));
  }
  std::sort(names.begin(), names.end());
  return names;
}

void FaultVfs::make_dirs(const std::string& path) {
  check_alive();
  dirs_.insert(path);
}

void FaultVfs::sync_dir(const std::string& dir) {
  check_alive();
  if (tick_op()) power_cut();
  // Commit the live namespace of `dir`: entries present become durably
  // reachable (with whatever content their inode's last fsync committed —
  // possibly none, the real-world "zero-length file after crash" artifact);
  // entries gone (removed or renamed away) lose durability.
  for (auto it = durable_ns_.begin(); it != durable_ns_.end();) {
    if (in_dir(it->first, dir) && live_ns_.find(it->first) == live_ns_.end()) {
      it = durable_ns_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [path, inode] : live_ns_) {
    if (in_dir(path, dir)) durable_ns_[path] = inode;
  }
}

}  // namespace zl::store
