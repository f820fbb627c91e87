#include "chain/datastore.h"

namespace zl::chain {

OffChainStore::OffChainStore(store::Vfs& vfs, std::string dir)
    : vfs_(&vfs), dir_(std::move(dir)) {
  vfs_->make_dirs(dir_);
  // Index what's already on disk. File names are hex digests; anything that
  // doesn't parse (stray tmp file from a crash mid-publish) is ignored —
  // get() re-verifies content anyway, so a bogus index entry could only
  // ever degrade to "not found".
  for (const std::string& name : vfs_->list(dir_)) {
    Hash32 digest;
    try {
      digest = to_hash32(from_hex(name));
    } catch (const std::invalid_argument&) {
      continue;
    }
    const auto file = vfs_->open(dir_ + "/" + name, /*create=*/false);
    const std::size_t bytes = file->size();
    if (index_.emplace(digest, bytes).second) total_bytes_ += bytes;
  }
}

std::string OffChainStore::blob_path(const Hash32& digest) const {
  return dir_ + "/" + to_hex(digest.data(), digest.size());
}

Bytes OffChainStore::put(const Bytes& content) {
  const Bytes digest = Sha256::hash(content);
  const Hash32 key = to_hash32(digest);
  if (index_.contains(key)) return digest;  // content-addressed: same bytes
  if (vfs_ != nullptr) {
    store::atomic_write_file(*vfs_, blob_path(key), content);
  } else {
    blobs_.emplace(key, content);
  }
  index_.emplace(key, content.size());
  total_bytes_ += content.size();
  return digest;
}

std::optional<Bytes> OffChainStore::get(const Bytes& digest) const {
  if (!contains(digest)) return std::nullopt;
  const Hash32 key = to_hash32(digest);
  Bytes content;
  if (vfs_ != nullptr) {
    try {
      content = store::read_file(*vfs_, blob_path(key));
    } catch (const store::IoError&) {
      return std::nullopt;  // replica lost
    }
  } else {
    content = blobs_.at(key);
  }
  if (!verify(digest, content)) return std::nullopt;  // corrupted replica
  return content;
}

bool OffChainStore::contains(const Bytes& digest) const {
  return find_by_hash(index_, digest) != nullptr;
}

bool OffChainStore::verify(const Bytes& digest, const Bytes& content) {
  return ct_equal(Sha256::hash(content), digest);
}

}  // namespace zl::chain
