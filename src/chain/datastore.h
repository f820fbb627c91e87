#pragma once
// Content-addressed off-chain storage — the Swarm/IPFS-style substrate the
// paper points to for data-intensive tasks (§VII open question 2, footnote
// 13: "when a requester is publishing a data-intensive crowdsourcing task
// (e.g. image labeling) ... it is not necessary for her to store all the
// data in the chain").
//
// Contracts store only 32-byte SHA-256 digests; the blobs live in this
// store. Readers verify content against the digest, so the store is
// trustless: a malicious storage node can withhold data but never forge it.
//
// Two backends behind one API:
//   - in-memory (default ctor): blobs in a map keyed by the raw 32-byte
//     digest (not its hex string — half the index memory, no conversion on
//     the hot path).
//   - disk-backed (Vfs ctor): one file per blob named by hex digest,
//     published with the crash-safe write-tmp-then-rename protocol and
//     re-verified against the digest on every read, so a torn or bit-rotted
//     replica degrades to "not found", never to forged content.

#include <map>
#include <optional>

#include "crypto/sha256.h"
#include "store/vfs.h"

namespace zl::chain {

class OffChainStore {
 public:
  /// In-memory store (the historical default).
  OffChainStore() = default;

  /// Disk-backed store rooted at `dir` (created if needed); existing blobs
  /// are indexed on open.
  OffChainStore(store::Vfs& vfs, std::string dir);

  /// Store a blob; returns its content address (SHA-256 digest). Idempotent
  /// and cheap when the blob is already present: containment is checked
  /// before any copy or disk write.
  Bytes put(const Bytes& content);

  /// Fetch by digest; std::nullopt if unknown. The returned content always
  /// hashes back to the digest (verified on the way out).
  std::optional<Bytes> get(const Bytes& digest) const;

  bool contains(const Bytes& digest) const;
  std::size_t size() const { return index_.size(); }
  std::size_t total_bytes() const { return total_bytes_; }
  bool durable() const { return vfs_ != nullptr; }

  /// Verify a fetched blob against its claimed address (what every honest
  /// client does after retrieval from an untrusted storage peer).
  static bool verify(const Bytes& digest, const Bytes& content);

 private:
  std::string blob_path(const Hash32& digest) const;

  std::map<Hash32, std::size_t> index_;  // digest -> blob size (both modes)
  std::map<Hash32, Bytes> blobs_;        // contents (in-memory mode only)
  std::size_t total_bytes_ = 0;
  store::Vfs* vfs_ = nullptr;
  std::string dir_;
};

}  // namespace zl::chain
