#pragma once
// Light-weight nodes (paper footnote 12: "requesters and workers can even
// run on top of so-called light-weight nodes, which eventually allows them
// receive and send messages only related to crowdsourcing tasks").
//
// A LightClient keeps only the header chain (PoW-validated, heaviest-chain
// fork choice) and verifies transaction inclusion with Merkle proofs
// against a header's tx_root, served by any untrusted full node. It never
// stores bodies or executes contracts.

#include <map>
#include <optional>

#include "chain/block.h"

namespace zl::chain {

/// Merkle inclusion proof for one transaction in a block body (the tx-root
/// tree is pairwise Keccak with duplicate-last, see Block::compute_tx_root).
struct TxInclusionProof {
  Bytes tx_hash;
  std::size_t index = 0;          // position in the block
  std::vector<Bytes> siblings;    // bottom-up sibling hashes
  Bytes block_hash;               // header this proof commits to

  Bytes to_bytes() const;
  static TxInclusionProof from_bytes(const Bytes& bytes);
};

/// Build a proof from a full block (what a full node serves on request).
TxInclusionProof make_tx_inclusion_proof(const Block& block, std::size_t tx_index);

/// Recompute the root implied by the proof.
Bytes tx_root_from_proof(const TxInclusionProof& proof);

class LightClient {
 public:
  /// Track headers for a chain with the given genesis hash and difficulty.
  LightClient(const Bytes& genesis_hash, std::uint64_t difficulty);

  /// Ingest a header (any order; orphans are parked like full nodes do).
  /// Returns true if the header (eventually) connects.
  bool add_header(const BlockHeader& header);

  std::uint64_t height() const;
  const Bytes& head_hash() const { return head_hash_; }
  bool knows(const Bytes& block_hash) const {
    return find_by_hash(headers_, block_hash) != nullptr;
  }

  /// Depth of a block under the current head (0 = head itself);
  /// std::nullopt if the block is not on the canonical chain.
  std::optional<std::uint64_t> confirmations(const Bytes& block_hash) const;

  /// SPV check: the proof's root matches the tracked header's tx_root and
  /// the block is canonical with at least `min_confirmations`.
  bool verify_inclusion(const TxInclusionProof& proof,
                        std::uint64_t min_confirmations = 1) const;

 private:
  struct Entry {
    BlockHeader header;
    std::uint64_t total_difficulty = 0;
  };

  void choose_head();

  std::uint64_t difficulty_;
  Bytes head_hash_;
  std::map<Hash32, Entry> headers_;
  std::map<Hash32, std::vector<BlockHeader>> orphans_;  // parent hash -> children
};

}  // namespace zl::chain
