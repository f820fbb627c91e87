#pragma once
// Blocks: Keccak-linked headers, a Merkle root over the included
// transactions, and a simplified Keccak proof-of-work. Difficulty is fixed
// per network (the test net mines at toy difficulty, like the paper's
// private Ethereum test net).

#include <vector>

#include "chain/tx.h"

namespace zl::chain {

struct BlockHeader {
  Bytes parent_hash;       // 32 bytes (zero for genesis)
  std::uint64_t number = 0;
  Bytes tx_root;           // Merkle root (Keccak) of transaction hashes
  std::uint64_t timestamp = 0;  // simulation time, ms
  std::uint64_t difficulty = 1;
  std::uint64_t nonce = 0;  // PoW nonce
  Address miner;

  Bytes to_bytes() const;
  Bytes hash() const { return keccak256(to_bytes()); }
};

struct Block {
  BlockHeader header;
  std::vector<Transaction> transactions;

  Bytes hash() const { return header.hash(); }

  /// Keccak Merkle root over the transactions' stored hashes (pairwise,
  /// duplicate-last).
  static Bytes compute_tx_root(const std::vector<Transaction>& txs);

  /// header.tx_root matches the transactions and the PoW target is met.
  bool well_formed() const;
};

/// The tx-root Merkle fold (pairwise Keccak, duplicate-last) over the ids
/// of a non-empty body. With `siblings`, also appends tx `leaf`'s bottom-up
/// sibling path: the inclusion proof a light client checks.
Hash32 fold_tx_root(const std::vector<Transaction>& txs, std::size_t leaf = 0,
                    std::vector<Hash32>* siblings = nullptr);

/// PoW check: keccak(header) < 2^256 / difficulty.
bool proof_of_work_valid(const BlockHeader& header);

}  // namespace zl::chain
