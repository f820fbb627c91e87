#include "chain/block.h"

#include <algorithm>
#include <cstring>

#include "crypto/bigint.h"

namespace zl::chain {

Bytes BlockHeader::to_bytes() const {
  Bytes out;
  append_frame(out, parent_hash);
  append_u64_be(out, number);
  append_frame(out, tx_root);
  append_u64_be(out, timestamp);
  append_u64_be(out, difficulty);
  append_u64_be(out, nonce);
  append_frame(out, miner.to_bytes());
  return out;
}

Hash32 fold_tx_root(const std::vector<Transaction>& txs, std::size_t leaf,
                    std::vector<Hash32>* siblings) {
  // Each level is folded in place into the front of one buffer: node i of
  // the next level is keccak(left || right) over a fixed 64-byte pair.
  std::vector<Hash32> layer;
  layer.reserve(txs.size());
  for (const Transaction& tx : txs) layer.push_back(tx.id());
  std::array<std::uint8_t, 64> pair;
  for (std::size_t n = layer.size(); n > 1; n = (n + 1) / 2) {
    if (siblings != nullptr) {
      siblings->push_back(layer[leaf % 2 == 0 ? std::min(leaf + 1, n - 1) : leaf - 1]);
      leaf /= 2;
    }
    for (std::size_t i = 0; i < n; i += 2) {
      const Hash32& right = layer[i + 1 < n ? i + 1 : i];
      std::memcpy(pair.data(), layer[i].data(), 32);
      std::memcpy(pair.data() + 32, right.data(), 32);
      layer[i / 2] = keccak256(pair.data(), pair.size());
    }
  }
  return layer.at(0);
}

Bytes Block::compute_tx_root(const std::vector<Transaction>& txs) {
  if (txs.empty()) return Bytes(32, 0x00);
  const Hash32 root = fold_tx_root(txs);
  return Bytes(root.begin(), root.end());
}

bool proof_of_work_valid(const BlockHeader& header) {
  if (header.difficulty == 0) return false;
  const BigInt target = (BigInt(1) << 256) / BigInt(static_cast<unsigned long>(header.difficulty));
  return bigint_from_bytes(header.hash()) < target;
}

bool Block::well_formed() const {
  return header.tx_root == compute_tx_root(transactions) && proof_of_work_valid(header);
}

}  // namespace zl::chain
