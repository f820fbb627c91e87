#include "chain/light_client.h"

#include <stdexcept>

namespace zl::chain {

Bytes TxInclusionProof::to_bytes() const {
  Bytes out;
  append_frame(out, tx_hash);
  append_u64_be(out, index);
  append_u32_be(out, static_cast<std::uint32_t>(siblings.size()));
  for (const Bytes& s : siblings) append_frame(out, s);
  append_frame(out, block_hash);
  return out;
}

TxInclusionProof TxInclusionProof::from_bytes(const Bytes& bytes) {
  // A Merkle path over a <= 2^20-tx block is at most 20 siblings deep; 64
  // leaves ample headroom without letting a forged count matter.
  constexpr std::size_t kMaxHashBytes = 32;
  constexpr std::uint32_t kMaxSiblings = 64;
  TxInclusionProof proof;
  ByteReader r(bytes, "TxInclusionProof");
  proof.tx_hash = r.frame(kMaxHashBytes);
  proof.index = r.u64();
  const std::uint32_t count = r.count(kMaxSiblings);
  for (std::uint32_t i = 0; i < count; ++i) proof.siblings.push_back(r.frame(kMaxHashBytes));
  proof.block_hash = r.frame(kMaxHashBytes);
  r.expect_end();
  return proof;
}

TxInclusionProof make_tx_inclusion_proof(const Block& block, std::size_t tx_index) {
  if (tx_index >= block.transactions.size()) {
    throw std::out_of_range("make_tx_inclusion_proof: index out of range");
  }
  TxInclusionProof proof;
  proof.tx_hash = block.transactions[tx_index].hash();
  proof.index = tx_index;
  proof.block_hash = block.hash();

  std::vector<Bytes> layer;
  for (const Transaction& tx : block.transactions) layer.push_back(tx.hash());
  std::size_t index = tx_index;
  while (layer.size() > 1) {
    const std::size_t sibling = (index % 2 == 0) ? std::min(index + 1, layer.size() - 1) : index - 1;
    proof.siblings.push_back(layer[sibling]);
    std::vector<Bytes> next;
    for (std::size_t i = 0; i < layer.size(); i += 2) {
      const Bytes& left = layer[i];
      const Bytes& right = (i + 1 < layer.size()) ? layer[i + 1] : layer[i];
      next.push_back(keccak256(concat({left, right})));
    }
    layer = std::move(next);
    index /= 2;
  }
  return proof;
}

Bytes tx_root_from_proof(const TxInclusionProof& proof) {
  Bytes cur = proof.tx_hash;
  std::size_t index = proof.index;
  for (const Bytes& sibling : proof.siblings) {
    cur = (index % 2 == 0) ? keccak256(concat({cur, sibling}))
                           : keccak256(concat({sibling, cur}));
    index /= 2;
  }
  return cur;
}

LightClient::LightClient(const Bytes& genesis_hash, std::uint64_t difficulty)
    : difficulty_(difficulty), head_hash_(genesis_hash) {
  Entry genesis;
  genesis.header.number = 0;
  genesis.total_difficulty = 0;
  headers_[to_hash32(genesis_hash)] = genesis;
}

std::uint64_t LightClient::height() const {
  return headers_.at(to_hash32(head_hash_)).header.number;
}

bool LightClient::add_header(const BlockHeader& header) {
  const Hash32 hash = to_hash32(header.hash());
  if (headers_.contains(hash)) return false;
  if (header.difficulty != difficulty_ || !proof_of_work_valid(header)) return false;

  const Entry* parent = find_by_hash(headers_, header.parent_hash);
  if (parent == nullptr) {
    // Park it until the parent arrives; a parent hash that is not 32 bytes
    // long can never connect.
    if (header.parent_hash.size() == std::tuple_size_v<Hash32>) {
      orphans_[to_hash32(header.parent_hash)].push_back(header);
    }
    return false;
  }
  if (header.number != parent->header.number + 1) return false;

  Entry entry;
  entry.header = header;
  entry.total_difficulty = parent->total_difficulty + header.difficulty;
  headers_[hash] = entry;
  choose_head();

  // Reconnect waiting children.
  const auto it = orphans_.find(hash);
  if (it != orphans_.end()) {
    const std::vector<BlockHeader> children = std::move(it->second);
    orphans_.erase(it);
    for (const BlockHeader& child : children) add_header(child);
  }
  return true;
}

void LightClient::choose_head() {
  // Heaviest chain; headers_ iterates in ascending hash order, so keeping
  // the first of equally heavy entries breaks ties toward the lowest hash.
  auto best = headers_.begin();
  for (auto it = headers_.begin(); it != headers_.end(); ++it) {
    if (it->second.total_difficulty > best->second.total_difficulty) best = it;
  }
  head_hash_.assign(best->first.begin(), best->first.end());
}

std::optional<std::uint64_t> LightClient::confirmations(const Bytes& block_hash) const {
  // Walk the canonical chain from the head down to genesis.
  Bytes cursor = head_hash_;
  std::uint64_t depth = 0;
  while (true) {
    if (cursor == block_hash) return depth;
    const Entry* entry = find_by_hash(headers_, cursor);
    if (entry == nullptr || entry->header.number == 0) return std::nullopt;
    cursor = entry->header.parent_hash;
    ++depth;
  }
}

bool LightClient::verify_inclusion(const TxInclusionProof& proof,
                                   std::uint64_t min_confirmations) const {
  const Entry* entry = find_by_hash(headers_, proof.block_hash);
  if (entry == nullptr) return false;
  const auto depth = confirmations(proof.block_hash);
  if (!depth.has_value() || *depth + 1 < min_confirmations) return false;
  return tx_root_from_proof(proof) == entry->header.tx_root;
}

}  // namespace zl::chain
