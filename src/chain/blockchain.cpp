#include "chain/blockchain.h"

#include <iterator>
#include <stdexcept>

#include "chain/validation.h"

namespace zl::chain {

namespace {

// A checkpoint payload is everything needed to stand the node's canonical
// view back up at a block: the world state plus every receipt accumulated on
// the branch so far (receipts answer find_receipt / confirmation_block for
// pre-checkpoint transactions, which mempool hygiene depends on).
//
//   frame(ChainState::snapshot_bytes)
//   u32 n_receipts | n x (frame(tx hash) | u64 block_no | frame(receipt))
//
// Receipts are emitted in std::map order (tx hash), so the encoding is
// deterministic and usable as a state fingerprint in tests.

using ReceiptMap = std::map<Hash32, std::pair<Receipt, std::uint64_t>>;

std::optional<Bytes> encode_checkpoint(const ChainState& state, const ReceiptMap& receipts) {
  std::optional<Bytes> state_bytes = state.snapshot_bytes();
  if (!state_bytes.has_value()) return std::nullopt;  // some contract opted out
  Bytes out;
  append_frame(out, *state_bytes);
  append_u32_be(out, static_cast<std::uint32_t>(receipts.size()));
  for (const auto& [tx_hash, entry] : receipts) {
    append_frame(out, Bytes(tx_hash.begin(), tx_hash.end()));
    append_u64_be(out, entry.second);
    append_frame(out, entry.first.to_bytes());
  }
  return out;
}

void decode_checkpoint(const Bytes& payload, ChainState& state, ReceiptMap& receipts) {
  // Checkpoint payloads come off disk, which the trust model treats as
  // corruptible (bit rot, a truncated copy): cap every field. The state
  // frame shares the WAL's 64 MiB record ceiling; each receipt entry
  // consumes at least 16 bytes, so the count cap can never be used to
  // inflate the map beyond what the payload physically encodes.
  constexpr std::size_t kMaxStateBytes = 64u << 20;
  constexpr std::size_t kMaxHashBytes = 32;
  constexpr std::size_t kMaxReceiptBytes = 1u << 20;
  constexpr std::uint32_t kMaxReceipts = (64u << 20) / 16;
  ByteReader r(payload, "checkpoint");
  const Bytes state_bytes = r.frame(kMaxStateBytes);
  state = ChainState::from_snapshot(state_bytes);
  receipts.clear();
  const std::uint32_t n = r.count(kMaxReceipts);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Hash32 tx_hash = to_hash32(r.frame(kMaxHashBytes));
    const std::uint64_t block_no = r.u64();
    const Receipt receipt = Receipt::from_bytes(r.frame(kMaxReceiptBytes));
    receipts[tx_hash] = {receipt, block_no};
  }
  r.expect_end();
}

// In-memory restore points kept per process; old ones are evicted lowest
// height first (a reorg deeper than the oldest retained checkpoint falls
// back to genesis replay, which stays correct).
constexpr std::size_t kMaxCheckpoints = 16;

}  // namespace

Block GenesisConfig::build() const {
  Block genesis;
  genesis.header.parent_hash = Bytes(32, 0x00);
  genesis.header.number = 0;
  genesis.header.tx_root = Block::compute_tx_root({});
  genesis.header.difficulty = 1;  // genesis is not mined
  return genesis;
}

Blockchain::Blockchain(const GenesisConfig& genesis, const store::OpenOptions& storage)
    : genesis_(genesis), storage_(storage) {
  const Block g = genesis.build();
  head_hash_ = g.hash();
  blocks_[to_hash32(head_hash_)] = Entry{g, 0, false};
  for (const auto& [addr, amount] : genesis_.allocations) state_.credit(addr, amount);
  if (storage_.durable()) open_durable();
}

void Blockchain::open_durable() {
  store::Vfs& vfs = *storage_.vfs;
  vfs.make_dirs(storage_.path);

  store::Wal::Options wal_options;
  wal_options.max_segment_bytes = storage_.max_segment_bytes;

  // Phase 1: recover the journal; collect the raw block records it replays.
  std::vector<Bytes> journaled;
  journal_ = std::make_unique<store::BlockJournal>(
      vfs, storage_.path + "/journal", wal_options,
      [&journaled](const Bytes& block_bytes) { journaled.push_back(block_bytes); });
  snapshots_ = std::make_unique<store::SnapshotStore>(vfs, storage_.path + "/snapshots");

  // Phase 2: rebuild the block tree structurally (no transaction replay
  // yet). Journal order guarantees parents precede children; a record that
  // no longer links up (e.g. its parent fell to tail truncation) is skipped,
  // matching how a live node treats an orphan.
  for (const Bytes& raw : journaled) {
    Block block;
    try {
      block = block_from_bytes(raw);
    } catch (const std::exception&) {
      continue;  // unreadable record: treat like a block we never received
    }
    insert_block(block, nullptr);
  }

  // Phase 3: seed state from the newest intact snapshot, if it names a block
  // we actually have. Anything it doesn't cover is replayed by fork choice.
  if (const std::optional<store::Snapshot> snap = snapshots_->load_newest()) {
    const Entry* entry = find_by_hash(blocks_, snap->head_hash);
    if (entry != nullptr && !entry->invalid && entry->block.header.number == snap->height) {
      try {
        ChainState restored;
        ReceiptMap restored_receipts;
        decode_checkpoint(snap->payload, restored, restored_receipts);
        state_ = std::move(restored);
        receipts_ = std::move(restored_receipts);
        head_hash_ = snap->head_hash;
        checkpoints_[to_hash32(snap->head_hash)] = Checkpoint{snap->height, snap->payload};
      } catch (const std::exception&) {
        // Undecodable payload (e.g. contract type from a different build):
        // ignore the snapshot and replay the journal from genesis.
      }
    }
  }

  // Phase 4: fork choice replays from the nearest checkpoint (the snapshot
  // we just restored, or genesis) up to the best journaled tip.
  choose_best_tip();
}

const Block& Blockchain::head() const { return blocks_.at(to_hash32(head_hash_)).block; }

bool Blockchain::insert_block(const Block& block, Bytes* hash_out) {
  const Bytes hash = block.hash();
  const Hash32 key = to_hash32(hash);
  if (blocks_.contains(key)) return false;
  const Entry* parent = find_by_hash(blocks_, block.header.parent_hash);
  if (parent == nullptr || parent->invalid) return false;
  if (block.header.number != parent->block.header.number + 1) return false;
  if (block.header.difficulty != genesis_.difficulty) return false;
  if (!block.well_formed()) return false;
  blocks_[key] = Entry{block, parent->total_difficulty + block.header.difficulty, false};
  if (hash_out != nullptr) *hash_out = hash;
  return true;
}

bool Blockchain::add_block(const Block& block) {
  Bytes hash;
  if (!insert_block(block, &hash)) return false;
  if (journal_ != nullptr) {
    // Journal and fsync before fork choice: once add_block returns true the
    // block is on disk, so a crash can never forget an acknowledged block.
    journal_->append_block(hash, block_to_bytes(block));
    journal_->sync();
  }
  choose_best_tip();
  return true;
}

bool Blockchain::apply_block(ChainState& state, ReceiptMap& receipts, const Block& block) {
  // Fan the expensive pure checks (signatures, snark proofs) out on the
  // thread pool; the sequential applies below then hit warm memos.
  prevalidate_block(state, block.transactions);
  for (const Transaction& tx : block.transactions) {
    try {
      Receipt r = state.apply_transaction(tx, block.header.number, block.header.miner);
      receipts[tx.id()] = {std::move(r), block.header.number};
    } catch (const std::invalid_argument&) {
      return false;
    }
  }
  return true;
}

void Blockchain::choose_best_tip() {
  for (;;) {
    // Highest total difficulty among valid blocks; ties go to the lowest
    // hash for network-wide determinism. blocks_ iterates in ascending hash
    // order, so keeping the first of equally heavy entries does exactly that.
    auto best = blocks_.end();
    for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
      if (it->second.invalid) continue;
      if (best == blocks_.end() || it->second.total_difficulty > best->second.total_difficulty) {
        best = it;
      }
    }
    const Hash32 head = to_hash32(head_hash_);
    if (best->first == head) return;
    // Fast path: the new tip extends the current head — apply just the new
    // block instead of replaying the whole chain.
    const Block& block = best->second.block;
    if (block.header.parent_hash == head_hash_) {
      if (apply_block(state_, receipts_, block)) {
        head_hash_.assign(best->first.begin(), best->first.end());
        std::vector<HeadEvent> confirmed;
        confirmed.reserve(block.transactions.size());
        for (const Transaction& tx : block.transactions) {
          confirmed.push_back(HeadEvent{tx.id(), true});
        }
        append_head_events(std::move(confirmed));
        maybe_checkpoint();
        return;
      }
      // Partial application dirtied the state: blacklist and rebuild the
      // previous canonical branch from scratch.
      best->second.invalid = true;
      adopt_branch(head);
      continue;
    }
    if (adopt_branch(best->first)) {
      maybe_checkpoint();
      return;
    }
    // adopt_branch blacklisted the tip (at least); retry with the next-best.
  }
}

bool Blockchain::adopt_branch(const Hash32& tip_hash) {
  // Walk the branch back from the tip until we hit a cached checkpoint (or
  // genesis); only the gap gets replayed.
  std::vector<std::pair<Hash32, Entry*>> branch;
  Hash32 cursor = tip_hash;
  const Bytes* base_payload = nullptr;
  while (true) {
    if (const auto cp = checkpoints_.find(cursor); cp != checkpoints_.end()) {
      base_payload = &cp->second.payload;
      break;
    }
    Entry& entry = blocks_.at(cursor);
    branch.emplace_back(cursor, &entry);
    if (entry.block.header.number == 0) break;
    cursor = to_hash32(entry.block.header.parent_hash);
  }

  ChainState fresh;
  ReceiptMap fresh_receipts;
  if (base_payload != nullptr) {
    decode_checkpoint(*base_payload, fresh, fresh_receipts);
  } else {
    for (const auto& [addr, amount] : genesis_.allocations) fresh.credit(addr, amount);
  }
  const std::uint64_t interval = storage_.snapshot_interval;
  for (auto it = branch.rbegin(); it != branch.rend(); ++it) {
    const auto& [hash, entry] = *it;
    const Block& block = entry->block;
    if (block.header.number == 0) continue;
    if (!apply_block(fresh, fresh_receipts, block)) {
      // Blacklist this block and everything above it on the branch (the
      // tip included): blacklisting this block alone would leave the
      // heavier tip selectable, and fork choice would replay it forever.
      for (auto up = branch.begin(); up != it.base(); ++up) up->second->invalid = true;
      return false;
    }
    // Leave restore points along the replayed stretch, so the next reorg
    // onto this branch starts even closer to the fork point.
    if (interval != 0 && block.header.number % interval == 0) {
      if (const std::optional<Bytes> payload = encode_checkpoint(fresh, fresh_receipts)) {
        record_checkpoint(hash, block.header.number, *payload, /*persist=*/false);
      }
    }
  }

  // Emit the canonical-set diff: a merge walk over the two sorted receipt
  // maps, so the event order (dropped and confirmed interleaved by tx hash)
  // is identical on every node that performs this reorg. Accumulated
  // locally and published in one batch below.
  std::vector<HeadEvent> diff;
  auto old_it = receipts_.cbegin();
  auto new_it = fresh_receipts.cbegin();
  while (old_it != receipts_.cend() || new_it != fresh_receipts.cend()) {
    if (new_it == fresh_receipts.cend() ||
        (old_it != receipts_.cend() && old_it->first < new_it->first)) {
      diff.push_back(HeadEvent{old_it->first, false});
      ++old_it;
    } else if (old_it == receipts_.cend() || new_it->first < old_it->first) {
      diff.push_back(HeadEvent{new_it->first, true});
      ++new_it;
    } else {
      ++old_it;  // confirmed on both branches: no membership change
      ++new_it;
    }
  }
  append_head_events(std::move(diff));

  state_ = std::move(fresh);
  receipts_ = std::move(fresh_receipts);
  head_hash_.assign(tip_hash.begin(), tip_hash.end());
  return true;
}

void Blockchain::append_head_events(std::vector<HeadEvent>&& events) {
  if (events.empty()) return;
  MutexLock lock(events_mu_);
  if (head_events_.empty()) {
    head_events_ = std::move(events);
  } else {
    head_events_.insert(head_events_.end(), std::make_move_iterator(events.begin()),
                        std::make_move_iterator(events.end()));
  }
}

void Blockchain::maybe_checkpoint() {
  const std::uint64_t interval = storage_.snapshot_interval;
  if (interval == 0) return;
  const std::uint64_t h = height();
  if (h == 0 || h % interval != 0) return;
  const Hash32 head = to_hash32(head_hash_);
  if (checkpoints_.contains(head)) return;
  if (const std::optional<Bytes> payload = encode_checkpoint(state_, receipts_)) {
    record_checkpoint(head, h, *payload, /*persist=*/true);
  }
}

void Blockchain::record_checkpoint(const Hash32& block_hash, std::uint64_t number,
                                   const Bytes& payload, bool persist) {
  checkpoints_[block_hash] = Checkpoint{number, payload};
  while (checkpoints_.size() > kMaxCheckpoints) {
    auto lowest = checkpoints_.begin();
    for (auto it = checkpoints_.begin(); it != checkpoints_.end(); ++it) {
      if (it->second.height < lowest->second.height) lowest = it;
    }
    checkpoints_.erase(lowest);
  }
  if (persist && snapshots_ != nullptr) {
    snapshots_->save(store::Snapshot{number, Bytes(block_hash.begin(), block_hash.end()), payload});
  }
}

std::optional<Receipt> Blockchain::find_receipt(const Bytes& tx_hash) const {
  const auto* found = find_by_hash(receipts_, tx_hash);
  if (found == nullptr) return std::nullopt;
  return found->first;
}

std::optional<std::uint64_t> Blockchain::confirmation_block(const Bytes& tx_hash) const {
  const auto* found = find_by_hash(receipts_, tx_hash);
  if (found == nullptr) return std::nullopt;
  return found->second;
}

const Block* Blockchain::block_by_hash(const Bytes& block_hash) const {
  const Entry* entry = find_by_hash(blocks_, block_hash);
  return entry == nullptr ? nullptr : &entry->block;
}

std::vector<Bytes> Blockchain::canonical_chain() const {
  std::vector<Bytes> out;
  Bytes cursor = head_hash_;
  while (true) {
    out.push_back(cursor);
    const Entry& entry = blocks_.at(to_hash32(cursor));
    if (entry.block.header.number == 0) break;
    cursor = entry.block.header.parent_hash;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

Bytes block_to_bytes(const Block& block) {
  Bytes out = block.header.to_bytes();
  Bytes body;
  append_u32_be(body, static_cast<std::uint32_t>(block.transactions.size()));
  for (const Transaction& tx : block.transactions) append_frame(body, tx.to_bytes());
  append_frame(out, body);
  return out;
}

Block block_from_bytes(const Bytes& bytes) {
  Block block;
  Bytes body;
  block.header = block_header_from_bytes(bytes, body);
  block.transactions = block_body_from_bytes(body);
  return block;
}

BlockHeader block_header_from_bytes(const Bytes& bytes, Bytes& body) {
  // Gossip-facing decode: blocks arrive from arbitrary peers. Hash frames
  // are exactly 32 bytes, the body shares the tx-payload scale.
  constexpr std::size_t kMaxHashBytes = 32;
  constexpr std::size_t kMaxBodyBytes = 16u << 20;  // 16 MiB
  BlockHeader header;
  ByteReader r(bytes, "block");
  header.parent_hash = r.frame(kMaxHashBytes);
  header.number = r.u64();
  header.tx_root = r.frame(kMaxHashBytes);
  header.timestamp = r.u64();
  header.difficulty = r.u64();
  header.nonce = r.u64();
  header.miner = Address::from_bytes(r.frame(Address::kSize));
  body = r.frame(kMaxBodyBytes);
  r.expect_end();
  return header;
}

std::vector<Transaction> block_body_from_bytes(const Bytes& body) {
  // Every tx frame costs >= 4 bytes, so the count cap bounds nothing the
  // body's own cap does not already bound — it just fails fast on garbage.
  constexpr std::uint32_t kMaxBlockTxs = (16u << 20) / 4;
  constexpr std::size_t kMaxTxBytes = 8u << 20;
  ByteReader rb(body, "block body");
  const std::uint32_t count = rb.count(kMaxBlockTxs);
  std::vector<Transaction> txs;
  for (std::uint32_t i = 0; i < count; ++i) {
    txs.push_back(Transaction::from_bytes(rb.frame(kMaxTxBytes)));
  }
  rb.expect_end();
  return txs;
}

}  // namespace zl::chain
