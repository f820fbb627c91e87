// Deterministic seed-corpus generator for the decoder fuzz harnesses.
//
// Writes, per decoder family, one well-formed seed plus a fixed set of
// mutants (truncation, header flip, mid-body flip, trailing garbage) under
// <out-dir>/<family>/. The output is byte-for-byte reproducible — no clocks,
// no randomness — so the checked-in corpus under tests/fuzz_corpus/ can be
// regenerated and diffed. New crashers found by fuzzing are dropped into the
// same directories by hand and replayed forever by the
// fuzz_corpus_regression ctest case.
//
// Usage: zl_gen_fuzz_corpus <out-dir>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "chain/tx.h"
#include "snark/groth16.h"
#include "store/fault_vfs.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace fs = std::filesystem;
using zl::Bytes;

namespace {

void write_file(const fs::path& path, const Bytes& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(2);
  }
  out.write(reinterpret_cast<const char*>(content.data()),
            static_cast<std::streamsize>(content.size()));
}

// The standard mutant set: every family gets the same deterministic edits so
// each harness starts with both accepting and rejecting inputs.
void emit_family(const fs::path& dir, const std::string& stem, const Bytes& valid) {
  fs::create_directories(dir);
  write_file(dir / (stem + "-valid.bin"), valid);

  Bytes trunc(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(valid.size() * 3 / 5));
  write_file(dir / (stem + "-trunc.bin"), trunc);

  Bytes hdr = valid;
  if (!hdr.empty()) hdr[hdr.size() > 1 ? 1 : 0] ^= 0xFF;  // corrupt an early length/magic byte
  write_file(dir / (stem + "-hdrflip.bin"), hdr);

  Bytes mid = valid;
  if (!mid.empty()) mid[mid.size() / 2] ^= 0x80;
  write_file(dir / (stem + "-midflip.bin"), mid);

  Bytes trail = valid;
  trail.insert(trail.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  write_file(dir / (stem + "-trail.bin"), trail);
}

zl::chain::Transaction sample_tx(std::uint64_t nonce) {
  zl::chain::TxFields f;
  f.from = zl::chain::Address::from_bytes(Bytes(20, 0x11));
  f.to = zl::chain::Address::from_bytes(Bytes(20, 0x22));
  f.value = 1000 + nonce;
  f.nonce = nonce;
  f.gas_limit = 50000;
  f.method = "submit";
  f.payload = Bytes{0x01, 0x02, 0x03, 0x04};
  f.pubkey = Bytes(65, 0x04);
  f.signature = Bytes(64, 0x5A);
  return zl::chain::Transaction(std::move(f));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: zl_gen_fuzz_corpus <out-dir>\n";
    return 2;
  }
  const fs::path root = argv[1];

  // --- tx ------------------------------------------------------------------
  emit_family(root / "tx", "seed", sample_tx(7).to_bytes());

  // --- block ---------------------------------------------------------------
  zl::chain::Block block;
  block.header.parent_hash = Bytes(32, 0x33);
  block.header.number = 42;
  block.transactions = {sample_tx(1), sample_tx(2)};
  block.header.tx_root = zl::chain::Block::compute_tx_root(block.transactions);
  block.header.timestamp = 123456;
  block.header.difficulty = 4;
  block.header.nonce = 99;
  block.header.miner = zl::chain::Address::from_bytes(Bytes(20, 0x44));
  emit_family(root / "block", "seed", zl::chain::block_to_bytes(block));

  // --- proof / VK ----------------------------------------------------------
  zl::snark::Proof proof;
  proof.a = zl::G1::generator();
  proof.b = zl::G2::generator();
  proof.c = zl::G1::generator().dbl();
  emit_family(root / "proof", "seed", proof.to_bytes());
  zl::snark::VerifyingKey vk;
  vk.alpha_g1 = zl::G1::generator();
  vk.beta_g2 = zl::G2::generator();
  vk.gamma_g2 = zl::G2::generator().dbl();
  vk.delta_g2 = zl::G2::generator();
  vk.ic = {zl::G1::generator(), zl::G1::generator().dbl()};
  emit_family(root / "proof", "seed-vk", vk.to_bytes());

  // --- wal (a raw segment image, built by the real writer) -----------------
  {
    zl::store::FaultVfs vfs;
    zl::store::Wal::Options options;
    zl::store::Wal wal(vfs, "wal", options, [](std::uint8_t, const Bytes&, std::uint64_t) {});
    wal.append(0x01, Bytes{'h', 'e', 'l', 'l', 'o'});
    wal.append(0x02, Bytes{'w', 'o', 'r', 'l', 'd'});
    wal.append(0x03, Bytes(100, 0xEE));
    wal.sync();
    emit_family(root / "wal", "seed", zl::store::read_file(vfs, "wal/wal-00000001.seg"));
  }

  // --- snapshot (a raw snapshot file image, built by the real writer) ------
  {
    zl::store::FaultVfs vfs;
    zl::store::SnapshotStore snaps(vfs, "snap");
    zl::store::Snapshot snap;
    snap.height = 7;
    snap.head_hash = Bytes(32, 0xAA);
    const std::string payload = "zebralancer snapshot payload";
    snap.payload = Bytes(payload.begin(), payload.end());
    snaps.save(snap);
    emit_family(root / "snapshot", "seed",
                zl::store::read_file(vfs, "snap/snap-00000000000000000007.zls"));
  }

  std::cout << "corpus written under " << root << "\n";
  return 0;
}
