#include "fuzz_targets.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "chain/blockchain.h"
#include "chain/tx.h"
#include "crypto/keccak.h"
#include "snark/groth16.h"
#include "store/fault_vfs.h"
#include "store/snapshot.h"
#include "store/wal.h"

// Invariant check that survives NDEBUG builds: libFuzzer and the corpus
// regression runner both treat the abort as a crash to minimize/replay.
#define ZL_FUZZ_REQUIRE(cond)                                                     \
  do {                                                                            \
    if (!(cond)) {                                                                \
      std::fprintf(stderr, "fuzz invariant failed: %s at %s:%d\n", #cond,         \
                   __FILE__, __LINE__);                                           \
      std::abort();                                                               \
    }                                                                             \
  } while (0)

namespace zl::fuzz {

namespace {

Bytes to_bytes_vec(const std::uint8_t* data, std::size_t size) {
  return Bytes(data, data + size);
}

// The one sanctioned failure mode of a decoder: a decode error derived from
// invalid_argument (DecodeError and the fixed-size checks) or the legacy
// out_of_range. bad_alloc, logic_error, or anything else escaping a decoder
// is a finding, so only these two types are swallowed.
template <typename Fn>
void expect_clean_decode(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  }
}

}  // namespace

void fuzz_tx(const std::uint8_t* data, std::size_t size) {
  const Bytes in = to_bytes_vec(data, size);
  expect_clean_decode([&] {
    const chain::Transaction tx = chain::Transaction::from_bytes(in);
    ZL_FUZZ_REQUIRE(tx.to_bytes() == in);
    // The id is sealed from the received bytes; canonical decoding makes it
    // the hash of the re-encoding too.
    ZL_FUZZ_REQUIRE(tx.hash() == keccak256(in));
  });
}

void fuzz_block(const std::uint8_t* data, std::size_t size) {
  const Bytes in = to_bytes_vec(data, size);
  expect_clean_decode([&] {
    const chain::Block block = chain::block_from_bytes(in);
    ZL_FUZZ_REQUIRE(chain::block_to_bytes(block) == in);
    for (const chain::Transaction& tx : block.transactions) {
      ZL_FUZZ_REQUIRE(tx.hash() == keccak256(tx.to_bytes()));
    }
  });
}

void fuzz_proof(const std::uint8_t* data, std::size_t size) {
  const Bytes in = to_bytes_vec(data, size);
  expect_clean_decode([&] {
    const snark::Proof proof = snark::Proof::from_bytes(in);
    ZL_FUZZ_REQUIRE(proof.to_bytes() == in);
  });
  expect_clean_decode([&] {
    const snark::VerifyingKey vk = snark::VerifyingKey::from_bytes(in);
    ZL_FUZZ_REQUIRE(vk.to_bytes() == in);
  });
}

void fuzz_wal(const std::uint8_t* data, std::size_t size) {
  store::FaultVfs vfs;
  vfs.make_dirs("wal");
  {
    const std::unique_ptr<store::VfsFile> file = vfs.open("wal/wal-00000001.seg", true);
    if (size != 0) file->write(0, data, size);
    file->sync();
  }
  // Recovery over an arbitrary image must not throw: the documented contract
  // is truncate-at-first-corruption, never an escaping exception.
  std::uint64_t replayed = 0;
  store::Wal::Options options;
  store::Wal wal(vfs, "wal", options,
                 [&](std::uint8_t, const Bytes&, std::uint64_t) { ++replayed; });
  // Whatever recovery kept, the log must be appendable again — and a second
  // recovery must see exactly the kept prefix plus our record.
  wal.append(0x7F, Bytes{0xAB, 0xCD});
  wal.sync();
  std::uint64_t replayed_again = 0;
  store::Wal reopened(vfs, "wal", options,
                      [&](std::uint8_t, const Bytes&, std::uint64_t) { ++replayed_again; });
  ZL_FUZZ_REQUIRE(replayed_again == replayed + 1);
}

void fuzz_snapshot(const std::uint8_t* data, std::size_t size) {
  store::FaultVfs vfs;
  vfs.make_dirs("snap");
  {
    const std::unique_ptr<store::VfsFile> file =
        vfs.open("snap/snap-00000000000000000007.zls", true);
    if (size != 0) file->write(0, data, size);
    file->sync();
  }
  // An arbitrary image must load as a snapshot or as nothing — never throw.
  store::SnapshotStore snaps(vfs, "snap");
  const std::optional<store::Snapshot> loaded = snaps.load_newest();
  if (loaded) {
    // CRC accepted the image: saving it back and reloading must reproduce
    // the same logical snapshot (the store round-trip is lossless).
    store::SnapshotStore copy(vfs, "snap2");
    copy.save(*loaded);
    const std::optional<store::Snapshot> reloaded = copy.load_newest();
    ZL_FUZZ_REQUIRE(reloaded.has_value());
    ZL_FUZZ_REQUIRE(reloaded->height == loaded->height);
    ZL_FUZZ_REQUIRE(reloaded->head_hash == loaded->head_hash);
    ZL_FUZZ_REQUIRE(reloaded->payload == loaded->payload);
  }
}

}  // namespace zl::fuzz
