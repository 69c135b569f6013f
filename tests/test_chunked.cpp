// Chunked binary instance container: round-trip fidelity, backend
// equivalence, shard-table layout, and the malformed-file fault suite
// (every corruption class a named InvalidArgument; CI runs this file under
// ASan+UBSan so a torn or corrupted file can never walk the reader out of
// bounds).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/generators.hpp"
#include "io/chunked.hpp"
#include "io/instance_io.hpp"
#include "test_helpers.hpp"

namespace psdp::io {
namespace {

using core::FactorizedPackingInstance;

FactorizedPackingInstance sample_instance(Index n = 11, Index m = 16,
                                          unsigned seed = 42) {
  apps::FactorizedOptions gen;
  gen.n = n;
  gen.m = m;
  gen.rank = 3;
  gen.nnz_per_column = 4;
  gen.seed = seed;
  return apps::random_factorized(gen);
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/psdp_chunked_test." + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Expect `fn` to raise InvalidArgument whose message names the fault.
template <typename Fn>
void expect_fault(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected InvalidArgument mentioning '" << needle << "'";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "fault message was: " << e.what();
  }
}

void expect_same_instance(const FactorizedPackingInstance& a,
                          const FactorizedPackingInstance& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.dim(), b.dim());
  ASSERT_EQ(a.total_nnz(), b.total_nnz());
  for (Index i = 0; i < a.size(); ++i) {
    const sparse::Csr& qa = a[i].q();
    const sparse::Csr& qb = b[i].q();
    ASSERT_EQ(qa.nnz(), qb.nnz()) << "constraint " << i;
    for (std::size_t p = 0; p < qa.values().size(); ++p) {
      EXPECT_EQ(qa.values()[p], qb.values()[p]) << "constraint " << i;
      EXPECT_EQ(qa.col_indices()[p], qb.col_indices()[p]) << "constraint "
                                                          << i;
    }
    for (std::size_t r = 0; r < qa.row_offsets().size(); ++r) {
      EXPECT_EQ(qa.row_offsets()[r], qb.row_offsets()[r]) << "constraint "
                                                          << i;
    }
  }
}

TEST(Chunked, RoundTripsBitwise) {
  const std::string path = temp_path("roundtrip.chk");
  const FactorizedPackingInstance original = sample_instance();
  save_factorized_chunked(path, original, 3);
  const FactorizedPackingInstance loaded = load_factorized_chunked(path);
  EXPECT_EQ(loaded.shard_count(), 3);
  expect_same_instance(loaded, original);
  std::remove(path.c_str());
}

TEST(Chunked, SingleShardFileYieldsLegacyInstance) {
  const std::string path = temp_path("single.chk");
  const FactorizedPackingInstance original = sample_instance();
  save_factorized_chunked(path, original, 1);
  const FactorizedPackingInstance loaded = load_factorized_chunked(path);
  EXPECT_EQ(loaded.shard_count(), 1);
  expect_same_instance(loaded, original);
  std::remove(path.c_str());
}

TEST(Chunked, ShardTableIsContiguousAndBackPatched) {
  // The streaming writer zero-fills the table, writes the payload blocks,
  // then seeks back and patches the real records: the stored offsets must
  // tile the payload region exactly.
  const std::string path = temp_path("table.chk");
  const FactorizedPackingInstance original = sample_instance();
  save_factorized_chunked(path, original, 4);
  ChunkedInstanceReader reader(path);
  ASSERT_EQ(reader.shard_count(), 4);
  const std::uint64_t file_size =
      static_cast<std::uint64_t>(slurp(path).size());
  std::uint64_t cursor = reader.shard_info(0).byte_offset;
  Index constraints = 0;
  for (Index k = 0; k < reader.shard_count(); ++k) {
    const ChunkedShardInfo& info = reader.shard_info(k);
    EXPECT_EQ(info.byte_offset, cursor) << "gap before shard " << k;
    EXPECT_GT(info.byte_size, 0u);
    EXPECT_NE(info.checksum, 0u);  // zero would mean the patch never landed
    cursor += info.byte_size;
    constraints += info.constraint_end - info.constraint_begin;
  }
  EXPECT_EQ(cursor, file_size);
  EXPECT_EQ(constraints, original.size());
  std::remove(path.c_str());
}

TEST(Chunked, MmapAndReadBackendsProduceIdenticalInstances) {
  const std::string path = temp_path("backend.chk");
  save_factorized_chunked(path, sample_instance(), 3);
  ChunkedLoadOptions mapped;
  mapped.use_mmap = true;
  ChunkedLoadOptions buffered;
  buffered.use_mmap = false;
  const FactorizedPackingInstance a = load_factorized_chunked(path, mapped);
  const FactorizedPackingInstance b = load_factorized_chunked(path, buffered);
  {
    ChunkedInstanceReader reader(path, buffered);
    EXPECT_FALSE(reader.mapped());
  }
  expect_same_instance(a, b);
  std::remove(path.c_str());
}

TEST(Chunked, PageReleaseDoesNotAffectContents) {
  const std::string path = temp_path("madvise.chk");
  save_factorized_chunked(path, sample_instance(), 2);
  ChunkedLoadOptions keep;
  keep.release_loaded_pages = false;
  ChunkedLoadOptions release;
  release.release_loaded_pages = true;
  // Shards stay reloadable after their pages were released.
  ChunkedInstanceReader reader(path, release);
  const auto first = reader.load_shard(0);
  const auto again = reader.load_shard(0);
  ASSERT_EQ(first.size(), again.size());
  expect_same_instance(load_factorized_chunked(path, keep),
                       load_factorized_chunked(path, release));
  std::remove(path.c_str());
}

TEST(Chunked, LoadAllRecutsOnRequest) {
  const std::string path = temp_path("recut.chk");
  const FactorizedPackingInstance original = sample_instance();
  save_factorized_chunked(path, original, 4);
  ChunkedInstanceReader reader(path);
  const FactorizedPackingInstance stored = reader.load_all();
  EXPECT_EQ(stored.shard_count(), 4);
  const FactorizedPackingInstance recut = reader.load_all(2);
  EXPECT_EQ(recut.shard_count(), 2);
  const FactorizedPackingInstance legacy = reader.load_all(1);
  EXPECT_EQ(legacy.shard_count(), 1);
  expect_same_instance(stored, recut);
  expect_same_instance(stored, legacy);
  std::remove(path.c_str());
}

TEST(Chunked, SniffsContainerFiles) {
  const std::string chunked = temp_path("sniff.chk");
  const std::string text = temp_path("sniff.psdp");
  const FactorizedPackingInstance original = sample_instance();
  save_factorized_chunked(chunked, original, 2);
  save_factorized(text, original);
  EXPECT_TRUE(is_chunked_instance_file(chunked));
  EXPECT_FALSE(is_chunked_instance_file(text));
  EXPECT_FALSE(is_chunked_instance_file("/nonexistent/path/file.chk"));
  std::remove(chunked.c_str());
  std::remove(text.c_str());
}

// ---------------------------------------------------------------- faults --

TEST(Chunked, RejectsTruncatedHeader) {
  const std::string path = temp_path("truncated.chk");
  spit(path, std::string("PSDPCHK1\x01", 10));
  expect_fault([&] { ChunkedInstanceReader reader(path); },
               "truncated header");
  std::remove(path.c_str());
}

TEST(Chunked, RejectsBadMagic) {
  const std::string path = temp_path("magic.chk");
  save_factorized_chunked(path, sample_instance(), 2);
  std::string bytes = slurp(path);
  bytes[0] = 'X';
  spit(path, bytes);
  expect_fault([&] { ChunkedInstanceReader reader(path); }, "bad magic");
  std::remove(path.c_str());
}

TEST(Chunked, RejectsVersionMismatch) {
  const std::string path = temp_path("version.chk");
  save_factorized_chunked(path, sample_instance(), 2);
  std::string bytes = slurp(path);
  bytes[8] = 99;  // u64 version field starts at offset 8 (little-endian)
  spit(path, bytes);
  expect_fault([&] { ChunkedInstanceReader reader(path); },
               "version mismatch");
  std::remove(path.c_str());
}

TEST(Chunked, RejectsTruncatedShardTable) {
  const std::string path = temp_path("shorttable.chk");
  save_factorized_chunked(path, sample_instance(), 2);
  // Keep the 48-byte header plus half a shard record.
  spit(path, slurp(path).substr(0, 48 + 20));
  expect_fault([&] { ChunkedInstanceReader reader(path); },
               "shard table runs past end of file");
  std::remove(path.c_str());
}

TEST(Chunked, RejectsTornShard) {
  const std::string path = temp_path("torn.chk");
  save_factorized_chunked(path, sample_instance(), 2);
  const std::string bytes = slurp(path);
  // Drop the last 16 payload bytes: the stored table now points past EOF.
  spit(path, bytes.substr(0, bytes.size() - 16));
  expect_fault([&] { ChunkedInstanceReader reader(path); }, "torn shard");
  std::remove(path.c_str());
}

TEST(Chunked, RejectsChecksumMismatch) {
  const std::string path = temp_path("checksum.chk");
  save_factorized_chunked(path, sample_instance(), 2);
  std::string bytes = slurp(path);
  // Flip a mantissa bit of the last value (stays finite, breaks the FNV).
  bytes[bytes.size() - 3] ^= 0x01;
  spit(path, bytes);
  ChunkedInstanceReader reader(path);  // header and table are intact
  expect_fault([&] { reader.load_shard(reader.shard_count() - 1); },
               "checksum mismatch");
  // With verification off the corruption flows through to the values
  // (documented escape hatch for benchmarking the parse alone).
  ChunkedLoadOptions unverified;
  unverified.verify_checksums = false;
  ChunkedInstanceReader lax(path, unverified);
  EXPECT_NO_THROW(lax.load_shard(lax.shard_count() - 1));
  std::remove(path.c_str());
}

TEST(Chunked, RejectsMissingFile) {
  expect_fault(
      [&] { ChunkedInstanceReader reader("/nonexistent/path/file.chk"); },
      "cannot open");
}

}  // namespace
}  // namespace psdp::io
