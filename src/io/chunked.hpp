// Chunked binary instance format: the on-disk shape of the out-of-core
// pipeline.
//
// A chunked file stores a factorized packing instance as K contiguous
// constraint shards, each a self-contained block of canonical CSR arrays
// (row offsets / column indices / values, serialized verbatim), preceded by
// a fixed header and a shard table of byte offsets, sizes, constraint
// ranges and FNV-1a checksums. The reader therefore never re-sorts or
// re-merges anything -- each factor is adopted through Csr::from_parts --
// and can load one shard at a time: the resident set while loading is one
// shard's arrays plus the constraints already built, never a monolithic
// triplet buffer (bench_shard measures the high-water).
//
// Layout (native-endian, i64/u64/f64 fields; offsets from file start):
//   magic   "PSDPCHK1"                      8 bytes
//   u64     version (currently 1)
//   i64     dim, n_constraints, n_shards, total_nnz
//   shard table, n_shards records:
//     i64   constraint_begin, constraint_end
//     u64   byte_offset, byte_size          payload block of this shard
//     u64   checksum                        FNV-1a 64 over the payload bytes
//   payload blocks, one per shard, each a sequence of constraint records:
//     i64   factor_cols, factor_nnz
//     i64   row_offsets[dim + 1]
//     i64   col_indices[factor_nnz]
//     f64   values[factor_nnz]
//
// Every malformed-file condition -- truncated header, bad magic, version
// mismatch, torn (truncated or out-of-bounds) shard, checksum mismatch,
// inconsistent structure -- throws a named psdp::InvalidArgument; the fault
// suite in tests/test_chunked.cpp drives each one under the sanitizers.
//
// The reader backend is mmap when the platform provides it (pages stream
// in on demand and drop under pressure -- the bigger-than-RAM load path),
// falling back to plain buffered reads; ChunkedLoadOptions::use_mmap and
// ChunkedInstanceReader::mapped() control and report the choice. Both
// backends produce identical instances (locked by tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.hpp"

namespace psdp::io {

inline constexpr char kChunkedMagic[8] = {'P', 'S', 'D', 'P',
                                          'C', 'H', 'K', '1'};
inline constexpr std::uint64_t kChunkedVersion = 1;

struct ChunkedLoadOptions {
  /// Map the file instead of reading it (falls back to reads silently when
  /// mmap is unavailable or fails).
  bool use_mmap = true;
  /// Verify each shard's FNV-1a checksum before parsing it. Costs one pass
  /// over the payload bytes; off only for benchmarking the parse itself.
  bool verify_checksums = true;
  /// mmap backend only: drop a shard's (clean, file-backed) pages with
  /// madvise(MADV_DONTNEED) once it has been parsed, so the resident set of
  /// a full-file load stays bounded by one shard rather than the whole
  /// payload. Reloading a shard re-faults its pages from the file.
  bool release_loaded_pages = true;
};

/// One shard-table entry, as stored.
struct ChunkedShardInfo {
  Index constraint_begin = 0;
  Index constraint_end = 0;
  std::uint64_t byte_offset = 0;
  std::uint64_t byte_size = 0;
  std::uint64_t checksum = 0;
};

/// Write `instance` as a chunked file with `shards` nnz-balanced shard
/// blocks. shards = 0 keeps the instance's own partition (whatever
/// shard_count() it already carries); otherwise the boundaries are
/// recomputed via ShardedFactorizedSet::partition_offsets, so writing never
/// mutates or re-indexes the instance.
void save_factorized_chunked(const std::string& path,
                             const core::FactorizedPackingInstance& instance,
                             Index shards = 0);

/// Shard-at-a-time reader over a chunked file. Construction parses and
/// validates the header and shard table only; payload bytes are touched
/// when a shard is loaded (and checksummed then, under the default
/// options). The reader owns the mapping / file handle; shards may be
/// loaded in any order and repeatedly.
class ChunkedInstanceReader {
 public:
  explicit ChunkedInstanceReader(const std::string& path,
                                 const ChunkedLoadOptions& options = {});
  ~ChunkedInstanceReader();
  ChunkedInstanceReader(const ChunkedInstanceReader&) = delete;
  ChunkedInstanceReader& operator=(const ChunkedInstanceReader&) = delete;

  Index dim() const { return dim_; }
  Index size() const { return n_constraints_; }
  Index shard_count() const { return static_cast<Index>(shards_.size()); }
  Index total_nnz() const { return total_nnz_; }
  const ChunkedShardInfo& shard_info(Index k) const;
  /// True when the mmap backend is active (false = buffered reads).
  bool mapped() const { return map_base_ != nullptr; }

  /// Parse shard k's constraints (each factor's transpose index built as
  /// it is constructed).
  std::vector<sparse::FactorizedPsd> load_shard(Index k) const;

  /// Load every shard in order and assemble the instance around the stored
  /// shard boundaries (a file with one shard yields the text-format
  /// loader's instance for the same data). `shards` > 0 overrides the
  /// stored partition: the constraints are re-cut into that many
  /// nnz-balanced shards (1 = a single shard).
  core::FactorizedPackingInstance load_all(Index shards = 0) const;

 private:
  /// Shard k's payload bytes: a view into the mapping, or `scratch` filled
  /// by reads.
  const unsigned char* shard_bytes(Index k,
                                   std::vector<unsigned char>& scratch) const;

  std::string path_;
  ChunkedLoadOptions options_;
  Index dim_ = 0;
  Index n_constraints_ = 0;
  Index total_nnz_ = 0;
  std::uint64_t file_size_ = 0;
  std::vector<ChunkedShardInfo> shards_;
  int fd_ = -1;                      ///< mmap backend only
  const unsigned char* map_base_ = nullptr;
  std::uint64_t map_size_ = 0;
};

/// One-call convenience: open, load every shard, assemble. `shards` as in
/// ChunkedInstanceReader::load_all.
core::FactorizedPackingInstance load_factorized_chunked(
    const std::string& path, const ChunkedLoadOptions& options = {},
    Index shards = 0);

/// True when the file at `path` starts with the chunked container magic --
/// the dispatch test CLI tools and manifests use to route one instance path
/// to the chunked or the text loader. Unreadable files return false (the
/// text loader then raises its own open/parse error).
bool is_chunked_instance_file(const std::string& path);

}  // namespace psdp::io
