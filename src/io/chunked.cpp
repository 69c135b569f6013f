#include "io/chunked.hpp"

#include <cstring>
#include <fstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define PSDP_CHUNKED_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PSDP_CHUNKED_HAVE_MMAP 0
#endif

namespace psdp::io {

namespace {

// Fixed-width header: magic + version + the four i64 dimensions.
constexpr std::uint64_t kHeaderBytes = 8 + 8 + 4 * 8;
constexpr std::uint64_t kShardRecordBytes = 5 * 8;

std::uint64_t fnv1a(const unsigned char* data, std::uint64_t size) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::uint64_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

void put_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_i64(std::ostream& out, Index v) {
  static_assert(sizeof(Index) == 8);
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Sequential parser over one shard's payload bytes with hard bounds
/// checks: any record running past the shard's declared byte size is a torn
/// shard, reported by name rather than read out of bounds.
struct PayloadCursor {
  const unsigned char* data;
  std::uint64_t size;
  std::uint64_t pos = 0;
  Index shard;

  void need(std::uint64_t bytes) {
    PSDP_CHECK(bytes <= size - pos,
               str("chunked: torn shard ", shard, " (record at byte ", pos,
                   " runs past the shard's ", size, " payload bytes)"));
  }
  Index take_i64() {
    need(8);
    Index v;
    std::memcpy(&v, data + pos, 8);
    pos += 8;
    return v;
  }
  template <typename T>
  void take_array(std::vector<T>& out, std::uint64_t count) {
    static_assert(sizeof(T) == 8);
    // Guard the multiply itself: a corrupt count this large is a torn
    // shard, not an overflow-wrapped small read.
    PSDP_CHECK(count <= (size - pos) / 8,
               str("chunked: torn shard ", shard, " (array of ", count,
                   " 8-byte elements at byte ", pos, " runs past the ",
                   size, " payload bytes)"));
    out.resize(static_cast<std::size_t>(count));
    std::memcpy(out.data(), data + pos, count * 8);
    pos += count * 8;
  }
};

}  // namespace

void save_factorized_chunked(const std::string& path,
                             const core::FactorizedPackingInstance& instance,
                             Index shards) {
  PSDP_CHECK(shards >= 0, "chunked: shard count must be non-negative");
  const std::vector<Index> offsets =
      shards == 0
          ? std::vector<Index>(instance.sharded().shard_offsets().begin(),
                               instance.sharded().shard_offsets().end())
          : sparse::ShardedFactorizedSet::partition_offsets(instance.set(),
                                                            shards);
  const Index k_shards = static_cast<Index>(offsets.size()) - 1;
  const Index dim = instance.dim();

  std::ofstream out(path, std::ios::binary);
  PSDP_CHECK(out.good(), str("chunked: cannot open '", path, "' for writing"));

  out.write(kChunkedMagic, sizeof(kChunkedMagic));
  put_u64(out, kChunkedVersion);
  put_i64(out, dim);
  put_i64(out, instance.size());
  put_i64(out, k_shards);
  put_i64(out, instance.total_nnz());

  // Shard blocks are serialized into memory one at a time, streamed to the
  // file, and dropped -- the writer's high-water is one shard, mirroring
  // the reader. The table precedes the payload, so it goes out first as
  // zeros and is back-patched with the final offsets and checksums once
  // every block has been sized in the single forward pass.
  const std::uint64_t payload_start =
      kHeaderBytes + static_cast<std::uint64_t>(k_shards) * kShardRecordBytes;
  std::vector<ChunkedShardInfo> table(static_cast<std::size_t>(k_shards));
  {
    const std::vector<char> zeros(kShardRecordBytes, 0);
    for (Index k = 0; k < k_shards; ++k) {
      out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
    }
  }
  std::uint64_t offset = payload_start;
  std::string block;
  for (Index k = 0; k < k_shards; ++k) {
    const Index begin = offsets[static_cast<std::size_t>(k)];
    const Index end = offsets[static_cast<std::size_t>(k) + 1];
    block.clear();
    for (Index i = begin; i < end; ++i) {
      const sparse::Csr& q = instance[i].q();
      PSDP_CHECK(q.rows() == dim,
                 str("chunked: constraint ", i, " dimension mismatch"));
      const auto append = [&block](const void* data, std::size_t bytes) {
        block.append(static_cast<const char*>(data), bytes);
      };
      const Index cols = q.cols();
      const Index nnz = q.nnz();
      append(&cols, 8);
      append(&nnz, 8);
      append(q.row_offsets().data(), (static_cast<std::size_t>(dim) + 1) * 8);
      append(q.col_indices().data(), static_cast<std::size_t>(nnz) * 8);
      append(q.values().data(), static_cast<std::size_t>(nnz) * 8);
    }
    ChunkedShardInfo& info = table[static_cast<std::size_t>(k)];
    info.constraint_begin = begin;
    info.constraint_end = end;
    info.byte_offset = offset;
    info.byte_size = block.size();
    info.checksum =
        fnv1a(reinterpret_cast<const unsigned char*>(block.data()),
              block.size());
    offset += block.size();
    out.write(block.data(), static_cast<std::streamsize>(block.size()));
  }
  out.seekp(static_cast<std::streamoff>(kHeaderBytes));
  for (const ChunkedShardInfo& info : table) {
    put_i64(out, info.constraint_begin);
    put_i64(out, info.constraint_end);
    put_u64(out, info.byte_offset);
    put_u64(out, info.byte_size);
    put_u64(out, info.checksum);
  }
  PSDP_CHECK(out.good(), str("chunked: write to '", path, "' failed"));
}

ChunkedInstanceReader::ChunkedInstanceReader(const std::string& path,
                                             const ChunkedLoadOptions& options)
    : path_(path), options_(options) {
  // Header + shard table via buffered reads (tiny); the payload backend is
  // chosen afterwards.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  PSDP_CHECK(in.good(), str("chunked: cannot open '", path, "'"));
  file_size_ = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);

  PSDP_CHECK(file_size_ >= kHeaderBytes,
             str("chunked: truncated header in '", path, "' (", file_size_,
                 " bytes, header needs ", kHeaderBytes, ")"));
  char magic[8];
  in.read(magic, sizeof(magic));
  PSDP_CHECK(std::memcmp(magic, kChunkedMagic, sizeof(magic)) == 0,
             str("chunked: bad magic in '", path,
                 "' (not a chunked instance file)"));
  std::uint64_t version = 0;
  in.read(reinterpret_cast<char*>(&version), 8);
  PSDP_CHECK(version == kChunkedVersion,
             str("chunked: version mismatch in '", path, "' (file has ",
                 version, ", reader supports ", kChunkedVersion, ")"));
  Index n_shards = 0;
  in.read(reinterpret_cast<char*>(&dim_), 8);
  in.read(reinterpret_cast<char*>(&n_constraints_), 8);
  in.read(reinterpret_cast<char*>(&n_shards), 8);
  in.read(reinterpret_cast<char*>(&total_nnz_), 8);
  PSDP_CHECK(in.good() && dim_ >= 1 && n_constraints_ >= 1 && n_shards >= 1 &&
                 n_shards <= n_constraints_ && total_nnz_ >= 0,
             str("chunked: malformed header in '", path, "'"));

  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(n_shards) * kShardRecordBytes;
  PSDP_CHECK(file_size_ >= kHeaderBytes + table_bytes,
             str("chunked: truncated header in '", path,
                 "' (shard table runs past end of file)"));
  shards_.resize(static_cast<std::size_t>(n_shards));
  Index expected_begin = 0;
  for (Index k = 0; k < n_shards; ++k) {
    ChunkedShardInfo& info = shards_[static_cast<std::size_t>(k)];
    in.read(reinterpret_cast<char*>(&info.constraint_begin), 8);
    in.read(reinterpret_cast<char*>(&info.constraint_end), 8);
    in.read(reinterpret_cast<char*>(&info.byte_offset), 8);
    in.read(reinterpret_cast<char*>(&info.byte_size), 8);
    in.read(reinterpret_cast<char*>(&info.checksum), 8);
    PSDP_CHECK(in.good(), str("chunked: truncated shard table in '", path,
                              "' (shard ", k, ")"));
    PSDP_CHECK(info.constraint_begin == expected_begin &&
                   info.constraint_end > info.constraint_begin,
               str("chunked: malformed shard table in '", path, "' (shard ",
                   k, " covers [", info.constraint_begin, ", ",
                   info.constraint_end, "))"));
    expected_begin = info.constraint_end;
    PSDP_CHECK(info.byte_offset >= kHeaderBytes + table_bytes &&
                   info.byte_size <= file_size_ &&
                   info.byte_offset <= file_size_ - info.byte_size,
               str("chunked: torn shard ", k, " in '", path,
                   "' (payload [", info.byte_offset, ", +", info.byte_size,
                   ") runs past the ", file_size_, "-byte file)"));
  }
  PSDP_CHECK(expected_begin == n_constraints_,
             str("chunked: malformed shard table in '", path,
                 "' (shards cover ", expected_begin, " of ", n_constraints_,
                 " constraints)"));
  in.close();

#if PSDP_CHUNKED_HAVE_MMAP
  if (options_.use_mmap && file_size_ > 0) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      void* base = ::mmap(nullptr, static_cast<std::size_t>(file_size_),
                          PROT_READ, MAP_PRIVATE, fd, 0);
      if (base != MAP_FAILED) {
        fd_ = fd;
        map_base_ = static_cast<const unsigned char*>(base);
        map_size_ = file_size_;
      } else {
        ::close(fd);  // silent fallback to buffered reads
      }
    }
  }
#endif
}

ChunkedInstanceReader::~ChunkedInstanceReader() {
#if PSDP_CHUNKED_HAVE_MMAP
  if (map_base_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(map_base_),
             static_cast<std::size_t>(map_size_));
  }
  if (fd_ >= 0) ::close(fd_);
#endif
}

const ChunkedShardInfo& ChunkedInstanceReader::shard_info(Index k) const {
  PSDP_CHECK(k >= 0 && k < shard_count(),
             "chunked: shard index out of range");
  return shards_[static_cast<std::size_t>(k)];
}

const unsigned char* ChunkedInstanceReader::shard_bytes(
    Index k, std::vector<unsigned char>& scratch) const {
  const ChunkedShardInfo& info = shard_info(k);
  if (map_base_ != nullptr) return map_base_ + info.byte_offset;
  std::ifstream in(path_, std::ios::binary);
  PSDP_CHECK(in.good(), str("chunked: cannot reopen '", path_, "'"));
  in.seekg(static_cast<std::streamoff>(info.byte_offset));
  scratch.resize(static_cast<std::size_t>(info.byte_size));
  in.read(reinterpret_cast<char*>(scratch.data()),
          static_cast<std::streamsize>(info.byte_size));
  PSDP_CHECK(in.good(),
             str("chunked: torn shard ", k, " in '", path_, "' (read of ",
                 info.byte_size, " payload bytes failed)"));
  return scratch.data();
}

std::vector<sparse::FactorizedPsd> ChunkedInstanceReader::load_shard(
    Index k) const {
  const ChunkedShardInfo& info = shard_info(k);
  std::vector<unsigned char> scratch;
  const unsigned char* bytes = shard_bytes(k, scratch);
  if (options_.verify_checksums) {
    const std::uint64_t got = fnv1a(bytes, info.byte_size);
    PSDP_CHECK(got == info.checksum,
               str("chunked: checksum mismatch in shard ", k, " of '", path_,
                   "' (stored ", info.checksum, ", computed ", got, ")"));
  }
  PayloadCursor cursor{bytes, info.byte_size, 0, k};
  std::vector<sparse::FactorizedPsd> items;
  items.reserve(
      static_cast<std::size_t>(info.constraint_end - info.constraint_begin));
  std::vector<Index> row_offsets;
  std::vector<Index> col_indices;
  std::vector<Real> values;
  for (Index i = info.constraint_begin; i < info.constraint_end; ++i) {
    const Index cols = cursor.take_i64();
    const Index nnz = cursor.take_i64();
    PSDP_CHECK(cols >= 1 && nnz >= 0,
               str("chunked: malformed constraint ", i, " in shard ", k,
                   " of '", path_, "'"));
    cursor.take_array(row_offsets, static_cast<std::uint64_t>(dim_) + 1);
    cursor.take_array(col_indices, static_cast<std::uint64_t>(nnz));
    cursor.take_array(values, static_cast<std::uint64_t>(nnz));
    // from_parts adopts the arrays verbatim (no re-sort, no merge) and
    // validates the CSR invariants, so a corrupted-but-checksum-passing
    // block still cannot smuggle malformed structure in.
    items.emplace_back(
        sparse::Csr::from_parts(dim_, cols, std::move(row_offsets),
                                std::move(col_indices), std::move(values)));
    row_offsets.clear();
    col_indices.clear();
    values.clear();
  }
  PSDP_CHECK(cursor.pos == cursor.size,
             str("chunked: torn shard ", k, " of '", path_, "' (",
                 cursor.size - cursor.pos, " trailing payload bytes)"));
#if PSDP_CHUNKED_HAVE_MMAP
  if (map_base_ != nullptr && options_.release_loaded_pages) {
    // Once the shard is parsed into owned CSR arrays its raw bytes are dead
    // weight: drop the (clean, read-only) pages so the mapping's resident
    // set stays one-shard-bounded over a full-file load. A later reload of
    // the same shard simply re-faults from the file.
    const std::uint64_t page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t begin = (info.byte_offset / page) * page;
    const std::uint64_t end = info.byte_offset + info.byte_size;
    ::madvise(const_cast<unsigned char*>(map_base_ + begin),
              static_cast<std::size_t>(end - begin), MADV_DONTNEED);
  }
#endif
  return items;
}

core::FactorizedPackingInstance ChunkedInstanceReader::load_all(
    Index shards) const {
  std::vector<sparse::FactorizedPsd> items;
  items.reserve(static_cast<std::size_t>(n_constraints_));
  std::vector<Index> offsets;
  offsets.reserve(shards_.size() + 1);
  offsets.push_back(0);
  for (Index k = 0; k < shard_count(); ++k) {
    std::vector<sparse::FactorizedPsd> shard = load_shard(k);
    for (auto& item : shard) items.push_back(std::move(item));
    offsets.push_back(static_cast<Index>(items.size()));
  }
  if (shards > 0) {
    // Caller-requested partition: re-cut instead of keeping the file's
    // boundaries (shards = 1 collapses to the legacy unsharded instance).
    return core::FactorizedPackingInstance(
        sparse::FactorizedSet(std::move(items)), shards);
  }
  return core::FactorizedPackingInstance(sparse::ShardedFactorizedSet(
      sparse::FactorizedSet(std::move(items)), std::move(offsets)));
}

core::FactorizedPackingInstance load_factorized_chunked(
    const std::string& path, const ChunkedLoadOptions& options, Index shards) {
  return ChunkedInstanceReader(path, options).load_all(shards);
}

bool is_chunked_instance_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  char magic[sizeof(kChunkedMagic)] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == static_cast<std::streamsize>(sizeof(magic)) &&
         std::memcmp(magic, kChunkedMagic, sizeof(magic)) == 0;
}

}  // namespace psdp::io
