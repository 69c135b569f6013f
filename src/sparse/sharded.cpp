#include "sparse/sharded.hpp"

#include <algorithm>
#include <utility>

namespace psdp::sparse {

ShardedFactorizedSet::ShardedFactorizedSet(FactorizedSet set)
    : set_(std::move(set)) {
  offsets_ = {0, set_.size()};
}

ShardedFactorizedSet::ShardedFactorizedSet(FactorizedSet set,
                                           Index shard_count)
    : set_(std::move(set)) {
  offsets_ = partition_offsets(set_, shard_count);
}

std::vector<Index> ShardedFactorizedSet::partition_offsets(
    const FactorizedSet& set, Index shard_count) {
  PSDP_CHECK(shard_count >= 1, "sharded set: shard count must be positive");
  const Index n = set.size();
  const Index k_shards = std::min(shard_count, n);
  if (k_shards <= 1) return {0, n};
  // nnz-balanced contiguous cuts: shard k ends at the first constraint
  // whose nnz prefix reaches (k+1)/K of the total, nudged forward so every
  // shard keeps at least one constraint. Deterministic in the instance
  // alone -- the cut must not depend on thread count or load order, since
  // the chunked file's shard blocks follow the boundaries.
  std::vector<Index> offsets(static_cast<std::size_t>(k_shards) + 1, 0);
  const Index total = std::max<Index>(1, set.total_nnz());
  Index begin = 0;   // first constraint of the current shard
  Index prefix = 0;  // nnz of constraints [0, begin)
  for (Index k = 0; k < k_shards; ++k) {
    offsets[static_cast<std::size_t>(k)] = begin;
    if (k == k_shards - 1) break;  // last shard takes the tail
    // Cut at the first index whose nnz prefix reaches (k+1)/K of the
    // total, keeping at least one constraint here and one per shard after.
    const Index target = (total * (k + 1) + k_shards - 1) / k_shards;
    const Index max_end = n - (k_shards - k - 1);
    prefix += set[begin].nnz();
    Index end = begin + 1;
    while (end < max_end && prefix < target) {
      prefix += set[end].nnz();
      ++end;
    }
    begin = end;
  }
  offsets[static_cast<std::size_t>(k_shards)] = n;
  return offsets;
}

ShardedFactorizedSet::ShardedFactorizedSet(FactorizedSet set,
                                           std::vector<Index> offsets)
    : set_(std::move(set)), offsets_(std::move(offsets)) {
  PSDP_CHECK(offsets_.size() >= 2, "sharded set: offsets need >= 2 entries");
  PSDP_CHECK(offsets_.front() == 0, "sharded set: offsets must start at 0");
  PSDP_CHECK(offsets_.back() == set_.size(),
             str("sharded set: offsets end at ", offsets_.back(),
                 ", expected ", set_.size()));
  for (std::size_t k = 0; k + 1 < offsets_.size(); ++k) {
    PSDP_CHECK(offsets_[k] < offsets_[k + 1],
               str("sharded set: shard ", k, " is empty"));
  }
}

Index ShardedFactorizedSet::shard_begin(Index k) const {
  PSDP_CHECK(k >= 0 && k < shard_count(),
             "sharded set: shard index out of range");
  return offsets_[static_cast<std::size_t>(k)];
}

Index ShardedFactorizedSet::shard_end(Index k) const {
  PSDP_CHECK(k >= 0 && k < shard_count(),
             "sharded set: shard index out of range");
  return offsets_[static_cast<std::size_t>(k) + 1];
}

Index ShardedFactorizedSet::shard_nnz(Index k) const {
  Index nnz = 0;
  for (Index i = shard_begin(k); i < shard_end(k); ++i) nnz += set_[i].nnz();
  return nnz;
}

ShardedFactorizedSet ShardedFactorizedSet::scaled(Real s) const {
  std::vector<FactorizedPsd> items;
  items.reserve(set_.items().size());
  for (const auto& item : set_.items()) items.push_back(item.scaled(s));
  ShardedFactorizedSet out;
  out.set_ = FactorizedSet(std::move(items));
  out.offsets_ = offsets_;
  return out;
}

}  // namespace psdp::sparse
