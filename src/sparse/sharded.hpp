// Constraint-sharded factorized sets: the partition layer of the
// out-of-core instance pipeline.
//
// A ShardedFactorizedSet is a FactorizedSet plus a contiguous partition of
// its constraint indices into K shards -- shard k owns the global range
// [shard_begin(k), shard_end(k)), balanced by nnz so the chunked file's
// shard blocks, loaded one at a time, carry comparable bytes. Each shard's
// factors own their transpose index and segment grid exactly as in a
// plain FactorizedSet; the shard adds the slice boundaries that the
// chunked on-disk format and the loader's per-shard page release key on.
//
// Determinism contract (locked by tests/test_determinism.cpp): the
// partition is bookkeeping only. Every factor carries its transpose index
// from construction, every sweep runs over all n constraints, and every
// reduction folds over fixed pieces (par::parallel_sum), so the bits
// depend on the instance and the options -- never on K or the thread
// count. K = 1 is simply the one-shard partition.
#pragma once

#include <span>
#include <vector>

#include "sparse/factorized.hpp"

namespace psdp::sparse {

/// A FactorizedSet partitioned into K contiguous, nnz-balanced constraint
/// shards. Cheap to move; shard boundaries travel with copies and scales.
class ShardedFactorizedSet {
 public:
  ShardedFactorizedSet() = default;

  /// Single-shard wrap: the set is taken verbatim as one shard.
  explicit ShardedFactorizedSet(FactorizedSet set);

  /// Partition `set` into `shard_count` contiguous shards balanced by nnz
  /// (clamped to [1, size()]).
  ShardedFactorizedSet(FactorizedSet set, Index shard_count);

  /// Adopt pre-cut shard boundaries (the chunked loader's shard table):
  /// `offsets` has shard_count+1 non-decreasing entries from 0 to
  /// set.size() with every shard non-empty.
  ShardedFactorizedSet(FactorizedSet set, std::vector<Index> offsets);

  Index size() const { return set_.size(); }
  Index dim() const { return set_.dim(); }
  Index total_nnz() const { return set_.total_nnz(); }

  /// The underlying full constraint set (all existing consumers -- the
  /// oracle's Psi operators, weighted_sum, tests -- keep reading this).
  const FactorizedSet& set() const { return set_; }

  Index shard_count() const {
    return offsets_.empty() ? 0 : static_cast<Index>(offsets_.size()) - 1;
  }
  /// Global index of shard k's first constraint.
  Index shard_begin(Index k) const;
  /// One past shard k's last constraint.
  Index shard_end(Index k) const;
  /// Total factor nnz owned by shard k.
  Index shard_nnz(Index k) const;
  /// The K+1 shard boundary offsets (shard k = [offsets[k], offsets[k+1])).
  std::span<const Index> shard_offsets() const { return offsets_; }

  const FactorizedPsd& operator[](Index i) const { return set_[i]; }

  /// Copy representing {s * A_i} with the shard boundaries carried along
  /// (FactorizedPsd::scaled keeps each factor's transpose index).
  ShardedFactorizedSet scaled(Real s) const;

  /// The nnz-balanced contiguous partition the sharding constructor uses,
  /// as bare offsets (shard_count clamped to [1, set.size()]). Exposed so
  /// the chunked writer can lay out shard blocks without constructing a
  /// sharded set.
  static std::vector<Index> partition_offsets(const FactorizedSet& set,
                                              Index shard_count);

 private:
  FactorizedSet set_;
  std::vector<Index> offsets_;  ///< K+1 shard boundaries over [0, size()]
};

}  // namespace psdp::sparse

namespace psdp::core {
// The issue-facing spelling: instances live in core, their constraint
// storage in sparse; the sharded set is the bridge both layers name.
using sparse::ShardedFactorizedSet;
}  // namespace psdp::core
