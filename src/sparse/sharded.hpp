// Constraint-sharded factorized sets: the partition layer of the
// out-of-core instance pipeline.
//
// A ShardedFactorizedSet is a FactorizedSet plus a contiguous partition of
// its constraint indices into K shards -- shard k owns the global range
// [shard_begin(k), shard_end(k)), balanced by nnz so the per-shard dots
// sweeps of bigDotExp (Theorem 4.1's ||S Q_i||_F^2 loop, embarrassingly
// partitionable across constraints) carry comparable work. Each shard's
// factors own their transpose index and segment grid exactly as
// before; the shard adds the slice boundaries that the per-shard sweeps,
// the per-shard workspace slices and the chunked on-disk format all key on.
//
// Determinism contract (locked by tests/test_sharded.cpp):
//  * K = 1 is the unsharded legacy path, bit-identical to a plain
//    FactorizedSet: same factors, same kernels, same reduction shapes.
//  * K > 1 is bitwise deterministic across thread counts for fixed K:
//    every factor gets the cached transpose index at shard construction
//    (the CSC gathers reduce each output serially in row order at any pool
//    width, unlike the owned-column scatter whose per-chunk combine is
//    shaped by num_threads()), and every cross-constraint reduction -- the
//    per-round dots/trace merge in bigDotExp, the oracle's tracked Tr[Psi]
//    and lambda bounds -- runs as per-shard partials merged serially in
//    shard order 0..K-1 (par::deterministic_sum for the panel traces).
//    K > 1 bits differ from K = 1 bits (different summation shapes); what
//    is guaranteed is that neither depends on the thread count.
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

  /// Single-shard (legacy) wrap: no repartition, no index forcing -- the
  /// set is taken verbatim, so K = 1 stays bit-identical to the
  /// pre-sharding path.
  explicit ShardedFactorizedSet(FactorizedSet set);

  /// Partition `set` into `shard_count` contiguous shards balanced by nnz
  /// (clamped to [1, size()]). With shard_count > 1 every factor gets its
  /// transpose index built (idempotent for factors that already have one)
  /// -- the determinism contract above requires the gather kernels on
  /// every factor, not just the tall ones.
  ShardedFactorizedSet(FactorizedSet set, Index shard_count);

  /// Adopt pre-cut shard boundaries (the chunked loader's shard table):
  /// `offsets` has shard_count+1 non-decreasing entries from 0 to
  /// set.size() with every shard non-empty. Index forcing as above when
  /// more than one shard.
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

  /// True when the K > 1 deterministic mode is engaged: per-shard sweeps,
  /// fixed-order merges, thread-count-independent trace reductions.
  bool deterministic() const { return shard_count() > 1; }

  const FactorizedPsd& operator[](Index i) const { return set_[i]; }

  /// Copy representing {s * A_i} with the shard boundaries carried along
  /// (FactorizedPsd::scaled keeps each factor's transpose index, so no
  /// index forcing re-runs).
  ShardedFactorizedSet scaled(Real s) const;

  /// The nnz-balanced contiguous partition the sharding constructor uses,
  /// as bare offsets (shard_count clamped to [1, set.size()]). Exposed so
  /// the chunked writer can lay out shard blocks without constructing a
  /// sharded set (which would force transpose indexes just to serialize).
  static std::vector<Index> partition_offsets(const FactorizedSet& set,
                                              Index shard_count);

 private:
  void force_transpose_indexes();

  FactorizedSet set_;
  std::vector<Index> offsets_;  ///< K+1 shard boundaries over [0, size()]
};

}  // namespace psdp::sparse

namespace psdp::core {
// The issue-facing spelling: instances live in core, their constraint
// storage in sparse; the sharded set is the bridge both layers name.
using sparse::ShardedFactorizedSet;
}  // namespace psdp::core
