// The constraint-sharded instance layer (sparse::ShardedFactorizedSet):
//
//  * K = 1 is bit-identical to a plain FactorizedPackingInstance, and
//    K > 1 to K = 1 -- same oracle dots, traces and tracked bounds, to the
//    last bit (the full K x threads x precision grid is in
//    test_determinism.cpp);
//  * partition_offsets produces a contiguous nnz-balanced cover;
//  * scaled() carries shard boundaries along.
#include <gtest/gtest.h>

#include <vector>

#include "apps/generators.hpp"
#include "core/instance.hpp"
#include "core/penalty_oracle.hpp"
#include "test_helpers.hpp"

namespace psdp::core {
namespace {

FactorizedPackingInstance sample_instance(Index n = 24, Index m = 48,
                                          unsigned seed = 71) {
  apps::FactorizedOptions gen;
  gen.n = n;
  gen.m = m;
  gen.rank = 3;
  gen.nnz_per_column = 5;
  gen.seed = seed;
  return apps::random_factorized(gen);
}

/// A few oracle rounds on a mildly uneven weight vector; returns the
/// concatenated (dots..., trace, tracked_trace, tracked_lambda_bound) per
/// round so callers can compare runs bit-for-bit.
std::vector<Real> oracle_signature(const FactorizedPackingInstance& instance,
                                   int rounds = 3) {
  SketchedOracleOptions options;
  options.eps = 0.3;
  SolverWorkspace workspace;
  options.workspace = &workspace;
  SketchedTaylorOracle oracle(instance, options);
  Vector x(instance.size());
  std::vector<Real> signature;
  for (int r = 0; r < rounds; ++r) {
    for (Index i = 0; i < x.size(); ++i) {
      x[i] = (1.0 + 0.25 * static_cast<Real>((i + r) % 7)) /
             static_cast<Real>(instance.size());
    }
    PenaltyBatch batch;
    oracle.compute(x, static_cast<std::uint64_t>(r) + 1, batch);
    for (Index i = 0; i < batch.dots.size(); ++i)
      signature.push_back(batch.dots[i]);
    signature.push_back(batch.trace);
    signature.push_back(oracle.tracked_trace());
    signature.push_back(oracle.tracked_lambda_bound());
  }
  return signature;
}

TEST(Sharded, PartitionOffsetsCoverContiguously) {
  const FactorizedPackingInstance instance = sample_instance();
  for (Index k : {Index{1}, Index{2}, Index{5}, Index{24}, Index{100}}) {
    const std::vector<Index> offsets =
        ShardedFactorizedSet::partition_offsets(instance.set(), k);
    const Index clamped = std::min<Index>(std::max<Index>(k, 1), instance.size());
    ASSERT_EQ(static_cast<Index>(offsets.size()), clamped + 1) << "k = " << k;
    EXPECT_EQ(offsets.front(), 0);
    EXPECT_EQ(offsets.back(), instance.size());
    for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
      EXPECT_LT(offsets[s], offsets[s + 1]) << "empty shard at k = " << k;
    }
  }
}

TEST(Sharded, PartitionBalancesNnz) {
  const FactorizedPackingInstance instance = sample_instance(64, 80, 5);
  const Index k = 4;
  const FactorizedPackingInstance sharded(instance.set(), k);
  ASSERT_EQ(sharded.shard_count(), k);
  Index max_nnz = 0;
  for (Index s = 0; s < k; ++s) {
    max_nnz = std::max(max_nnz, sharded.sharded().shard_nnz(s));
  }
  // A contiguous nnz-balanced cut keeps every shard within one constraint's
  // worth of the ideal k-th share.
  Index max_constraint_nnz = 0;
  for (Index i = 0; i < instance.size(); ++i) {
    max_constraint_nnz = std::max(max_constraint_nnz, instance[i].nnz());
  }
  EXPECT_LE(max_nnz, instance.total_nnz() / k + max_constraint_nnz);
}

TEST(Sharded, SingleShardMatchesLegacyBitwise) {
  const FactorizedPackingInstance legacy = sample_instance();
  const FactorizedPackingInstance single(legacy.set(), 1);
  ASSERT_EQ(single.shard_count(), 1);
  const std::vector<Real> a = oracle_signature(legacy);
  const std::vector<Real> b = oracle_signature(single);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "entry " << i << " diverges";  // bit-identical
  }
}

TEST(Sharded, MultiShardMatchesSingleShardBitwise) {
  // The partition is bookkeeping only: every sweep and reduction runs over
  // all n constraints, so K = 4 matches K = 1 to the bit (the CI ooc-smoke
  // job leans on this: shards=1 and shards=4 solves must print identical
  // objective-bits lines).
  const FactorizedPackingInstance instance = sample_instance(30, 50, 13);
  const std::vector<Real> k1 = oracle_signature(instance);
  const std::vector<Real> k4 =
      oracle_signature(FactorizedPackingInstance(instance.set(), 4));
  ASSERT_EQ(k1.size(), k4.size());
  for (std::size_t i = 0; i < k1.size(); ++i) {
    EXPECT_EQ(k1[i], k4[i]) << "entry " << i << " diverges";
  }
}

TEST(Sharded, ScaledPreservesShardBoundaries) {
  const FactorizedPackingInstance instance = sample_instance(20, 40, 3);
  const FactorizedPackingInstance sharded(instance.set(), 3);
  const FactorizedPackingInstance scaled = sharded.scaled(2.5);
  ASSERT_EQ(scaled.shard_count(), sharded.shard_count());
  const auto before = sharded.sharded().shard_offsets();
  const auto after = scaled.sharded().shard_offsets();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t s = 0; s < before.size(); ++s) {
    EXPECT_EQ(before[s], after[s]);
  }
  for (Index i = 0; i < sharded.size(); ++i) {
    Matrix expected = sharded[i].to_dense();
    expected.scale(2.5);
    EXPECT_MATRIX_NEAR(scaled[i].to_dense(), expected, 1e-12);
  }
}

TEST(Sharded, AdoptedOffsetsValidate) {
  const FactorizedPackingInstance instance = sample_instance(10, 24, 17);
  // Good adoption: explicit boundaries round-trip.
  sparse::ShardedFactorizedSet adopted(instance.set(),
                                       std::vector<Index>{0, 4, 10});
  EXPECT_EQ(adopted.shard_count(), 2);
  EXPECT_EQ(adopted.shard_begin(1), 4);
  EXPECT_EQ(adopted.shard_end(1), 10);
  // Malformed boundary lists are rejected.
  EXPECT_THROW(sparse::ShardedFactorizedSet(instance.set(),
                                            std::vector<Index>{0, 4, 9}),
               InvalidArgument);
  EXPECT_THROW(sparse::ShardedFactorizedSet(instance.set(),
                                            std::vector<Index>{0, 7, 4, 10}),
               InvalidArgument);
  EXPECT_THROW(sparse::ShardedFactorizedSet(instance.set(),
                                            std::vector<Index>{0, 4, 4, 10}),
               InvalidArgument);
}

}  // namespace
}  // namespace psdp::core
