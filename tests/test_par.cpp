#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "apps/generators.hpp"
#include "core/penalty_oracle.hpp"
#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "par/thread_pool.hpp"
#include "sparse/csr.hpp"

namespace psdp::par {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.run_batch(100, [&](Index k) { hits[static_cast<std::size_t>(k)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  Index sum = 0;  // no synchronization needed: everything is inline
  pool.run_batch(10, [&](Index k) { sum += k; });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, EmptyBatchIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.run_batch(0, [&](Index) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.run_batch(8,
                     [&](Index k) {
                       if (k == 5) throw std::runtime_error("task failed");
                     }),
      std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> count{0};
  pool.run_batch(4, [&](Index) { count++; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, SequentialBatchesReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<Index> sum{0};
    pool.run_batch(16, [&](Index k) { sum += k; });
    ASSERT_EQ(sum.load(), 120) << "round " << round;
  }
}

TEST(ThreadPool, RejectsNegativeWorkerCount) {
  EXPECT_THROW(ThreadPool(-1), InvalidArgument);
}

TEST(ParallelFor, CoversRangeOnce) {
  std::vector<std::atomic<int>> hits(5000);
  parallel_for(0, 5000, [&](Index i) { hits[static_cast<std::size_t>(i)]++; },
               /*grain=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndReversedRanges) {
  bool ran = false;
  parallel_for(3, 3, [&](Index) { ran = true; });
  parallel_for(5, 2, [&](Index) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForChunked, ChunksPartitionTheRange) {
  std::mutex mu;
  std::vector<std::pair<Index, Index>> chunks;
  parallel_for_chunked(0, 10000, [&](Index b, Index e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back({b, e});
  }, /*grain=*/64);
  std::sort(chunks.begin(), chunks.end());
  Index expected_begin = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, expected_begin);
    EXPECT_LT(b, e);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, 10000);
}

/// RAII guard: restore the global thread count on scope exit.
struct ThreadGuard {
  int before = num_threads();
  ~ThreadGuard() { set_num_threads(before); }
};

TEST(ParallelSum, MatchesSerialSum) {
  const Index n = 100000;
  const Real got = parallel_sum(0, n, [](Index i) {
    return static_cast<Real>(i);
  });
  EXPECT_NEAR(got, static_cast<Real>(n) * (n - 1) / 2, 1e-3);
  EXPECT_EQ(parallel_sum(5, 5, [](Index) { return 1.0; }), 0.0);
}

TEST(ParallelSum, BitwiseAcrossThreadCounts) {
  // 50000 terms span four fixed pieces; the pieces, not the pool width,
  // fix the summation order.
  const Index n = 50000;
  const auto term = [](Index i) { return 1.0 / (static_cast<Real>(i) + 1); };
  ASSERT_GT(n, 2 * kDeterministicSumChunk);
  Real want = 0;
  for (Index b = 0; b < n; b += kDeterministicSumChunk) {
    Real piece = 0;
    for (Index i = b; i < std::min(n, b + kDeterministicSumChunk); ++i) {
      piece += term(i);
    }
    want += piece;
  }
  ThreadGuard guard;
  for (const int threads : {1, 2, 7}) {
    set_num_threads(threads);
    EXPECT_EQ(parallel_sum(0, n, term), want) << threads << " threads";
    EXPECT_EQ(parallel_sum(0, n, term), want) << threads << " threads, rerun";
  }
}

TEST(ParallelMax, FindsMaximum) {
  EXPECT_EQ(parallel_max(0, 1000,
                         [](Index i) { return static_cast<Real>(i % 100); }),
            99);
  EXPECT_THROW(parallel_max(0, 0, [](Index) { return 0.0; }), InvalidArgument);
}

TEST(ParallelFor, NestedParallelismRunsInline) {
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](Index) {
    parallel_for(0, 8, [&](Index) { total++; }, /*grain=*/1);
  }, /*grain=*/1);
  EXPECT_EQ(total.load(), 64);
}

TEST(NumThreads, SetAndRestore) {
  const int before = num_threads();
  set_num_threads(2);
  EXPECT_EQ(num_threads(), 2);
  std::atomic<int> count{0};
  parallel_for(0, 100, [&](Index) { count++; }, /*grain=*/1);
  EXPECT_EQ(count.load(), 100);
  set_num_threads(before);
  EXPECT_THROW(set_num_threads(0), InvalidArgument);
}

TEST(CostMeter, AccumulatesAndResets) {
  CostMeter::reset();
  CostMeter::add_work(100);
  CostMeter::add_work(50);
  CostMeter::add_depth(7);
  const auto cost = CostMeter::snapshot();
  EXPECT_GE(cost.work, 150u);  // other tests' kernels may add more
  EXPECT_GE(cost.depth, 7u);
  CostMeter::reset();
  const auto zero = CostMeter::snapshot();
  EXPECT_EQ(zero.work, 0u);
  EXPECT_EQ(zero.depth, 0u);
}

TEST(CostMeter, ReductionDepthFormula) {
  EXPECT_EQ(reduction_depth(1), 1u);
  EXPECT_EQ(reduction_depth(2), 2u);
  EXPECT_EQ(reduction_depth(1024), 11u);
}

TEST(CostMeter, ThreadSafeAccumulation) {
  CostMeter::reset();
  parallel_for(0, 10000, [](Index) { CostMeter::add_work(1); }, /*grain=*/8);
  EXPECT_EQ(CostMeter::snapshot().work, 10000u);
}

TEST(ThreadPool, CountsOnlyDispatchedBatches) {
  ThreadPool inline_pool(0);
  inline_pool.run_batch(4, [](Index) {});
  EXPECT_EQ(inline_pool.dispatched_batches(), 0u);

  ThreadPool pool(2);
  pool.run_batch(0, [](Index) {});
  EXPECT_EQ(pool.dispatched_batches(), 0u);
  // The nested batch runs inline on whichever thread drains task k.
  pool.run_batch(4, [&](Index) { pool.run_batch(3, [](Index) {}); });
  EXPECT_EQ(pool.dispatched_batches(), 1u);
  {
    ScopedRegionInline inlined(true);
    pool.run_batch(4, [](Index) {});
  }
  EXPECT_EQ(pool.dispatched_batches(), 1u);
}

TEST(WorkGrain, ElementsPerChunkReachTheGate) {
  const auto k = static_cast<Index>(kMinChunkWork);
  // Work for fewer than two full chunks: one chunk of every element.
  EXPECT_EQ(work_grain(100, 0), 100);
  EXPECT_EQ(work_grain(100, 2 * kMinChunkWork - 1), 100);
  EXPECT_EQ(work_grain(0, 0), 1);
  // Enough for several: the fewest elements carrying kMinChunkWork.
  EXPECT_EQ(work_grain(100, 2 * kMinChunkWork), 50);
  EXPECT_EQ(work_grain(100, 100 * kMinChunkWork), 1);
  EXPECT_EQ(work_grain(100, 1000 * kMinChunkWork), 1);
  EXPECT_EQ(work_grain(1000, 3 * kMinChunkWork), 334);
  // Every element counts at least one unit of work.
  EXPECT_EQ(work_grain(4 * k, 0), k);
}

TEST(GlobalPool, ConcurrentFirstUseSharesOnePool) {
  ThreadGuard guard;
  set_num_threads(3);  // drops the pool: the threads below race to create it
  constexpr int kThreads = 8;
  std::vector<ThreadPool*> seen(kThreads, nullptr);
  std::atomic<Index> covered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[static_cast<std::size_t>(t)] = &global_pool();
      parallel_for(0, 64, [&](Index) { covered++; }, /*grain=*/1);
    });
  }
  for (std::thread& t : threads) t.join();
  for (ThreadPool* pool : seen) EXPECT_EQ(pool, &global_pool());
  EXPECT_EQ(covered.load(), 64 * kThreads);
}

// A decision round on a tiny factorized instance (m=16, n=8, rank 2, 4 nnz
// per factor column -- the benchmark's tiny-solve shape) is microseconds of
// kernel work: every loop in it sits below the work gate, so the round
// must not pay for a single fork-join even with a 4-thread pool.
TEST(WorkGate, TinyOracleRoundDispatchesNothing) {
  ThreadGuard guard;
  set_num_threads(4);
  apps::FactorizedOptions shape;
  shape.m = 16;
  shape.n = 8;
  shape.rank = 2;
  shape.nnz_per_column = 4;
  const core::FactorizedPackingInstance instance =
      apps::random_factorized(shape);
  core::SketchedOracleOptions options;
  options.eps = 0.075;
  core::SketchedTaylorOracle oracle(instance, options);
  linalg::Vector x(instance.size());
  x.fill(0.1);
  core::PenaltyBatch batch;
  const std::uint64_t before = global_pool().dispatched_batches();
  oracle.compute(x, 0, batch);
  EXPECT_EQ(global_pool().dispatched_batches() - before, 0u);
  EXPECT_GT(batch.trace, 0);
}

/// An oracle on the benchmark's shard-rounds shape: m = 2048, n = 64,
/// rank 4, K = 4, 128 sketch rows (8 panels of 16).
struct ShardRound {
  core::FactorizedPackingInstance instance;
  core::SketchedTaylorOracle oracle;
  linalg::Vector x;

  explicit ShardRound(Index sketch_rows)
      : instance(apps::random_factorized(shape()).set(), 4),
        oracle(instance, options(sketch_rows)),
        x(instance.size()) {
    x.fill(0.05 / static_cast<Real>(instance.size()));
  }

  static apps::FactorizedOptions shape() {
    apps::FactorizedOptions shape;
    shape.m = 2048;
    shape.n = 64;
    shape.rank = 4;
    shape.nnz_per_column = 64;
    return shape;
  }

  static core::SketchedOracleOptions options(Index sketch_rows) {
    core::SketchedOracleOptions options;
    options.eps = 0.1;
    options.dot_options.sketch_rows_override = sketch_rows;
    return options;
  }
};

// A round on the shard shape runs its 8 panels on two concurrent slots:
// one pool region, where the panel-by-panel schedule forked per Psi apply,
// Taylor step, trace fold and dots sweep (144 regions at 2 threads).
TEST(WorkGate, ShardRoundRunsItsPanelsInOneRegion) {
  ThreadGuard guard;
  set_num_threads(2);
  ShardRound round(128);
  core::PenaltyBatch batch;
  round.oracle.compute(round.x, 0, batch);  // sizes the slots
  const std::uint64_t before = global_pool().dispatched_batches();
  round.oracle.compute(round.x, 1, batch);
  const std::uint64_t regions = global_pool().dispatched_batches() - before;
  EXPECT_GE(regions, 1u);
  EXPECT_LE(regions, 4u);
  EXPECT_GT(batch.trace, 0);
}

// The panels of a fused round are independent Taylor chains: the round
// charges one chain's depth -- the depth of a one-panel round -- at every
// width, whether its 8 panels run on one slot or several.
TEST(CostMeter, FusedRoundChargesOnePanelChainAtEveryWidth) {
  ThreadGuard guard;
  const auto round_depth = [](Index sketch_rows, int threads) {
    set_num_threads(threads);
    ShardRound round(sketch_rows);
    core::PenaltyBatch batch;
    CostMeter::reset();
    round.oracle.compute(round.x, 1, batch);
    return CostMeter::snapshot().depth;
  };
  const std::uint64_t one_panel = round_depth(16, 1);
  EXPECT_GT(one_panel, 0u);
  for (const int threads : {1, 2, 3, 4}) {
    EXPECT_EQ(round_depth(128, threads), one_panel) << threads << " threads";
  }
}

// ... while work well above the gate still fans out.
TEST(WorkGate, LargeSpmmStillDispatches) {
  ThreadGuard guard;
  set_num_threads(4);
  const Index rows = 4096;
  const Index cols = 512;
  const Index b = 16;
  std::vector<sparse::Triplet> triplets;
  for (Index i = 0; i < rows; ++i) {
    for (Index e = 0; e < 4; ++e) {
      triplets.push_back(
          {i, (i * 7 + e * 131) % cols, 1.0 + static_cast<Real>(e)});
    }
  }
  const sparse::Csr a =
      sparse::Csr::from_triplets(rows, cols, std::move(triplets));
  ASSERT_GE(static_cast<Real>(a.nnz() * b), 8 * kMinChunkWork);
  linalg::Matrix x(cols, b);
  x.fill(1);
  linalg::Matrix y;
  const std::uint64_t before = global_pool().dispatched_batches();
  a.apply_block(x, y);
  EXPECT_GE(global_pool().dispatched_batches() - before, 1u);
}

}  // namespace
}  // namespace psdp::par
