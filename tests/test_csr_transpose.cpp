// Property-style equivalence suite for the transpose kernels: the
// transpose-index gather, the segmented-column gather, the serial row
// scatter of an unindexed matrix, and a naive dense reference must agree
// on randomized sparsity patterns, across thread counts and panel widths.
// Determinism is part of the contract: all three kernels fold each output
// row in one serial ascending-row chain, so they are bitwise identical to
// each other at every thread count and for any segment window. Future
// kernel refactors cannot silently change a single bit of the solver
// trajectories that sit on top of these kernels. The
// apply_transpose_block dispatch inherits the same guarantee: it runs the
// segmented gather on gridded matrices, the plain gather on grid-less
// indexed ones, and the scatter only when there is no transpose index.
#include <gtest/gtest.h>

#include <vector>

#include "apps/generators.hpp"
#include "core/penalty_oracle.hpp"
#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "rand/rng.hpp"
#include "sparse/csr.hpp"
#include "test_helpers.hpp"
#include "util/tunables.hpp"

namespace psdp::sparse {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// RAII guard: restore the global thread count on scope exit.
struct ThreadGuard {
  int before = par::num_threads();
  ~ThreadGuard() { par::set_num_threads(before); }
};

/// Random rows x cols pattern with ~nnz_per_row entries per row (some rows
/// and columns may stay empty -- the kernels must handle both).
Csr random_sparse(Index rows, Index cols, Index nnz_per_row,
                  std::uint64_t seed) {
  rand::Rng rng(seed);
  std::vector<Triplet> triplets;
  for (Index i = 0; i < rows; ++i) {
    const auto row_nnz = static_cast<Index>(rng.uniform_index(nnz_per_row + 1));
    for (Index e = 0; e < row_nnz; ++e) {
      triplets.push_back({i, static_cast<Index>(rng.uniform_index(cols)),
                          rng.normal()});
    }
  }
  return Csr::from_triplets(rows, cols, std::move(triplets));
}

/// Random dense panel with heterogeneous entries.
Matrix random_panel(Index rows, Index b, std::uint64_t seed) {
  rand::Rng rng(seed);
  Matrix x(rows, b);
  for (Index i = 0; i < rows; ++i) {
    for (Index t = 0; t < b; ++t) x(i, t) = rng.normal();
  }
  return x;
}

/// Naive dense reference of Y = A^T X (independent accumulation order, so
/// comparisons against it are tolerance-based).
Matrix naive_transpose_block(const Csr& a, const Matrix& x) {
  Matrix y(a.cols(), x.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      for (Index t = 0; t < x.cols(); ++t) {
        y(cols[k], t) += vals[k] * x(i, t);
      }
    }
  }
  return y;
}

/// Build options forcing a segment grid on the tiny test shapes (small base
/// granularity, tiny windows so the multi-window sweep actually runs, no
/// index-overhead gate).
TransposeIndexOptions forced_grid_options(Index segment_rows) {
  TransposeIndexOptions options;
  options.segment_rows = segment_rows;
  options.window_bytes = 64;  // ~1 segment per window at every test width
  options.max_segment_index_ratio = 1e9;
  return options;
}

struct Shape {
  Index rows;
  Index cols;
  Index nnz_per_row;
};

class CsrTransposeEquivalence
    : public ::testing::TestWithParam<std::tuple<Index, std::uint64_t>> {};

TEST_P(CsrTransposeEquivalence, GatherSegmentedScatterAndNaiveAgree) {
  const auto [b, seed] = GetParam();
  const Shape shapes[] = {
      {256, 4, 2},    // tall, narrow (the factor shape)
      {128, 128, 3},  // square
      {64, 16, 1},    // very sparse, some empty rows/cols
      {33, 7, 5},     // odd sizes, duplicate columns within rows likely
  };
  for (const Shape& shape : shapes) {
    Csr owned = random_sparse(shape.rows, shape.cols, shape.nnz_per_row, seed);
    Csr indexed = owned;  // same matrix, index built on the copy
    indexed.build_transpose_index();
    Csr segmented = owned;  // same matrix, with a forced segment grid
    segmented.build_transpose_index(forced_grid_options(16));
    // A second grid granularity: the window size is a pure locality knob,
    // so it must not change a single bit.
    Csr segmented_coarse = owned;
    segmented_coarse.build_transpose_index(forced_grid_options(8));
    ASSERT_FALSE(owned.has_transpose_index());
    ASSERT_TRUE(indexed.has_transpose_index());
    ASSERT_TRUE(segmented.has_segment_index());
    ASSERT_TRUE(segmented_coarse.has_segment_index());

    const Matrix x = random_panel(shape.rows, b, seed * 31 + 7);
    const Matrix naive = naive_transpose_block(owned, x);
    const Real tol = 1e-12 * static_cast<Real>(shape.nnz_per_row + 1);

    ThreadGuard guard;
    Matrix gather_one_thread;  // the cross-thread-count determinism anchor
    for (const int threads : {1, 2, std::max(4, guard.before)}) {
      par::set_num_threads(threads);

      // The unindexed matrix's dispatch: the serial row scatter.
      Matrix ys;
      owned.apply_transpose_block(x, ys);
      Matrix yg;
      indexed.apply_transpose_block_indexed(x, yg);
      Matrix yseg;
      segmented.apply_transpose_block_segmented(x, yseg);

      // All paths match the naive reference within accumulation rounding.
      EXPECT_MATRIX_NEAR(ys, naive, tol);
      EXPECT_MATRIX_NEAR(yg, naive, tol);
      EXPECT_MATRIX_NEAR(yseg, naive, tol);

      // The segmented gather folds each output in the same ascending-row
      // order as the plain gather: bitwise identical, at every thread
      // count and for every grid granularity.
      EXPECT_EQ(yseg, yg) << "segmented != gather bitwise at " << threads
                          << " threads";
      Matrix yseg_coarse;
      segmented_coarse.apply_transpose_block_segmented(x, yseg_coarse);
      EXPECT_EQ(yseg_coarse, yg)
          << "segmented gather bits depend on the grid granularity";

      // Bitwise determinism: re-running a kernel reproduces the exact bits.
      Matrix yg2;
      indexed.apply_transpose_block_indexed(x, yg2);
      EXPECT_EQ(yg, yg2) << "gather not deterministic at " << threads
                         << " threads";

      // The scatter accumulates each output column in row order, exactly
      // the gather's order -- bitwise equal at every thread count.
      EXPECT_EQ(ys, yg) << "gather != scatter bitwise at " << threads
                        << " threads";
      if (threads == 1) {
        gather_one_thread = yg;
      } else {
        EXPECT_EQ(yg, gather_one_thread)
            << "gather result changed with thread count " << threads;
      }

      // The public entry point's fixed rule: the segmented gather on a
      // gridded matrix, the plain gather on a grid-less indexed one. The
      // overload taking a partial buffer leaves it unused.
      ASSERT_FALSE(indexed.has_segment_index());
      Matrix yd;
      std::vector<Real> partial;
      segmented.apply_transpose_block(x, yd, partial);
      EXPECT_EQ(yd, yseg);
      indexed.apply_transpose_block(x, yd, partial);
      EXPECT_EQ(yd, yg);
      EXPECT_TRUE(partial.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PanelWidthsAndSeeds, CsrTransposeEquivalence,
    ::testing::Combine(::testing::Values<Index>(1, 4, 8, 32),
                       ::testing::Values<std::uint64_t>(3, 71, 1234)));

TEST(CsrTransposeIndex, VectorPathDispatchesAndMatches) {
  const Csr owned = random_sparse(300, 9, 3, 99);
  Csr indexed = owned;
  indexed.build_transpose_index();
  Vector x(300);
  rand::Rng rng(5);
  for (Index i = 0; i < x.size(); ++i) x[i] = rng.normal();

  const Vector ys = owned.apply_transpose(x);
  const Vector yg = indexed.apply_transpose(x);
  ASSERT_EQ(ys.size(), yg.size());
  for (Index j = 0; j < ys.size(); ++j) {
    EXPECT_NEAR(ys[j], yg[j], 1e-12) << "column " << j;
  }
}

TEST(CsrTransposeIndex, BuildIsIdempotentAndSurvivesScale) {
  Csr m = random_sparse(64, 8, 2, 17);
  m.build_transpose_index(forced_grid_options(16));
  m.build_transpose_index();  // no-op (options of the first build stick)
  ASSERT_TRUE(m.has_segment_index());
  const Matrix x = random_panel(64, 4, 3);
  Matrix before, before_seg;
  m.apply_transpose_block_indexed(x, before);
  m.apply_transpose_block_segmented(x, before_seg);
  // scale() must keep the cached CSC values (both kernels read them) in
  // sync.
  m.scale(2.5);
  Matrix after, after_seg;
  m.apply_transpose_block_indexed(x, after);
  m.apply_transpose_block_segmented(x, after_seg);
  Matrix expected = before;
  expected.scale(2.5);
  EXPECT_MATRIX_NEAR(after, expected, 1e-12);
  EXPECT_MATRIX_NEAR(after_seg, expected, 1e-12);
}

TEST(CsrTransposeIndex, IndexedRequiresBuild) {
  const Csr m = random_sparse(16, 4, 2, 1);
  Matrix y;
  EXPECT_THROW(m.apply_transpose_block_indexed(random_panel(16, 2, 2), y),
               InvalidArgument);
}

TEST(CsrTransposeIndex, SegmentedRequiresGrid) {
  Csr m = random_sparse(64, 8, 2, 1);
  m.build_transpose_index();  // default granularity 1024 > rows: no grid
  ASSERT_TRUE(m.has_transpose_index());
  ASSERT_FALSE(m.has_segment_index());
  Matrix y;
  EXPECT_THROW(m.apply_transpose_block_segmented(random_panel(64, 2, 2), y),
               InvalidArgument);
}

TEST(CsrTransposeIndex, GridSkippedWhenOffsetTableOutweighsData) {
  // Wide and sparse: the (num_segments+1) x cols offset table would dwarf
  // the nonzeros, so the default overhead gate skips the grid.
  Csr wide = random_sparse(128, 400, 1, 21);
  TransposeIndexOptions options;
  options.segment_rows = 4;  // 33 grid rows x 400 cols >> nnz
  wide.build_transpose_index(options);
  EXPECT_TRUE(wide.has_transpose_index());
  EXPECT_FALSE(wide.has_segment_index());
}

TEST(CsrTransposeIndex, EmptyColumnsProduceZeroRows) {
  // A matrix whose columns 1 and 3 are structurally empty.
  const Csr m = Csr::from_triplets(
      4, 5, {{0, 0, 1.0}, {1, 2, -2.0}, {3, 4, 0.5}, {2, 0, 3.0}});
  Csr indexed = m;
  indexed.build_transpose_index();
  const Matrix x = random_panel(4, 8, 11);
  Matrix y;
  indexed.apply_transpose_block_indexed(x, y);
  for (Index t = 0; t < 8; ++t) {
    EXPECT_EQ(y(1, t), 0.0);
    EXPECT_EQ(y(3, t), 0.0);
  }
  EXPECT_MATRIX_NEAR(y, naive_transpose_block(m, x), 1e-14);
}

// The work gate (par::work_grain) decides whether the SpMM and the gathers
// fan out, from (nnz + output rows) x b. Shapes below it must stay on
// the calling thread, shapes above it must reach the pool, and either
// way the bits must match a one-thread run: the gated loops write disjoint
// outputs, so their partition can never change a result.
TEST(CsrWorkGate, SpmmAndGathersBitwiseAcrossTheGate) {
  ThreadGuard guard;
  for (const Index b : {1, 8, 16}) {
    for (const Real fraction : {0.5, 5.0}) {
      const bool above = fraction > 1;
      // random_sparse draws ~4 entries per row (uniform in [0, 8]).
      const auto rows = static_cast<Index>(fraction * par::kMinChunkWork /
                                           static_cast<Real>(4 * b));
      const Index cols = std::max<Index>(2, rows / 8);
      Csr a = random_sparse(rows, cols, 8, 500 + static_cast<std::uint64_t>(b));
      // Two segment windows, each carrying half the nonzeros.
      TransposeIndexOptions options = forced_grid_options((rows + 1) / 2);
      options.window_bytes = 1;
      a.build_transpose_index(options);
      ASSERT_TRUE(a.has_segment_index());
      // The gate counts each output row's b stores besides its nonzeros,
      // and fans out once a sweep -- here each segment window -- fills two
      // chunks.
      if (above) {
        ASSERT_GT(static_cast<Real>(a.nnz() * b), 4 * par::kMinChunkWork)
            << "b=" << b;
      } else {
        ASSERT_LT(static_cast<Real>((a.nnz() + rows) * b), par::kMinChunkWork)
            << "b=" << b;
      }
      const Matrix x = random_panel(cols, b, 7);
      const Matrix xt = random_panel(rows, b, 8);

      struct Outputs {
        Matrix spmm, gather, segmented;
      };
      const auto run = [&](int threads) {
        par::set_num_threads(threads);
        Outputs out;
        const std::uint64_t before = par::global_pool().dispatched_batches();
        a.apply_block(x, out.spmm);
        const std::uint64_t after_spmm =
            par::global_pool().dispatched_batches();
        a.apply_transpose_block_indexed(xt, out.gather);
        const std::uint64_t after_gather =
            par::global_pool().dispatched_batches();
        a.apply_transpose_block_segmented(xt, out.segmented);
        const std::uint64_t after_segmented =
            par::global_pool().dispatched_batches();
        if (threads > 1) {
          EXPECT_EQ(after_spmm - before, above ? 1u : 0u) << "b=" << b;
          EXPECT_EQ(after_gather - after_spmm, above ? 1u : 0u) << "b=" << b;
          // One column-parallel fold per window when above the gate.
          EXPECT_EQ(after_segmented - after_gather, above ? 2u : 0u)
              << "b=" << b;
        }
        return out;
      };
      const Outputs serial = run(1);
      const Outputs wide = run(4);
      EXPECT_EQ(serial.spmm, wide.spmm) << "b=" << b << " above=" << above;
      EXPECT_EQ(serial.gather, wide.gather) << "b=" << b << " above=" << above;
      EXPECT_EQ(serial.segmented, wide.segmented)
          << "b=" << b << " above=" << above;
      EXPECT_EQ(serial.gather, serial.segmented) << "b=" << b;
      EXPECT_MATRIX_NEAR(serial.gather, naive_transpose_block(a, xt), 1e-10);
    }
  }
}

// The oracle-level face of the dispatch: penalties of the sketched oracle
// must not move by a bit when the segment window shrinks from covering the
// whole factor (the dispatch ends in the plain gather) to the smallest the
// tunable allows (the segmented gather sweeps several windows).
TEST(TransposeDispatchThreading, OraclePenaltiesInvariantToWindowing) {
  // Tall factors (2048 x 2) get the transpose index and a default segment
  // grid (2 segments of 1024 rows) at construction; the window is read
  // from the `window_bytes` tunable at that time.
  const apps::FactorizedOptions generator{
      .n = 6, .m = 2048, .rank = 2, .nnz_per_column = 8, .seed = 3};
  constexpr Index kBlock = 4;
  const core::FactorizedPackingInstance whole_window =
      apps::random_factorized(generator);
  const util::TunableId window = util::TunableId::k_window_bytes;
  const double saved_window = util::tunables().get(window);
  util::tunables().set(window, 4096);  // the minimum: 1 segment per window
  const core::FactorizedPackingInstance min_window =
      apps::random_factorized(generator);
  util::tunables().set(window, saved_window);

  // The cost meter tells the two sweeps apart: the plain gather charges
  // one reduction over the rows, the segmented sweep one per window.
  const auto transpose_depth = [&](const Csr& q) {
    const Matrix x = random_panel(q.rows(), kBlock, 5);
    Matrix y;
    std::vector<Real> partial;
    const std::uint64_t before = par::CostMeter::snapshot().depth;
    q.apply_transpose_block(x, y, partial);
    return par::CostMeter::snapshot().depth - before;
  };
  for (Index i = 0; i < whole_window.size(); ++i) {
    const Csr& whole = whole_window[i].q();
    const Csr& windowed = min_window[i].q();
    ASSERT_TRUE(whole.has_segment_index());
    ASSERT_TRUE(windowed.has_segment_index());
    EXPECT_EQ(transpose_depth(whole), par::reduction_depth(whole.rows()));
    EXPECT_EQ(transpose_depth(windowed), 2 * par::reduction_depth(2));
  }

  core::SketchedOracleOptions options;
  options.eps = 0.3;
  options.dot_options.sketch_rows_override = 8;
  options.dot_options.taylor_degree_override = 4;
  options.dot_options.block_size = kBlock;
  // Weights large enough that Psi dominates exp(Psi): at small weights the
  // identity swamps Psi, and a one-ulp change in a transpose output would
  // not reach the dots or the trace.
  const auto penalties = [&](const core::FactorizedPackingInstance& inst) {
    const Vector x0(inst.size(), 32.0);
    core::SketchedTaylorOracle oracle(inst, options);
    core::PenaltyBatch batch;
    oracle.compute(x0, /*round=*/1, batch);
    return std::make_pair(batch.dots, batch.trace);
  };

  ThreadGuard guard;
  par::set_num_threads(1);
  const auto [ref_dots, ref_trace] = penalties(whole_window);
  for (const int threads : {1, 4}) {
    par::set_num_threads(threads);
    const auto [dots, trace] = penalties(whole_window);
    const auto [windowed_dots, windowed_trace] = penalties(min_window);
    EXPECT_EQ(dots, ref_dots) << "threads " << threads;
    EXPECT_EQ(windowed_dots, ref_dots) << "threads " << threads;
    EXPECT_EQ(trace, ref_trace) << "threads " << threads;
    EXPECT_EQ(windowed_trace, ref_trace) << "threads " << threads;
  }
}

}  // namespace
}  // namespace psdp::sparse
