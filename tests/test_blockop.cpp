// Tests for the block-operator (SpMM) kernel layer: Csr::apply_block,
// apply_exp_taylor_block, SignSketch::fill_block, and the blocked
// bigDotExp path, each validated against its single-vector reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "apps/generators.hpp"
#include "core/bigdotexp.hpp"
#include "core/instance.hpp"
#include "linalg/blockop.hpp"
#include "linalg/matrixf.hpp"
#include "linalg/taylor.hpp"
#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "rand/jl.hpp"
#include "rand/rng.hpp"
#include "simd/simd.hpp"
#include "sparse/csr.hpp"
#include "sparse/factorized.hpp"
#include "sparse/sharded.hpp"
#include "test_helpers.hpp"

namespace psdp {
namespace {

using linalg::Matrix;
using linalg::MatrixF;
using linalg::Vector;

struct ThreadGuard {
  int before = par::num_threads();
  ~ThreadGuard() { par::set_num_threads(before); }
};

template <typename T>
bool same_bytes(const T* a, const T* b, Index n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(T)) == 0;
}

sparse::Csr random_sparse(Index rows, Index cols, Index nnz_per_row,
                          std::uint64_t seed) {
  rand::Rng rng(seed);
  std::vector<sparse::Triplet> triplets;
  for (Index i = 0; i < rows; ++i) {
    for (Index e = 0; e < nnz_per_row; ++e) {
      triplets.push_back({i, rng.uniform_index(cols), rng.normal()});
    }
  }
  return sparse::Csr::from_triplets(rows, cols, std::move(triplets));
}

Matrix random_panel(Index rows, Index cols, std::uint64_t seed) {
  rand::Rng rng(seed);
  Matrix panel(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index t = 0; t < cols; ++t) panel(i, t) = rng.normal();
  }
  return panel;
}

sparse::FactorizedSet random_set(Index m, Index n, std::uint64_t seed) {
  std::vector<sparse::FactorizedPsd> items;
  for (Index i = 0; i < n; ++i) {
    items.push_back(sparse::FactorizedPsd(random_sparse(
        m, 3, 2, seed * 1000 + static_cast<std::uint64_t>(i))));
  }
  return sparse::FactorizedSet(std::move(items));
}

TEST(CsrApplyBlock, MatchesStackedApplyBitwise) {
  const sparse::Csr a = random_sparse(40, 25, 5, 1);
  for (const Index b : {1, 3, 8}) {
    const Matrix x = random_panel(25, b, 2);
    Matrix y;
    a.apply_block(x, y);
    ASSERT_EQ(y.rows(), 40);
    ASSERT_EQ(y.cols(), b);
    Vector col(25), want(40);
    for (Index t = 0; t < b; ++t) {
      linalg::panel_column(x, t, col);
      a.apply(col, want);
      for (Index i = 0; i < 40; ++i) EXPECT_EQ(y(i, t), want[i]) << i << "," << t;
    }
  }
}

TEST(CsrApplyBlock, TransposeMatchesStackedApplyTranspose) {
  const sparse::Csr a = random_sparse(30, 45, 4, 3);
  for (const Index b : {1, 4, 16}) {
    const Matrix x = random_panel(30, b, 4);
    Matrix y;
    a.apply_transpose_block(x, y);
    ASSERT_EQ(y.rows(), 45);
    ASSERT_EQ(y.cols(), b);
    Vector col(30), want(45);
    for (Index t = 0; t < b; ++t) {
      linalg::panel_column(x, t, col);
      a.apply_transpose(col, want);
      for (Index i = 0; i < 45; ++i) {
        EXPECT_NEAR(y(i, t), want[i], 1e-14 * (1 + std::abs(want[i])));
      }
    }
  }
}

TEST(CsrApplyBlock, EmptyMatrixGivesZeroPanel) {
  const sparse::Csr zero = sparse::Csr::from_triplets(5, 5, {});
  const Matrix x = random_panel(5, 4, 5);
  Matrix y;
  zero.apply_block(x, y);
  for (Index i = 0; i < 5; ++i) {
    for (Index t = 0; t < 4; ++t) EXPECT_EQ(y(i, t), 0.0);
  }
}

TEST(CsrApplyBlock, ValidatesDimensions) {
  const sparse::Csr a = random_sparse(6, 4, 2, 6);
  Matrix y;
  const Matrix bad = random_panel(5, 2, 7);
  EXPECT_THROW(a.apply_block(bad, y), InvalidArgument);
  EXPECT_THROW(a.apply_transpose_block(bad, y), InvalidArgument);
}

TEST(TaylorBlock, MatchesSingleVectorColumnByColumn) {
  // Symmetric sparse operator with moderate norm, like a mid-run Phi/2.
  const Index m = 32;
  std::vector<sparse::Triplet> triplets;
  for (Index i = 0; i < m; ++i) {
    triplets.push_back({i, i, 0.5});
    if (i + 1 < m) {
      triplets.push_back({i, i + 1, 0.2});
      triplets.push_back({i + 1, i, 0.2});
    }
  }
  const sparse::Csr bmat = sparse::Csr::from_triplets(m, m, std::move(triplets));
  const linalg::SymmetricOp op = [&bmat](const Vector& x, Vector& y) {
    bmat.apply(x, y);
  };
  const linalg::BlockOp block_op = [&bmat](const Matrix& x, Matrix& y) {
    bmat.apply_block(x, y);
  };
  for (const Index b : {1, 4, 8}) {
    const Matrix x = random_panel(m, b, 8);
    Matrix y;
    linalg::TaylorBlockWorkspace workspace;
    linalg::apply_exp_taylor_block(block_op, /*degree=*/13, x, y, workspace);
    Vector col(m), want(m);
    for (Index t = 0; t < b; ++t) {
      linalg::panel_column(x, t, col);
      linalg::apply_exp_taylor(op, 13, col, want);
      for (Index i = 0; i < m; ++i) {
        EXPECT_NEAR(y(i, t), want[i], 1e-12 * (1 + std::abs(want[i])))
            << "column " << t << " row " << i;
      }
    }
  }
}

TEST(TaylorBlock, WorkspaceReuseAcrossShapes) {
  const sparse::Csr a = random_sparse(10, 10, 3, 9);
  const linalg::BlockOp block_op = [&a](const Matrix& x, Matrix& y) {
    a.apply_block(x, y);
  };
  linalg::TaylorBlockWorkspace workspace;
  Matrix y1, y2;
  linalg::apply_exp_taylor_block(block_op, 6, random_panel(10, 4, 10), y1,
                                 workspace);
  // Second call with a different width must resize cleanly.
  linalg::apply_exp_taylor_block(block_op, 6, random_panel(10, 7, 11), y2,
                                 workspace);
  EXPECT_EQ(y2.cols(), 7);
  // Convenience overload agrees with the workspace overload.
  Matrix y3;
  const Matrix x = random_panel(10, 4, 10);
  linalg::apply_exp_taylor_block(block_op, 6, x, y3);
  Matrix y4;
  linalg::apply_exp_taylor_block(block_op, 6, x, y4, workspace);
  EXPECT_EQ(y3, y4);
}

TEST(TaylorBlock, DegreeOneIsIdentity) {
  const sparse::Csr a = random_sparse(8, 8, 2, 12);
  const linalg::BlockOp block_op = [&a](const Matrix& x, Matrix& y) {
    a.apply_block(x, y);
  };
  const Matrix x = random_panel(8, 3, 13);
  Matrix y;
  linalg::apply_exp_taylor_block(block_op, 1, x, y);
  EXPECT_EQ(x, y);
}

TEST(BlockOpAdapter, MatchesNativeBlockKernel) {
  const sparse::Csr a = random_sparse(12, 12, 3, 14);
  const linalg::SymmetricOp op = [&a](const Vector& x, Vector& y) {
    a.apply(x, y);
  };
  const linalg::BlockOp adapted = linalg::block_op_from_symmetric(op, 12);
  const Matrix x = random_panel(12, 5, 15);
  Matrix y_adapted, y_native;
  adapted(x, y_adapted);
  a.apply_block(x, y_native);
  EXPECT_EQ(y_adapted, y_native);
}

TEST(SketchFillBlock, MatchesMaterializedRows) {
  const Index r = 13;
  const Index m = 21;
  const rand::SignSketch materialized(r, m, 42);
  const rand::SignSketch lazy = rand::SignSketch::deferred(r, m, 42);
  for (const Index block : {1, 4, 5, 13}) {
    for (Index first = 0; first < r; first += block) {
      const Index count = std::min<Index>(block, r - first);
      Matrix panel;
      lazy.fill_block(first, count, panel);
      ASSERT_EQ(panel.rows(), m);
      ASSERT_EQ(panel.cols(), count);
      for (Index t = 0; t < count; ++t) {
        const auto row = materialized.row(first + t);
        for (Index i = 0; i < m; ++i) {
          EXPECT_EQ(panel(i, t), row[static_cast<std::size_t>(i)])
              << "block " << block << " row " << first + t;
        }
      }
    }
  }
}

TEST(SketchFillBlock, DeferredRejectsMaterializedOnlyCalls) {
  const rand::SignSketch lazy = rand::SignSketch::deferred(4, 6, 1);
  EXPECT_THROW(lazy.row(0), InvalidArgument);
  std::vector<Real> x(6, 1.0), y(4);
  EXPECT_THROW(lazy.apply(x, y), InvalidArgument);
  Matrix panel;
  EXPECT_THROW(lazy.fill_block(2, 3, panel), InvalidArgument);  // 2+3 > 4
}

TEST(FactorizedBlock, WeightedApplyBlockMatchesColumns) {
  const sparse::FactorizedSet set = random_set(14, 5, 20);
  rand::Rng rng(21);
  Vector weights(set.size());
  for (Index i = 0; i < set.size(); ++i) weights[i] = rng.uniform();
  weights[2] = 0;  // exercise the zero-weight skip
  const Matrix v = random_panel(14, 6, 22);
  Matrix y;
  sparse::FactorizedSet::BlockWorkspace workspace;
  set.weighted_apply_block(weights, v, y, workspace);
  Vector col(14), want(14);
  for (Index t = 0; t < 6; ++t) {
    linalg::panel_column(v, t, col);
    set.weighted_apply(weights, col, want);
    for (Index i = 0; i < 14; ++i) {
      EXPECT_TRUE(same_bytes(&y(i, t), &want[i], 1))
          << "row " << i << " column " << t << ": " << y(i, t) << " vs "
          << want[i];
    }
  }
}

/// n factors Q (m x k): `filled` distinct random rows carry `per_row`
/// random entries each (duplicates summed), the rest stay empty.
sparse::FactorizedSet patterned_set(Index m, Index k, Index n, Index filled,
                                    Index per_row, std::uint64_t seed) {
  rand::Rng rng(seed);
  std::vector<sparse::FactorizedPsd> items;
  for (Index f = 0; f < n; ++f) {
    std::vector<Index> rows(static_cast<std::size_t>(m));
    for (Index r = 0; r < m; ++r) rows[static_cast<std::size_t>(r)] = r;
    for (Index r = 0; r < filled; ++r) {  // partial Fisher-Yates
      std::swap(rows[static_cast<std::size_t>(r)],
                rows[static_cast<std::size_t>(r + rng.uniform_index(m - r))]);
    }
    std::vector<sparse::Triplet> triplets;
    for (Index r = 0; r < filled; ++r) {
      for (Index e = 0; e < per_row; ++e) {
        triplets.push_back({rows[static_cast<std::size_t>(r)],
                            rng.uniform_index(k), rng.normal()});
      }
    }
    items.push_back(sparse::FactorizedPsd(
        sparse::Csr::from_triplets(m, k, std::move(triplets))));
  }
  return sparse::FactorizedSet(std::move(items));
}

/// The implicit Psi as the per-constraint composition it replaces: the
/// transpose SpMM, a full-height SpMM, then a dense weighted add.
Matrix composed_psi(const sparse::FactorizedSet& set, const Vector& w,
                    const Matrix& v) {
  Matrix y(set.dim(), v.cols());
  Matrix s, c;
  for (Index i = 0; i < set.size(); ++i) {
    if (w[i] == 0) continue;
    set[i].q().apply_transpose_block(v, s);
    set[i].q().apply_block(s, c);
    y.add_scaled(c, w[i]);
  }
  return y;
}

MatrixF composed_psi_f(const sparse::FactorizedSet& set, const Vector& w,
                       const MatrixF& v) {
  MatrixF y(set.dim(), v.cols());
  MatrixF s, c;
  std::vector<float> values, t_values;
  for (Index i = 0; i < set.size(); ++i) {
    if (w[i] == 0) continue;
    const sparse::Csr& q = set[i].q();
    q.fill_float_values(values, t_values);
    q.apply_transpose_block_f(v, s, t_values);
    q.apply_block_f(s, c, values);
    const auto wf = static_cast<float>(w[i]);
    for (Index e = 0; e < y.rows() * y.cols(); ++e) {
      y.data()[e] += wf * c.data()[e];
    }
  }
  return y;
}

Vector composed_psi_vec(const sparse::FactorizedSet& set, const Vector& w,
                        const Vector& v) {
  Vector y(set.dim());
  Vector s, c;
  for (Index i = 0; i < set.size(); ++i) {
    if (w[i] == 0) continue;
    set[i].q().apply_transpose(v, s);
    set[i].q().apply(s, c);
    y.add_scaled(c, w[i]);
  }
  return y;
}

TEST(FactorizedPsd, NonemptyRowsListsExactlyTheRowsWithEntries) {
  const sparse::FactorizedSet set = patterned_set(40, 3, 3, 7, 2, 90);
  for (Index i = 0; i < set.size(); ++i) {
    std::vector<Index> want;
    for (Index r = 0; r < 40; ++r) {
      if (!set[i].q().row_cols(r).empty()) want.push_back(r);
    }
    const auto rows = set[i].nonempty_rows();
    EXPECT_EQ(std::vector<Index>(rows.begin(), rows.end()), want);
    EXPECT_EQ(want.size(), 7u);
    const sparse::FactorizedPsd scaled = set[i].scaled(2.5);
    EXPECT_EQ(std::vector<Index>(scaled.nonempty_rows().begin(),
                                 scaled.nonempty_rows().end()),
              want);
  }
}

TEST(FactorizedBlock, SweepIsBitwiseTheComposedPsi) {
  ThreadGuard guard;
  struct Shape {
    const char* name;
    sparse::FactorizedSet set;
  };
  const std::vector<Shape> shapes = {
      // Tall and mostly empty (perfbench's shard-rounds factors, scaled
      // down): transpose-index gathers, 24 of 256 rows filled.
      {"tall-sparse", patterned_set(256, 4, 6, 24, 2, 91)},
      // Every row filled and not tall (24 rows, 8 columns): indexed at
      // construction like every factor.
      {"full-wide", patterned_set(24, 8, 5, 24, 2, 92)},
      // Large enough that both regions fan out at 4 threads (b >= 8).
      {"full-large", patterned_set(4096, 3, 2, 4096, 2, 93)},
  };
  const sparse::FactorizedSet& large = shapes[2].set;
  EXPECT_LT(par::work_grain(large.dim(),
                            static_cast<Real>(8 * (large.total_nnz() +
                                                   large.dim()))),
            large.dim());
  EXPECT_LT(par::work_grain(large.size(),
                            static_cast<Real>(8 * large.total_nnz())),
            large.size());
  for (const Shape& shape : shapes) {
    for (Index i = 0; i < shape.set.size(); ++i) {
      EXPECT_TRUE(shape.set[i].q().has_transpose_index()) << shape.name;
    }
  }

  for (const Shape& shape : shapes) {
    const sparse::FactorizedSet& set = shape.set;
    const Index m = set.dim();
    rand::Rng rng(94);
    Vector weights(set.size());
    for (Index i = 0; i < set.size(); ++i) weights[i] = rng.uniform();
    weights[1] = 0;  // the zero-weight skip
    if (set.size() > 3) weights[set.size() - 1] = 0;
    for (const simd::Isa isa : simd::compiled_isas()) {
      if (!simd::isa_available(isa)) continue;
      simd::ScopedIsa forced(isa);
      for (const int threads : {1, 4}) {
        par::set_num_threads(threads);
        for (const Index b : {1, 3, 8, 16, 32, 40}) {
          const std::string where = std::string(shape.name) + " " +
                                    simd::isa_name(isa) + " threads " +
                                    std::to_string(threads) + " b " +
                                    std::to_string(b);
          const Matrix v = random_panel(m, b, 95 + static_cast<std::uint64_t>(b));
          sparse::FactorizedSet::BlockWorkspace workspace;
          Matrix y;
          set.weighted_apply_block(weights, v, y, workspace);
          const Matrix want = composed_psi(set, weights, v);
          EXPECT_TRUE(same_bytes(y.data(), want.data(), m * b)) << where;
          // A warm workspace (recycled blocks) gives the same bits.
          set.weighted_apply_block(weights, v, y, workspace);
          EXPECT_TRUE(same_bytes(y.data(), want.data(), m * b))
              << where << " warm";

          MatrixF vf(m, b);
          for (Index e = 0; e < m * b; ++e) {
            vf.data()[e] = static_cast<float>(v.data()[e]);
          }
          MatrixF yf;
          set.weighted_apply_block_f(weights, vf, yf, workspace);
          const MatrixF want_f = composed_psi_f(set, weights, vf);
          EXPECT_TRUE(same_bytes(yf.data(), want_f.data(), m * b))
              << where << " float";

          if (b == 1) {
            Vector col(m), y_vec;
            linalg::panel_column(v, 0, col);
            set.weighted_apply(weights, col, y_vec);
            const Vector want_vec = composed_psi_vec(set, weights, col);
            EXPECT_TRUE(same_bytes(y_vec.data(), want_vec.data(), m))
                << where << " matvec";
          }
        }
      }
    }
  }
}

TEST(FactorizedBlock, SweepChargesThreadIndependentCosts) {
  ThreadGuard guard;
  const sparse::FactorizedSet set = patterned_set(4096, 3, 4, 4096, 2, 96);
  Vector weights(set.size(), 0.5);
  weights[2] = 0;
  const Matrix v = random_panel(set.dim(), 8, 97);
  std::vector<par::CostMeter::Cost> costs;
  for (const int threads : {1, 2, 4}) {
    par::set_num_threads(threads);
    sparse::FactorizedSet::BlockWorkspace workspace;
    Matrix y;
    par::CostMeter::reset();
    set.weighted_apply_block(weights, v, y, workspace);
    costs.push_back(par::CostMeter::snapshot());
  }
  // Work: 4 b nnz(Q_i) per nonzero weight. Depth: reduction_depth(m) +
  // reduction_depth(max row nnz across the set), once per apply.
  Index active_nnz = 0;
  for (Index i = 0; i < set.size(); ++i) {
    if (weights[i] != 0) active_nnz += set[i].nnz();
  }
  Index max_row_nnz = 0;
  for (Index r = 0; r < set.dim(); ++r) {
    Index row_nnz = 0;
    for (Index i = 0; i < set.size(); ++i) {
      row_nnz += static_cast<Index>(set[i].q().row_cols(r).size());
    }
    max_row_nnz = std::max(max_row_nnz, row_nnz);
  }
  for (const par::CostMeter::Cost& cost : costs) {
    EXPECT_EQ(cost.work, static_cast<std::uint64_t>(4 * 8 * active_nnz));
    EXPECT_EQ(cost.depth, par::reduction_depth(set.dim()) +
                              par::reduction_depth(max_row_nnz));
  }
}

TEST(FactorizedBlock, SweepIsTwoPoolRegionsOnTheShardShape) {
  ThreadGuard guard;
  par::set_num_threads(2);
  const auto dispatches_per_apply = [](const sparse::FactorizedSet& set) {
    Vector weights(set.size(), 0.25);
    const Matrix v = random_panel(set.dim(), 16, 98);
    sparse::FactorizedSet::BlockWorkspace workspace;
    Matrix y;
    set.weighted_apply_block(weights, v, y, workspace);  // warm
    const std::uint64_t before = par::global_pool().dispatched_batches();
    set.weighted_apply_block(weights, v, y, workspace);
    return par::global_pool().dispatched_batches() - before;
  };
  // perfbench's shard-rounds instance: m = 2048, n = 64, rank 4, 64
  // entries per column, K = 4 -- one region over constraints, one over
  // rows, each split across the two threads; the per-factor transposes
  // run inline inside the first.
  apps::FactorizedOptions shard;
  shard.m = 2048;
  shard.n = 64;
  shard.rank = 4;
  shard.nnz_per_column = 64;
  const sparse::ShardedFactorizedSet sharded(
      apps::random_factorized(shard).set(), 4);
  EXPECT_EQ(dispatches_per_apply(sharded.set()), 2u);
  // The tiny-solve shape stays on the caller.
  apps::FactorizedOptions tiny;
  tiny.m = 16;
  tiny.n = 8;
  tiny.rank = 2;
  tiny.nnz_per_column = 4;
  EXPECT_EQ(dispatches_per_apply(apps::random_factorized(tiny).set()), 0u);
}

// The matvec's workspace form (the one Lanczos calls per iteration) gives
// the allocating form's bits, and a warm workspace is reused in place, on
// the m = 24, rank-8 instance of the determinism suite.
TEST(FactorizedBlock, WeightedApplyWorkspaceFormIsBitwiseTheAllocatingForm) {
  const sparse::FactorizedSet set =
      apps::random_factorized({.n = 8, .m = 24, .rank = 8,
                               .nnz_per_column = 4, .seed = 42})
          .set();
  const Index m = set.dim();
  sparse::FactorizedSet::BlockWorkspace workspace;
  std::vector<const Real*> storage;
  Vector y;
  for (int call = 0; call < 4; ++call) {
    Vector weights(set.size());
    for (Index i = 0; i < set.size(); ++i) {
      weights[i] = 0.25 * static_cast<Real>((i + call) % 5);  // some zero
    }
    const Matrix v = random_panel(m, 1, 130 + static_cast<std::uint64_t>(call));
    Vector col(m);
    linalg::panel_column(v, 0, col);
    set.weighted_apply(weights, col, y, workspace);
    Vector want;
    set.weighted_apply(weights, col, want);
    EXPECT_TRUE(same_bytes(y.data(), want.data(), m)) << "call " << call;
    const Vector composed = composed_psi_vec(set, weights, col);
    EXPECT_TRUE(same_bytes(y.data(), composed.data(), m)) << "call " << call;
    // A column, once sized (at its first nonzero weight), is reused.
    ASSERT_EQ(workspace.columns.size(), static_cast<std::size_t>(set.size()));
    storage.resize(workspace.columns.size(), nullptr);
    for (std::size_t i = 0; i < storage.size(); ++i) {
      if (storage[i] == nullptr) storage[i] = workspace.columns[i].data();
      EXPECT_EQ(workspace.columns[i].data(), storage[i]) << "call " << call;
    }
  }
}

/// bigDotExp fixture: a factorized set plus a sparse Phi.
struct BigDotFixture {
  sparse::FactorizedSet set;
  sparse::Csr phi;

  explicit BigDotFixture(Index m, std::uint64_t seed)
      : set(random_set(m, 6, seed)) {
    linalg::Matrix dense = psdp::testing::random_psd(m, seed + 5);
    dense.scale(1.5);
    phi = sparse::Csr::from_dense(dense);
  }
};

TEST(BigDotExpBlocked, BlockSizeOneIsBitIdenticalToReference) {
  const BigDotFixture f(18, 30);
  core::BigDotExpOptions options;
  options.eps = 0.2;
  options.sketch_rows_override = 24;
  options.block_size = 1;
  const core::BigDotExpResult reference =
      core::big_dot_exp(f.phi, 2.0, f.set, options);
  EXPECT_EQ(reference.block_size, 1);
  // The operator overload resolves auto block size to the same reference
  // path; with the same seed every float must match bit for bit.
  const linalg::SymmetricOp op = [&f](const Vector& x, Vector& y) {
    f.phi.apply(x, y);
  };
  core::BigDotExpOptions auto_options = options;
  auto_options.block_size = 0;
  const core::BigDotExpResult via_op =
      core::big_dot_exp(op, 18, 2.0, f.set, auto_options);
  EXPECT_EQ(via_op.block_size, 1);
  EXPECT_EQ(reference.dots, via_op.dots);
  EXPECT_EQ(reference.trace_exp, via_op.trace_exp);
}

TEST(BigDotExpBlocked, FusedDotsAreBitwiseTheRowScatter) {
  // At Taylor degree 1 the fused path's panels are the sign sketch
  // panels themselves, so the dots can be rebuilt here from the scatter
  // kernel over every row of every factor -- the loop the gather replaced.
  ThreadGuard guard;
  const sparse::FactorizedSet tall = patterned_set(256, 4, 5, 30, 2, 120);
  const sparse::FactorizedSet wide = patterned_set(24, 8, 4, 20, 2, 121);
  ASSERT_TRUE(tall[0].q().has_transpose_index());
  ASSERT_TRUE(wide[0].q().has_transpose_index());
  constexpr Index kRows = 40;
  for (const sparse::FactorizedSet* set : {&tall, &wide}) {
    const Index m = set->dim();
    const sparse::Csr phi = sparse::Csr::identity(m);
    for (const simd::Isa isa : simd::compiled_isas()) {
      if (!simd::isa_available(isa)) continue;
      simd::ScopedIsa scoped(isa);
      const simd::KernelTable& kt = simd::active_kernels();
      for (const Index block : {3, 16}) {
        core::BigDotExpOptions options;
        options.eps = 0.2;
        options.seed = 122;
        options.sketch_rows_override = kRows;
        options.taylor_degree_override = 1;
        options.block_size = block;
        const rand::SignSketch sketch =
            rand::SignSketch::deferred(kRows, m, options.seed);
        Vector want(set->size());
        Matrix panel;
        for (Index j0 = 0; j0 < kRows; j0 += block) {
          const Index b = std::min(block, kRows - j0);
          sketch.fill_block(j0, b, panel);
          for (Index i = 0; i < set->size(); ++i) {
            const sparse::Csr& q = (*set)[i].q();
            std::vector<Real> acc(static_cast<std::size_t>(q.cols() * b), 0);
            kt.scatter_rows(q.row_offsets().data(), q.col_indices().data(),
                            q.values().data(), 0, q.rows(), b, panel.data(),
                            acc.data());
            want[i] += kt.sum_sq(acc.data(), q.cols() * b);
          }
        }
        for (const int threads : {1, 4}) {
          par::set_num_threads(threads);
          const core::BigDotExpResult r =
              core::big_dot_exp(phi, 1.0, *set, options);
          ASSERT_TRUE(r.fused);
          EXPECT_TRUE(same_bytes(r.dots.data(), want.data(), set->size()))
              << "m " << m << " " << simd::isa_name(isa) << " block "
              << block << " threads " << threads;
        }
      }
    }
  }
}

TEST(BigDotExpBlocked, BlockSizesAgreeWithinTolerance) {
  const BigDotFixture f(20, 31);
  core::BigDotExpOptions options;
  options.eps = 0.2;
  options.sketch_rows_override = 32;
  options.block_size = 1;
  const core::BigDotExpResult reference =
      core::big_dot_exp(f.phi, 2.0, f.set, options);
  for (const Index b : {2, 8, 32}) {
    core::BigDotExpOptions blocked = options;
    blocked.block_size = b;
    const core::BigDotExpResult r = core::big_dot_exp(f.phi, 2.0, f.set, blocked);
    EXPECT_EQ(r.block_size, b);
    EXPECT_EQ(r.sketch_rows, reference.sketch_rows);
    // Same seed => same sketch; only summation order differs.
    EXPECT_NEAR(r.trace_exp / reference.trace_exp, 1.0, 1e-10) << b;
    for (Index i = 0; i < f.set.size(); ++i) {
      EXPECT_NEAR(r.dots[i] / reference.dots[i], 1.0, 1e-10)
          << "block " << b << " dot " << i;
    }
  }
}

TEST(BigDotExpBlocked, ExactSketchBlockedMatchesReference) {
  const BigDotFixture f(12, 32);
  core::BigDotExpOptions options;
  options.eps = 0.05;  // small instance: JL formula asks for r >= m => exact
  core::BigDotExpOptions ref_options = options;
  ref_options.block_size = 1;
  const core::BigDotExpResult reference =
      core::big_dot_exp(f.phi, 1.5, f.set, ref_options);
  ASSERT_TRUE(reference.exact_sketch);
  const core::BigDotExpResult blocked =
      core::big_dot_exp(f.phi, 1.5, f.set, options);
  EXPECT_TRUE(blocked.exact_sketch);
  EXPECT_GT(blocked.block_size, 1);
  for (Index i = 0; i < f.set.size(); ++i) {
    EXPECT_NEAR(blocked.dots[i] / reference.dots[i], 1.0, 1e-11) << i;
  }
  EXPECT_NEAR(blocked.trace_exp / reference.trace_exp, 1.0, 1e-11);
}

TEST(BigDotExpBlocked, AutoBlockCappedAtSketchRows) {
  const BigDotFixture f(10, 33);
  core::BigDotExpOptions options;
  options.eps = 0.2;
  options.sketch_rows_override = 3;  // r < kDefaultBlockSize
  const core::BigDotExpResult r = core::big_dot_exp(f.phi, 1.0, f.set, options);
  EXPECT_EQ(r.block_size, 3);
}

TEST(BigDotExpBlocked, RejectsNegativeBlockSize) {
  const BigDotFixture f(8, 34);
  core::BigDotExpOptions options;
  options.block_size = -2;
  EXPECT_THROW(core::big_dot_exp(f.phi, 1.0, f.set, options), InvalidArgument);
}

// A float32 round on four slots builds the factors' float value copies
// once, in slot 0's scratch; slots 1..3 read it and hold none, and the
// round's bits are the one-slot round's.
TEST(BigDotExpBlocked, WideFloat32RoundHoldsOneFloatCopy) {
  ThreadGuard guard;
  const sparse::FactorizedSet set =
      apps::random_factorized({.n = 6, .m = 2048, .rank = 2,
                               .nnz_per_column = 8, .seed = 43})
          .set();
  Vector x(set.size());
  for (Index i = 0; i < x.size(); ++i) {
    x[i] = (1.0 + 0.25 * static_cast<Real>(i % 5)) /
           static_cast<Real>(set.size());
  }
  core::BigDotExpOptions options;
  options.eps = 0.3;
  options.sketch_rows_override = 128;  // 8 panels of 16
  options.panel_precision = core::PanelPrecision::kFloat32;
  const auto round = [&](int threads, core::SolverWorkspace& workspace) {
    par::set_num_threads(threads);
    core::BigDotExpResult result;
    core::big_dot_exp(x, 2.0, set, options, workspace, result);
    EXPECT_EQ(result.panel_precision, core::PanelPrecision::kFloat32);
    return result;
  };
  core::SolverWorkspace narrow;
  const core::BigDotExpResult want = round(1, narrow);
  core::SolverWorkspace wide;
  const core::BigDotExpResult got = round(4, wide);
  ASSERT_EQ(wide.slots.size(), 3u);
  EXPECT_EQ(wide.factor.float_values.size(),
            static_cast<std::size_t>(set.size()));
  for (const core::PanelWorkspace& slot : wide.slots) {
    EXPECT_TRUE(slot.factor.float_values.empty());
  }
  EXPECT_TRUE(same_bytes(got.dots.data(), want.dots.data(), set.size()));
  EXPECT_EQ(got.trace_exp, want.trace_exp);
}

// Far past kappa, the series of exp(Phi/2) outgrows double. The round is
// rerun on a sketch scaled by a power of two, on each of the three panel
// paths, and the ratios of its estimates are those of the unscaled series,
// computed here densely in long double from a 2^-600 start (so the
// reference fits whatever range long double has).
TEST(BigDotExpBlocked, OverflowingRoundIsRerunAtAPowerOfTwoScale) {
  const sparse::FactorizedSet set =
      apps::random_factorized({.n = 6, .m = 16, .rank = 2,
                               .nnz_per_column = 4, .seed = 7})
          .set();
  const auto m = static_cast<std::size_t>(set.dim());
  constexpr Index kDegree = 120;
  // P = 2^-600 sum_{j<k} (Psi/2)^j / j!; with the exact sketch the trace
  // estimate is ||P||_F^2 and dots_i = <P^2, A_i>.
  const auto reference_ratios = [&](Real weight) {
    using Dense = std::vector<long double>;  // m x m, row-major
    const auto product = [m](const Dense& a, const Dense& b) {
      Dense c(m * m, 0);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t k = 0; k < m; ++k) {
          for (std::size_t j = 0; j < m; ++j) {
            c[i * m + j] += a[i * m + k] * b[k * m + j];
          }
        }
      }
      return c;
    };
    std::vector<Dense> a(static_cast<std::size_t>(set.size()), Dense(m * m));
    Dense half_psi(m * m, 0);
    for (Index i = 0; i < set.size(); ++i) {
      const Matrix dense = set[i].to_dense();
      for (std::size_t e = 0; e < m * m; ++e) {
        a[static_cast<std::size_t>(i)][e] = dense.data()[e];
        half_psi[e] += 0.5L * weight * dense.data()[e];
      }
    }
    Dense term(m * m, 0);
    for (std::size_t i = 0; i < m; ++i) term[i * m + i] = std::ldexp(1.0L, -600);
    Dense p = term;
    for (Index j = 1; j < kDegree; ++j) {
      term = product(half_psi, term);
      for (std::size_t e = 0; e < m * m; ++e) {
        term[e] /= static_cast<long double>(j);
        p[e] += term[e];
      }
    }
    const Dense p2 = product(p, p);
    long double trace = 0;
    for (std::size_t i = 0; i < m; ++i) trace += p2[i * m + i];
    std::vector<Real> ratios;
    for (const Dense& ai : a) {
      long double dot = 0;
      for (std::size_t e = 0; e < m * m; ++e) dot += p2[e] * ai[e];
      ratios.push_back(static_cast<Real>(dot / trace));
    }
    return ratios;
  };
  // At weight 400 the estimates fit in double; at 800 they overflow it
  // and one rerun at 2^-256 brings them back.
  for (const Real weight : {400.0, 800.0}) {
    const Vector x(set.size(), weight);
    const std::vector<Real> want = reference_ratios(weight);
    for (const auto& [block, fuse] :
         {std::pair<Index, bool>{1, true}, {0, true}, {0, false}}) {
      core::BigDotExpOptions options;
      options.taylor_degree_override = kDegree;
      options.block_size = block;
      options.fuse_dots = fuse;
      core::SolverWorkspace workspace;
      core::BigDotExpResult result;
      core::big_dot_exp(x, 1.0, set, options, workspace, result);
      const std::string where = "weight " + std::to_string(weight) +
                                " block " + std::to_string(block) +
                                (fuse ? " fused" : " two-pass");
      ASSERT_TRUE(result.exact_sketch) << where;
      EXPECT_EQ(result.scale_exponent, weight == 400.0 ? 0 : -512) << where;
      ASSERT_TRUE(std::isfinite(result.trace_exp) && result.trace_exp > 0)
          << where;
      for (Index i = 0; i < set.size(); ++i) {
        const Real ratio = result.dots[i] / result.trace_exp;
        EXPECT_NEAR(ratio, want[static_cast<std::size_t>(i)],
                    1e-9 * want[static_cast<std::size_t>(i)])
            << where << " constraint " << i;
      }
    }
  }
}

TEST(TimeBlockKernel, RunsExactlyTheRequestedRepetitions) {
  int calls = 0;
  const double seconds = linalg::time_block_kernel(3, [&] { ++calls; });
  EXPECT_EQ(calls, 3);
  EXPECT_GE(seconds, 0.0);
  EXPECT_THROW(linalg::time_block_kernel(0, [] {}), InvalidArgument);
}

}  // namespace
}  // namespace psdp
