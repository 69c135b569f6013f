// K1 -- google-benchmark microbenchmarks of the substrate kernels the
// solver's cost model is built on: GEMM, Jacobi eigendecomposition, matrix
// exponential, sparse matvec, JL sketching, and truncated-Taylor
// application. These are the constants behind Corollary 1.2's asymptotics.
//
// Before handing control to google-benchmark, main() runs three sweeps and
// writes the measurements to BENCH_kernels.json, so the perf trajectory of
// the kernel layer is machine-readable across PRs:
//   * the SpMV-vs-SpMM block-size sweep over b in {1, 4, 8, 16, 32} on the
//     default exp-Taylor instance (r = 64 sketch rows);
//   * the transpose-kernel sweep -- transpose-index gather vs segmented
//     gather vs the apply_transpose_block dispatch on a tall sparse factor
//     (rows >= 64x cols), checked against the serial row scatter of an
//     unindexed copy; the acceptance bar is the dispatch within 10% of the
//     faster gather at every width;
//   * the SIMD dispatch sweep -- the same gather and SpMM kernels timed
//     under forced-scalar dispatch vs the active ISA (simd::ScopedIsa); the
//     acceptance bar is gather >= 2x over scalar at some width b >= 8
//     whenever a vector backend is active;
//   * the steady-state-allocation guard -- solver iterations on a shared
//     SolverWorkspace must perform zero heap allocations after warmup
//     (counted by the replaced global operator new below).
// The block sweep also runs the fused big_dot_exp path with float32 sketch
// panels (PanelPrecision::kFloat32) and checks it against the double
// reference at the certificate-level 5e-3 bar (vs 1e-8 for double layouts).
// `--sweep-only` exits after the sweeps; `--smoke` shrinks the instances
// for CI hot-path regression checks. `--widths=1,4,8,32` overrides the
// transpose sweep's panel widths (so the docs' regeneration commands are
// reproducible on machines with different cache shapes).
#include <benchmark/benchmark.h>

#include "alloc_counter.hpp"
#include "bench_common.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>

#include "apps/generators.hpp"
#include "core/bigdotexp.hpp"
#include "linalg/blockop.hpp"
#include "linalg/expm.hpp"
#include "linalg/pivoted_cholesky.hpp"
#include "linalg/qr.hpp"
#include "linalg/taylor.hpp"
#include "par/parallel.hpp"
#include "rand/jl.hpp"
#include "rand/rng.hpp"
#include "simd/simd.hpp"
#include "sparse/csr.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using namespace psdp;

linalg::Matrix random_sym(Index m, std::uint64_t seed) {
  rand::Rng rng(seed);
  linalg::Matrix a(m, m);
  for (Index i = 0; i < m; ++i) {
    for (Index j = i; j < m; ++j) {
      const Real v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

linalg::Matrix random_psd(Index m, std::uint64_t seed) {
  linalg::Matrix g = random_sym(m, seed);
  linalg::Matrix a = linalg::gemm(g, g.transposed());
  a.scale(Real{1} / static_cast<Real>(m));
  a.symmetrize();
  return a;
}

void BM_Gemm(benchmark::State& state) {
  const Index m = state.range(0);
  const linalg::Matrix a = random_sym(m, 1);
  const linalg::Matrix b = random_sym(m, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::gemm(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * m * m);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_JacobiEig(benchmark::State& state) {
  const Index m = state.range(0);
  const linalg::Matrix a = random_sym(m, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::jacobi_eig(a));
  }
}
BENCHMARK(BM_JacobiEig)->Arg(16)->Arg(32)->Arg(64);

void BM_ExpmEig(benchmark::State& state) {
  const Index m = state.range(0);
  const linalg::Matrix a = random_psd(m, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::expm_eig(a));
  }
}
BENCHMARK(BM_ExpmEig)->Arg(16)->Arg(32)->Arg(64);

void BM_ExpmPade(benchmark::State& state) {
  const Index m = state.range(0);
  const linalg::Matrix a = random_psd(m, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::expm_pade(a));
  }
}
BENCHMARK(BM_ExpmPade)->Arg(16)->Arg(32)->Arg(64);

void BM_SparseMatvec(benchmark::State& state) {
  const Index m = state.range(0);
  // Tridiagonal Laplacian: 3 nnz per row.
  std::vector<sparse::Triplet> triplets;
  for (Index i = 0; i < m; ++i) {
    triplets.push_back({i, i, 2.0});
    if (i > 0) triplets.push_back({i, i - 1, -1.0});
    if (i + 1 < m) triplets.push_back({i, i + 1, -1.0});
  }
  const sparse::Csr a = sparse::Csr::from_triplets(m, m, std::move(triplets));
  linalg::Vector x(m, 1.0), y(m);
  for (auto _ : state) {
    a.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SparseMatvec)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_JlSketchApply(benchmark::State& state) {
  const Index m = state.range(0);
  const Index rows = 128;
  const rand::GaussianSketch pi(rows, m, 7);
  std::vector<Real> x(static_cast<std::size_t>(m), 1.0);
  std::vector<Real> y(static_cast<std::size_t>(rows));
  for (auto _ : state) {
    pi.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * m);
}
BENCHMARK(BM_JlSketchApply)->Arg(1 << 10)->Arg(1 << 14);

void BM_SparseMatmulPanel(benchmark::State& state) {
  const Index m = 1 << 16;
  const Index b = state.range(0);
  std::vector<sparse::Triplet> triplets;
  for (Index i = 0; i < m; ++i) {
    triplets.push_back({i, i, 2.0});
    if (i > 0) triplets.push_back({i, i - 1, -1.0});
    if (i + 1 < m) triplets.push_back({i, i + 1, -1.0});
  }
  const sparse::Csr a = sparse::Csr::from_triplets(m, m, std::move(triplets));
  const linalg::Matrix x(m, b, 1.0);
  linalg::Matrix y;
  for (auto _ : state) {
    a.apply_block(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * b);
}
BENCHMARK(BM_SparseMatmulPanel)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_TaylorApply(benchmark::State& state) {
  const Index m = 1 << 14;
  const Index degree = state.range(0);
  std::vector<sparse::Triplet> triplets;
  for (Index i = 0; i < m; ++i) {
    triplets.push_back({i, i, 0.5});
    if (i + 1 < m) triplets.push_back({i, i + 1, 0.1});
    if (i > 0) triplets.push_back({i, i - 1, 0.1});
  }
  const sparse::Csr b = sparse::Csr::from_triplets(m, m, std::move(triplets));
  const linalg::SymmetricOp op = [&b](const linalg::Vector& x,
                                      linalg::Vector& y) { b.apply(x, y); };
  linalg::Vector x(m, 1.0), y(m);
  for (auto _ : state) {
    linalg::apply_exp_taylor(op, degree, x, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_TaylorApply)->Arg(8)->Arg(32)->Arg(128);

void BM_TaylorApplyBlock(benchmark::State& state) {
  const Index m = 1 << 14;
  const Index b = state.range(0);
  const Index degree = 32;
  std::vector<sparse::Triplet> triplets;
  for (Index i = 0; i < m; ++i) {
    triplets.push_back({i, i, 0.5});
    if (i + 1 < m) triplets.push_back({i, i + 1, 0.1});
    if (i > 0) triplets.push_back({i, i - 1, 0.1});
  }
  const sparse::Csr bmat = sparse::Csr::from_triplets(m, m, std::move(triplets));
  const linalg::BlockOp op = [&bmat](const linalg::Matrix& x,
                                     linalg::Matrix& y) {
    bmat.apply_block(x, y);
  };
  const linalg::Matrix x(m, b, 1.0);
  linalg::Matrix y;
  linalg::TaylorBlockWorkspace workspace;
  for (auto _ : state) {
    linalg::apply_exp_taylor_block(op, degree, x, y, workspace);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * b);
}
BENCHMARK(BM_TaylorApplyBlock)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_BigDotExp(benchmark::State& state) {
  const Index m = state.range(0);
  apps::FactorizedOptions gen;
  gen.n = m / 8;
  gen.m = m;
  gen.nnz_per_column = 8;
  const core::FactorizedPackingInstance inst = apps::random_factorized(gen);
  const sparse::Csr phi = inst.set().weighted_sum(
      linalg::Vector(inst.size(), 0.02 / static_cast<Real>(inst.size())));
  core::BigDotExpOptions options;
  options.eps = 0.25;
  options.sketch_rows_override = 64;
  options.taylor_degree_override = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::big_dot_exp(phi, 2.0, inst.set(), options));
  }
}
BENCHMARK(BM_BigDotExp)->Arg(256)->Arg(1024);

void BM_DecisionIteration(benchmark::State& state) {
  // One dense solver iteration == one eig + one expm + n Frobenius dots.
  const Index m = 32;
  const Index n = state.range(0);
  apps::EllipseOptions gen;
  gen.n = n;
  gen.m = m;
  const core::PackingInstance inst = apps::random_ellipses(gen);
  linalg::Matrix psi(m, m);
  for (Index i = 0; i < n; ++i) psi.add_scaled(inst[i], 0.01);
  for (auto _ : state) {
    const auto eig = linalg::jacobi_eig(psi);
    const linalg::Matrix w = linalg::expm_from_eig(eig);
    Real sink = 0;
    for (Index i = 0; i < n; ++i) {
      sink += linalg::frobenius_dot(inst[i], w);
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_DecisionIteration)->Arg(64)->Arg(256);

void BM_HouseholderQr(benchmark::State& state) {
  const Index m = state.range(0);
  const linalg::Matrix a = random_sym(m, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::qr(a));
  }
}
BENCHMARK(BM_HouseholderQr)->Arg(32)->Arg(64)->Arg(128);

void BM_PivotedCholeskyFullRank(benchmark::State& state) {
  const Index m = state.range(0);
  const linalg::Matrix a = random_psd(m, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::pivoted_cholesky(a));
  }
}
BENCHMARK(BM_PivotedCholeskyFullRank)->Arg(32)->Arg(64)->Arg(128);

void BM_PivotedCholeskyLowRank(benchmark::State& state) {
  // Rank-4 PSD matrix of growing dimension: the factorization should scale
  // as O(m r^2), i.e. near-linearly in m -- the reason the preprocessing
  // step is cheap for the low-rank constraints the applications produce.
  const Index m = state.range(0);
  const Index r = 4;
  rand::Rng rng(17);
  linalg::Matrix g(m, r);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < r; ++j) g(i, j) = rng.normal();
  }
  linalg::Matrix a = linalg::gemm(g, g.transposed());
  a.symmetrize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::pivoted_cholesky(a));
  }
}
BENCHMARK(BM_PivotedCholeskyLowRank)->Arg(64)->Arg(256)->Arg(1024);

void BM_CompressFactor(benchmark::State& state) {
  // Rank-inflated factor (k = 4m columns) compressed back to m.
  const Index m = state.range(0);
  rand::Rng rng(19);
  linalg::Matrix g(m, 4 * m);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < 4 * m; ++j) g(i, j) = rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::compress_factor(g));
  }
}
BENCHMARK(BM_CompressFactor)->Arg(16)->Arg(32)->Arg(64);

// ------------------------------------------------------------------------
// SpMV-vs-SpMM block-size sweep (BENCH_kernels.json)
// ------------------------------------------------------------------------

struct SweepRow {
  std::string kernel;
  Index block = 0;
  double seconds = 0;
  double speedup_vs_single = 0;
  double max_rel_dev = 0;  ///< big_dot_exp only: deviation from block = 1
};

// Timing goes through linalg::time_block_kernel: best of a few reps, the
// noise-free cost a kernel comparison wants.

struct BlockSweepResult {
  std::vector<SweepRow> rows;
  /// What the float32-requested fused rows actually ran as (kDouble when a
  /// gate refused the request -- should not happen on the bench instance).
  core::PanelPrecision float_mode_ran = core::PanelPrecision::kDouble;
  /// Worst deviation of the float32 fused rows from the double reference;
  /// gated at 5e-3 (certificate tolerance) instead of the 1e-8 bar the
  /// double layouts must meet.
  double worst_float_dev = 0;
};

/// The default bench instance of the acceptance bar: an m-dimensional sparse
/// Phi pushed through the degree-k exp-Taylor recurrence against r >= 32
/// sketch vectors, single-vector vs. panels of width b.
BlockSweepResult run_block_sweep(bool smoke) {
  const Index m = smoke ? (1 << 10) : (1 << 14);
  const Index r = 64;
  const Index degree = 16;
  const int reps = smoke ? 2 : 3;

  std::vector<sparse::Triplet> triplets;
  rand::Rng rng(123);
  for (Index i = 0; i < m; ++i) {
    triplets.push_back({i, i, 0.5});
    if (i + 1 < m) {
      triplets.push_back({i, i + 1, 0.1});
      triplets.push_back({i + 1, i, 0.1});
    }
    // A few long-range couplings so the access pattern is not purely banded.
    const Index j = rng.uniform_index(m);
    if (j != i) {
      triplets.push_back({i, j, 0.01});
      triplets.push_back({j, i, 0.01});
    }
  }
  const sparse::Csr phi = sparse::Csr::from_triplets(m, m, std::move(triplets));
  const linalg::SymmetricOp op = [&phi](const linalg::Vector& x,
                                        linalg::Vector& y) { phi.apply(x, y); };
  const linalg::BlockOp block_op = [&phi](const linalg::Matrix& x,
                                          linalg::Matrix& y) {
    phi.apply_block(x, y);
  };
  const rand::GaussianSketch sketch =
      rand::GaussianSketch::deferred(r, m, 2024);

  BlockSweepResult out;
  std::vector<SweepRow>& rows = out.rows;
  const Index blocks[] = {1, 4, 8, 16, 32};

  // Raw SpMM: one pass of Phi against an m x b panel vs b single SpMVs.
  {
    const linalg::Matrix x(m, 32, 1.0);
    linalg::Matrix y;
    linalg::Vector xv(m, 1.0), yv(m);
    double single = 0;
    for (const Index b : blocks) {
      SweepRow row;
      row.kernel = "spmm";
      row.block = b;
      if (b == 1) {
        row.seconds = linalg::time_block_kernel(reps, [&] {
          for (Index t = 0; t < 32; ++t) phi.apply(xv, yv);
        });
        single = row.seconds;
      } else {
        const linalg::Matrix panel(m, b, 1.0);
        row.seconds = linalg::time_block_kernel(reps, [&] {
          for (Index t = 0; t < 32 / b; ++t) phi.apply_block(panel, y);
        });
      }
      row.speedup_vs_single = single / row.seconds;
      rows.push_back(row);
    }
  }

  // Blocked exp-Taylor apply: r sketch rows through the degree-k recurrence.
  double taylor_single = 0;
  for (const Index b : blocks) {
    SweepRow row;
    row.kernel = "exp_taylor";
    row.block = b;
    if (b == 1) {
      row.seconds = linalg::time_block_kernel(reps, [&] {
        par::parallel_for(0, r, [&](Index j) {
          linalg::Vector x(m);
          linalg::Matrix panel;
          sketch.fill_block(j, 1, panel);
          for (Index i = 0; i < m; ++i) x[i] = panel(i, 0);
          linalg::Vector y(m);
          linalg::apply_exp_taylor(op, degree, x, y);
          benchmark::DoNotOptimize(y.data());
        }, /*grain=*/1);
      });
      taylor_single = row.seconds;
    } else {
      row.seconds = linalg::time_block_kernel(reps, [&] {
        linalg::Matrix x_panel, y_panel;
        linalg::TaylorBlockWorkspace workspace;
        for (Index j0 = 0; j0 < r; j0 += b) {
          const Index width = std::min(b, r - j0);
          sketch.fill_block(j0, width, x_panel);
          linalg::apply_exp_taylor_block(block_op, degree, x_panel, y_panel,
                                         workspace);
          benchmark::DoNotOptimize(y_panel.data());
        }
      });
    }
    row.speedup_vs_single = taylor_single / row.seconds;
    rows.push_back(row);
  }

  // End-to-end big_dot_exp on the factorized default instance, checking the
  // blocked results against the block = 1 reference as it sweeps. Two
  // blocked layouts per width: the two-pass S^T materialization
  // ("big_dot_exp") and the fused per-panel accumulation
  // ("big_dot_exp_fused", the default in production -- saves the m x r
  // buffer and one full pass over S).
  apps::FactorizedOptions gen;
  gen.n = smoke ? 32 : 128;
  gen.m = m;
  gen.nnz_per_column = 8;
  const core::FactorizedPackingInstance inst = apps::random_factorized(gen);
  core::BigDotExpOptions options;
  options.eps = 0.25;
  options.sketch_rows_override = r;
  options.taylor_degree_override = degree;
  core::BigDotExpResult reference;
  double bde_single = 0;
  for (const bool fuse : {false, true}) {
    for (const Index b : blocks) {
      if (fuse && b == 1) continue;  // block 1 is the unfused reference path
      core::BigDotExpOptions blocked = options;
      blocked.block_size = b;
      blocked.fuse_dots = fuse;
      core::BigDotExpResult result;
      SweepRow row;
      row.kernel = fuse ? "big_dot_exp_fused" : "big_dot_exp";
      row.block = b;
      row.seconds = linalg::time_block_kernel(reps, [&] {
        result = core::big_dot_exp(phi, 2.0, inst.set(), blocked);
      });
      if (!fuse && b == 1) {
        bde_single = row.seconds;
        reference = result;
      }
      for (Index i = 0; i < result.dots.size(); ++i) {
        row.max_rel_dev = std::max(
            row.max_rel_dev, std::abs(result.dots[i] / reference.dots[i] - 1));
      }
      row.speedup_vs_single = bde_single / row.seconds;
      rows.push_back(row);
    }
  }

  // Mixed-precision fused path: float32 sketch/Taylor panels, compensated
  // double dots (PanelPrecision::kFloat32). Checked against the same
  // block = 1 double reference, but at the certificate-level 5e-3 bar --
  // float panel rounding is real, it just has to stay far inside eps.
  {
    std::vector<float> phi_values_f, phi_t_values_f;
    phi.fill_float_values(phi_values_f, phi_t_values_f);
    const linalg::BlockOpF block_op_f = [&phi, &phi_values_f](
                                            const linalg::MatrixF& x,
                                            linalg::MatrixF& y) {
      phi.apply_block_f(x, y, phi_values_f);
    };
    core::SolverWorkspace workspace;
    for (const Index b : blocks) {
      if (b == 1) continue;  // the fused path needs a panel
      core::BigDotExpOptions blocked = options;
      blocked.block_size = b;
      blocked.fuse_dots = true;
      blocked.panel_precision = core::PanelPrecision::kFloat32;
      core::BigDotExpResult result;
      SweepRow row;
      row.kernel = "big_dot_exp_fused_f32";
      row.block = b;
      row.seconds = linalg::time_block_kernel(reps, [&] {
        core::big_dot_exp(op, block_op, m, 2.0, inst.set(), blocked,
                          workspace, result, &block_op_f);
      });
      out.float_mode_ran = result.panel_precision;
      for (Index i = 0; i < result.dots.size(); ++i) {
        row.max_rel_dev = std::max(
            row.max_rel_dev, std::abs(result.dots[i] / reference.dots[i] - 1));
      }
      out.worst_float_dev = std::max(out.worst_float_dev, row.max_rel_dev);
      row.speedup_vs_single = bde_single / row.seconds;
      rows.push_back(row);
    }
  }
  return out;
}

// ------------------------------------------------------------------------
// Transpose-kernel sweep: transpose-index gather vs segmented-column gather
// vs the apply_transpose_block dispatch on a tall sparse factor (the
// acceptance instance: rows >= 64x cols).
// ------------------------------------------------------------------------

/// Widths swept by default; overridden by --widths=comma,separated,list.
std::vector<Index> default_transpose_widths() { return {1, 4, 8, 16, 32}; }

struct TransposeSweepResult {
  std::vector<SweepRow> rows;
  /// Acceptance bar of the fixed dispatch (full runs enforce it): at every
  /// width, `apply_transpose_block` stays within 10% of the faster of the
  /// two bit-identical gathers (plain / segmented) measured by this sweep.
  bool dispatch_tracks_best = true;
};

/// The acceptance instance shared by the transpose and SIMD sweeps: a tall
/// sparse factor (~2 nnz per row at random columns) of aspect >= 256x.
sparse::Csr make_tall_factor(Index rows, Index cols) {
  rand::Rng rng(321);
  std::vector<sparse::Triplet> triplets;
  for (Index i = 0; i < rows; ++i) {
    triplets.push_back({i, rng.uniform_index(cols), rng.normal()});
    if (i % 2 == 0) triplets.push_back({i, rng.uniform_index(cols), rng.normal()});
  }
  return sparse::Csr::from_triplets(rows, cols, std::move(triplets));
}

TransposeSweepResult run_transpose_sweep(bool smoke,
                                         const std::vector<Index>& widths) {
  const Index rows = smoke ? (1 << 12) : (1 << 16);
  const Index cols = smoke ? 16 : 64;  // 256x / 1024x aspect: firmly tall
  const int reps = smoke ? 3 : 5;
  const sparse::Csr unindexed = make_tall_factor(rows, cols);
  sparse::Csr indexed = unindexed;
  indexed.build_transpose_index();  // default grid, as FactorizedPsd builds
  TransposeSweepResult result;

  for (const Index b : widths) {
    linalg::Matrix x(rows, b);
    rand::Rng fill(7);
    for (Index i = 0; i < rows; ++i) {
      for (Index t = 0; t < b; ++t) x(i, t) = fill.normal();
    }
    linalg::Matrix ys, yg, yseg, ydispatch;
    // The reference: an unindexed copy's serial row scatter.
    unindexed.apply_transpose_block(x, ys);
    // Narrow widths finish in fractions of a millisecond, where run-to-run
    // noise on a shared machine swamps a 5% acceptance bar -- scale the
    // inner repetitions up so every width's sample covers comparable work.
    const Index inner_scale = std::max<Index>(1, 32 / b);
    const int inner =
        static_cast<int>((smoke ? 4 : 8) * inner_scale);
    // For the transpose rows, "speedup_vs_single" is the kernel's speedup
    // over the plain gather at the same width.
    SweepRow gather_row;
    gather_row.kernel = "transpose_indexed";
    gather_row.block = b;
    gather_row.seconds = linalg::time_block_kernel(reps, [&] {
      for (int it = 0; it < inner; ++it) {
        indexed.apply_transpose_block_indexed(x, yg);
      }
    });
    gather_row.speedup_vs_single = 1;
    const auto deviation = [&](const linalg::Matrix& y) {
      Real worst = 0;
      for (Index j = 0; j < cols; ++j) {
        for (Index t = 0; t < b; ++t) {
          const Real ref = ys(j, t);
          const Real dev = std::abs(ref) > 0 ? std::abs(y(j, t) / ref - 1)
                                             : std::abs(y(j, t));
          worst = std::max(worst, dev);
        }
      }
      return worst;
    };
    gather_row.max_rel_dev = deviation(yg);
    SweepRow segmented_row;
    segmented_row.kernel = "transpose_segmented";
    segmented_row.block = b;
    if (indexed.has_segment_index()) {
      segmented_row.seconds = linalg::time_block_kernel(reps, [&] {
        for (int it = 0; it < inner; ++it) {
          indexed.apply_transpose_block_segmented(x, yseg);
        }
      });
      segmented_row.speedup_vs_single =
          gather_row.seconds / segmented_row.seconds;
      segmented_row.max_rel_dev = deviation(yseg);
    }
    // The dispatching entry point, timed as the solvers see it.
    SweepRow dispatch_row;
    dispatch_row.kernel = "transpose_dispatch";
    dispatch_row.block = b;
    dispatch_row.seconds = linalg::time_block_kernel(reps, [&] {
      for (int it = 0; it < inner; ++it) {
        indexed.apply_transpose_block(x, ydispatch);
      }
    });
    dispatch_row.speedup_vs_single = gather_row.seconds / dispatch_row.seconds;
    dispatch_row.max_rel_dev = deviation(ydispatch);
    double best_gather = gather_row.seconds;
    if (indexed.has_segment_index()) {
      best_gather = std::min(best_gather, segmented_row.seconds);
    }
    if (dispatch_row.seconds > 1.10 * best_gather) {
      result.dispatch_tracks_best = false;
    }
    result.rows.push_back(gather_row);
    if (indexed.has_segment_index()) result.rows.push_back(segmented_row);
    result.rows.push_back(dispatch_row);
  }
  return result;
}

// ------------------------------------------------------------------------
// SIMD dispatch sweep: the transpose-index gather and the row-parallel SpMM
// timed twice per width on the tall-factor acceptance instance -- once
// under forced-scalar dispatch (simd::ScopedIsa(kScalar)) and once under
// the active ISA. This is the `simd` section of BENCH_kernels.json and the
// PR's headline acceptance bar: gather >= 2x over scalar at some b >= 8.
// ------------------------------------------------------------------------

struct SimdSweepRow {
  std::string kernel;
  Index block = 0;
  double scalar_seconds = 0;  ///< forced-scalar dispatch
  double active_seconds = 0;  ///< active-ISA dispatch
  double speedup = 0;         ///< scalar / active
};

struct SimdSweepResult {
  std::vector<SimdSweepRow> rows;
  /// >= 2x gather speedup at some b >= 8 (trivially true when the active
  /// ISA is already scalar: there is no vector backend to hold to the bar).
  bool gather_bar_met = true;
};

SimdSweepResult run_simd_sweep(bool smoke, const std::vector<Index>& widths) {
  const Index rows = smoke ? (1 << 12) : (1 << 16);
  const Index cols = smoke ? 16 : 64;
  const int reps = smoke ? 3 : 5;
  sparse::Csr indexed = make_tall_factor(rows, cols);
  // Plain transpose index: the sweep times the gather kernel directly (apply_transpose_block_indexed), so the kernel choice is
  // pinned and only the dispatch seam varies between the two timings.
  indexed.build_transpose_index();

  SimdSweepResult result;
  const bool vector_active = simd::active_isa() != simd::Isa::kScalar;
  result.gather_bar_met = !vector_active;  // scalar-only: bar vacuous
  for (const Index b : widths) {
    linalg::Matrix x(rows, b);
    linalg::Matrix xw(cols, b);
    rand::Rng fill(7);
    for (Index i = 0; i < rows; ++i) {
      for (Index t = 0; t < b; ++t) x(i, t) = fill.normal();
    }
    for (Index j = 0; j < cols; ++j) {
      for (Index t = 0; t < b; ++t) xw(j, t) = fill.normal();
    }
    linalg::Matrix yg, ym;
    const Index inner_scale = std::max<Index>(1, 32 / b);
    const int inner = static_cast<int>((smoke ? 4 : 8) * inner_scale);
    const auto time_pair = [&](const std::function<void()>& body,
                               SimdSweepRow& row) {
      row.active_seconds = linalg::time_block_kernel(reps, body);
      if (vector_active) {
        simd::ScopedIsa forced_scalar(simd::Isa::kScalar);
        row.scalar_seconds = linalg::time_block_kernel(reps, body);
      } else {
        row.scalar_seconds = row.active_seconds;
      }
      row.speedup = row.scalar_seconds / row.active_seconds;
    };
    SimdSweepRow gather_row;
    gather_row.kernel = "transpose_gather";
    gather_row.block = b;
    time_pair(
        [&] {
          for (int it = 0; it < inner; ++it) {
            indexed.apply_transpose_block_indexed(x, yg);
          }
        },
        gather_row);
    if (vector_active && b >= 8 && gather_row.speedup >= 2.0) {
      result.gather_bar_met = true;
    }
    SimdSweepRow spmm_row;
    spmm_row.kernel = "spmm";
    spmm_row.block = b;
    time_pair(
        [&] {
          for (int it = 0; it < inner; ++it) indexed.apply_block(xw, ym);
        },
        spmm_row);
    result.rows.push_back(gather_row);
    result.rows.push_back(spmm_row);
  }
  return result;
}

void write_sweep_json(const BlockSweepResult& block,
                      const TransposeSweepResult& transpose,
                      const SimdSweepResult& simd_sweep,
                      const bench::SteadyStateAllocReport& alloc_report,
                      bool smoke, const std::string& path) {
  const auto write_rows = [](std::ofstream& out,
                             const std::vector<SweepRow>& list) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      const SweepRow& row = list[i];
      out << "    {\"kernel\": \"" << row.kernel
          << "\", \"block\": " << row.block
          << ", \"seconds\": " << row.seconds
          << ", \"speedup_vs_single\": " << row.speedup_vs_single
          << ", \"max_rel_dev\": " << row.max_rel_dev << "}"
          << (i + 1 < list.size() ? "," : "") << "\n";
    }
  };
  std::ofstream out(path);
  out << "{\n  \"bench\": \"kernels\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"isa\": \""
      << simd::isa_name(simd::active_isa()) << "\",\n  \"simd_compiled\": [";
  const std::vector<simd::Isa> compiled = simd::compiled_isas();
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    out << "\"" << simd::isa_name(compiled[i]) << "\""
        << (i + 1 < compiled.size() ? ", " : "");
  }
  out << "],\n  \"panel_precision\": \""
      << core::panel_precision_name(block.float_mode_ran)
      << "\",\n  \"block_sweep\": [\n";
  write_rows(out, block.rows);
  out << "  ],\n  \"transpose_sweep\": [\n";
  write_rows(out, transpose.rows);
  out << "  ],\n  \"simd\": [\n";
  for (std::size_t i = 0; i < simd_sweep.rows.size(); ++i) {
    const SimdSweepRow& row = simd_sweep.rows[i];
    out << "    {\"kernel\": \"" << row.kernel
        << "\", \"block\": " << row.block
        << ", \"scalar_seconds\": " << row.scalar_seconds
        << ", \"active_seconds\": " << row.active_seconds
        << ", \"speedup\": " << row.speedup << "}"
        << (i + 1 < simd_sweep.rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"steady_state_alloc\": {\"warmup_iterations\": "
      << alloc_report.warmup_iterations
      << ", \"measured_iterations\": " << alloc_report.measured_iterations
      << ", \"allocations\": " << alloc_report.allocations << "}\n}\n";
}

struct SweepConfig {
  bool smoke = false;
  std::vector<Index> widths = default_transpose_widths();
};

int run_sweep(const SweepConfig& config) {
  const bool smoke = config.smoke;
  std::cout << "Kernels: isa " << simd::isa_name(simd::active_isa())
            << " (compiled:";
  for (const simd::Isa isa : simd::compiled_isas()) {
    std::cout << " " << simd::isa_name(isa);
  }
  std::cout << "), sketch panels double (reference) + float32 sweep\n";
  const BlockSweepResult block = run_block_sweep(smoke);
  const TransposeSweepResult transpose =
      run_transpose_sweep(smoke, config.widths);
  const SimdSweepResult simd_sweep = run_simd_sweep(smoke, config.widths);

  // Steady-state-allocation guard: factorized plain-loop iterations on a
  // shared SolverWorkspace, counted by this binary's replaced operator new.
  apps::FactorizedOptions alloc_gen;
  alloc_gen.n = smoke ? 16 : 48;
  alloc_gen.m = smoke ? 256 : 1024;
  alloc_gen.nnz_per_column = 6;
  const core::FactorizedPackingInstance alloc_inst =
      apps::random_factorized(alloc_gen);
  const bench::SteadyStateAllocReport alloc_report =
      bench::run_steady_state_allocs(alloc_inst, /*eps=*/0.15, /*warmup=*/3,
                                     /*measured=*/8,
                                     [] { return psdp::bench::alloc_count(); });

  write_sweep_json(block, transpose, simd_sweep, alloc_report, smoke,
                   "BENCH_kernels.json");
  std::cout << "SpMV-vs-SpMM block sweep (r = 64 sketch rows):\n";
  bool taylor_bar_met = false;
  double worst_dev = 0;
  for (const SweepRow& row : block.rows) {
    std::cout << "  " << row.kernel << " b=" << row.block << ": "
              << row.seconds * 1e3 << " ms, " << row.speedup_vs_single
              << "x vs single\n";
    if (row.kernel == "exp_taylor" && row.block >= 8 &&
        row.speedup_vs_single >= 2.0) {
      taylor_bar_met = true;
    }
    // Float32 rows are gated separately at the 5e-3 certificate bar.
    if (row.kernel != "big_dot_exp_fused_f32") {
      worst_dev = std::max(worst_dev, row.max_rel_dev);
    }
  }
  std::cout << "transpose sweep (tall factor: gather vs segmented gather "
               "vs the dispatch):\n";
  double transpose_dev = 0;
  for (const SweepRow& row : transpose.rows) {
    std::cout << "  " << row.kernel << " b=" << row.block << ": "
              << row.seconds * 1e3 << " ms, " << row.speedup_vs_single
              << "x vs gather\n";
    transpose_dev = std::max(transpose_dev, row.max_rel_dev);
  }
  std::cout << "SIMD dispatch sweep (forced-scalar vs "
            << simd::isa_name(simd::active_isa()) << "):\n";
  for (const SimdSweepRow& row : simd_sweep.rows) {
    std::cout << "  " << row.kernel << " b=" << row.block << ": scalar "
              << row.scalar_seconds * 1e3 << " ms, active "
              << row.active_seconds * 1e3 << " ms, " << row.speedup
              << "x\n";
  }
  std::cout << "steady-state allocations after warmup: "
            << alloc_report.allocations << " (over "
            << alloc_report.measured_iterations << " iterations)\n";
  const bool alloc_bar_met = alloc_report.allocations == 0;
  // CI runners must dispatch to a vector backend whenever one was compiled
  // in: a scalar fallback there means broken runtime detection, and the
  // SIMD equivalence coverage would silently test nothing. An explicit
  // PSDP_SIMD env override is intentional and exempt.
  const char* simd_env = std::getenv("PSDP_SIMD");
  const bool env_forced = simd_env != nullptr && *simd_env != '\0' &&
                          std::string(simd_env) != "auto";
  const bool isa_bar_met = !smoke || env_forced ||
                           simd::compiled_isas().size() <= 1 ||
                           simd::active_isa() != simd::Isa::kScalar;
  const bool float_engaged =
      block.float_mode_ran == core::PanelPrecision::kFloat32;
  const bool float_bar_met = float_engaged && block.worst_float_dev < 5e-3;
  std::cout << "[" << (taylor_bar_met ? "PERF OK" : "PERF MISS")
            << "] blocked exp-Taylor >= 2x at some b >= 8; max big_dot_exp "
               "deviation from reference "
            << worst_dev << "\n";
  std::cout << "[" << (transpose.dispatch_tracks_best ? "PERF OK" : "PERF MISS")
            << "] transpose dispatch within 10% of the faster gather at "
               "every width; max deviation from the row scatter "
            << transpose_dev << "\n";
  std::cout << "[" << (simd_sweep.gather_bar_met ? "PERF OK" : "PERF MISS")
            << "] SIMD gather >= 2x over forced-scalar at some width >= 8 "
               "(vacuous under scalar dispatch)\n";
  std::cout << "[" << (float_bar_met ? "PREC OK" : "PREC MISS")
            << "] float32 sketch panels engaged and within 5e-3 of the "
               "double reference; worst deviation "
            << block.worst_float_dev << "\n";
  std::cout << "[" << (isa_bar_met ? "SIMD OK" : "SIMD MISS")
            << "] non-scalar dispatch on a SIMD-enabled build (smoke/CI "
               "check)\n";
  std::cout << "[" << (alloc_bar_met ? "ALLOC OK" : "ALLOC MISS")
            << "] zero steady-state allocations\n";
  std::cout << "wrote BENCH_kernels.json\n";
  // Smoke runs (CI on tiny instances) gate on correctness, the allocation
  // bar, the float32 certificate bar, and the dispatch check; the perf
  // bars are enforced on the full default instances.
  return worst_dev < 1e-8 && transpose_dev < 1e-8 && alloc_bar_met &&
                 float_bar_met && isa_bar_met &&
                 (smoke ||
                  (taylor_bar_met && transpose.dispatch_tracks_best &&
                   simd_sweep.gather_bar_met))
             ? 0
             : 1;
}

/// Parse "1,4,8,32" into widths via the shared util::parse_index_list, so
/// malformed input throws the flag-naming InvalidArgument every other entry
/// point throws instead of escaping as a raw std::stoll exception.
std::vector<Index> parse_widths(const std::string& text) {
  std::vector<Index> widths;
  try {
    widths = util::parse_index_list(text);
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(str("flag --widths: ", e.what()));
  }
  PSDP_CHECK(!widths.empty(), "flag --widths: empty width list");
  for (const Index w : widths) {
    PSDP_CHECK(w >= 1, str("flag --widths: width ", w, " must be >= 1"));
  }
  return widths;
}

}  // namespace

int main(int argc, char** argv) {
  SweepConfig config;
  bool sweep_only = false;
  int sweep_status = 1;
  // The sweep's flags and run throw InvalidArgument on bad input (a width
  // list that fails parse_index_list); report it
  // like the Cli-based binaries do instead of letting it escape to
  // std::terminate.
  try {
    // Consume the sweep's own flags so google-benchmark never sees them;
    // the rest of argv is handed to benchmark::Initialize untouched.
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        config.smoke = true;
        sweep_only = true;
      } else if (arg == "--sweep-only") {
        sweep_only = true;
      } else if (arg.rfind("--widths=", 0) == 0) {
        config.widths = parse_widths(arg.substr(9));
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
    sweep_status = run_sweep(config);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (sweep_only) return sweep_status;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return sweep_status;
}
