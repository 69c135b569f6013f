// The SIMD dispatch seam and its contracts (see src/simd/simd.hpp):
//   * enumeration/forcing: every compiled backend is listed, ScopedIsa
//     forces and restores, names round-trip;
//   * the forced-scalar backend IS the pre-SIMD kernel set -- bitwise
//     identical to inlined copies of the original loops, whatever the
//     width or thread count (the anchor that lets the vector backends
//     evolve without ever moving the reference results);
//   * every vector backend matches the scalar backend to FMA rounding on
//     all kernels, across widths (including non-power-of-two) and thread
//     counts;
//   * the float32 sketch-panel mode of big_dot_exp stays within
//     certificate tolerance of the double reference, engages only when
//     every gate holds, and keeps the (1 +- eps) certificates of every
//     solver variant sound on the bench instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/generators.hpp"
#include "core/bigdotexp.hpp"
#include "core/certificates.hpp"
#include "core/optimize.hpp"
#include "linalg/taylor.hpp"
#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "rand/rng.hpp"
#include "simd/simd.hpp"
#include "sparse/csr.hpp"
#include "test_helpers.hpp"

namespace psdp {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// RAII guard: restore the global thread count on scope exit.
struct ThreadGuard {
  int before = par::num_threads();
  ~ThreadGuard() { par::set_num_threads(before); }
};

/// Random rows x cols pattern, ~1.5 entries per row at random columns.
sparse::Csr random_sparse(Index rows, Index cols, std::uint64_t seed) {
  rand::Rng rng(seed);
  std::vector<sparse::Triplet> triplets;
  for (Index i = 0; i < rows; ++i) {
    triplets.push_back(
        {i, static_cast<Index>(rng.uniform_index(cols)), rng.normal()});
    if (i % 2 == 0) {
      triplets.push_back(
          {i, static_cast<Index>(rng.uniform_index(cols)), rng.normal()});
    }
  }
  return sparse::Csr::from_triplets(rows, cols, std::move(triplets));
}

Matrix random_panel(Index rows, Index b, std::uint64_t seed) {
  rand::Rng rng(seed);
  Matrix x(rows, b);
  for (Index i = 0; i < rows; ++i) {
    for (Index t = 0; t < b; ++t) x(i, t) = rng.normal();
  }
  return x;
}

/// Inlined copy of the pre-SIMD apply_block inner loop (row-major SpMM):
/// zero the output row, then one separate multiply+add per entry in entry
/// order. The forced-scalar backend must reproduce this bitwise.
Matrix reference_spmm(const sparse::Csr& a, const Matrix& x) {
  const Index b = x.cols();
  Matrix y(a.rows(), b);
  for (Index i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (Index t = 0; t < b; ++t) y(i, t) = 0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const Real v = vals[k];
      for (Index t = 0; t < b; ++t) y(i, t) += v * x(cols[k], t);
    }
  }
  return y;
}

/// Inlined copy of the pre-SIMD transpose-index gather: one serial
/// ascending-row reduction per output row (the CSC index stores each
/// column's entries in ascending row order, so walking the CSR rows in
/// order per output column reproduces the same accumulation chain).
Matrix reference_gather(const sparse::Csr& a, const Matrix& x) {
  const Index b = x.cols();
  Matrix y(a.cols(), b);
  std::vector<Real> acc(static_cast<std::size_t>(b));
  for (Index j = 0; j < a.cols(); ++j) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (Index i = 0; i < a.rows(); ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] != j) continue;
        const Real v = vals[k];
        for (Index t = 0; t < b; ++t) acc[static_cast<std::size_t>(t)] += v * x(i, t);
      }
    }
    for (Index t = 0; t < b; ++t) y(j, t) = acc[static_cast<std::size_t>(t)];
  }
  return y;
}

const Index kWidths[] = {1, 2, 3, 4, 5, 8, 16, 31, 32};

TEST(SimdDispatch, EnumeratesBackendsAndRoundTripsNames) {
  const std::vector<simd::Isa> compiled = simd::compiled_isas();
  ASSERT_FALSE(compiled.empty());
  // The scalar reference backend is always compiled in; the list is in
  // dispatch preference order (best first), so scalar closes it.
  EXPECT_EQ(compiled.back(), simd::Isa::kScalar);
  EXPECT_TRUE(simd::isa_available(simd::Isa::kScalar));
  bool active_listed = false;
  for (const simd::Isa isa : compiled) {
    simd::Isa parsed = simd::Isa::kScalar;
    ASSERT_TRUE(simd::isa_from_name(simd::isa_name(isa), parsed));
    EXPECT_EQ(parsed, isa);
    active_listed = active_listed || isa == simd::active_isa();
  }
  EXPECT_TRUE(active_listed);
  simd::Isa junk = simd::Isa::kScalar;
  EXPECT_FALSE(simd::isa_from_name("mmx", junk));
}

TEST(SimdDispatch, ScopedIsaForcesAndRestores) {
  const simd::Isa before = simd::active_isa();
  for (const simd::Isa isa : simd::compiled_isas()) {
    simd::ScopedIsa forced(isa);
    EXPECT_EQ(simd::active_isa(), isa);
    const simd::KernelTable& table = simd::active_kernels();
    EXPECT_NE(table.spmm_rows, nullptr);
    EXPECT_NE(table.gather_panel, nullptr);
    EXPECT_NE(table.sum_sq_f, nullptr);
  }
  EXPECT_EQ(simd::active_isa(), before);
}

TEST(SimdKernels, ForcedScalarMatchesReferenceLoopsBitwise) {
  ThreadGuard guard;
  simd::ScopedIsa forced(simd::Isa::kScalar);
  sparse::Csr a = random_sparse(512, 24, 17);
  a.build_transpose_index();
  for (const Index b : kWidths) {
    const Matrix x_cols = random_panel(a.cols(), b, 100 + b);
    const Matrix x_rows = random_panel(a.rows(), b, 200 + b);
    for (const int threads : {1, 3}) {
      par::set_num_threads(threads);
      Matrix y;
      a.apply_block(x_cols, y);
      const Matrix spmm_ref = reference_spmm(a, x_cols);
      for (Index i = 0; i < y.rows(); ++i) {
        for (Index t = 0; t < b; ++t) EXPECT_EQ(y(i, t), spmm_ref(i, t));
      }
      Matrix yt;
      a.apply_transpose_block_indexed(x_rows, yt);
      const Matrix gather_ref = reference_gather(a, x_rows);
      for (Index j = 0; j < yt.rows(); ++j) {
        for (Index t = 0; t < b; ++t) EXPECT_EQ(yt(j, t), gather_ref(j, t));
      }
    }
  }
}

TEST(SimdKernels, VectorBackendsMatchScalarWithinRounding) {
  ThreadGuard guard;
  sparse::Csr a = random_sparse(512, 24, 29);
  a.build_transpose_index();
  // FMA-contraction rounding only: each output element is a short
  // reduction over O(1) terms, so the absolute gap stays near machine eps.
  const Real tol = 1e-9;
  for (const simd::Isa isa : simd::compiled_isas()) {
    simd::ScopedIsa forced(isa);
    for (const Index b : kWidths) {
      const Matrix x_cols = random_panel(a.cols(), b, 300 + b);
      const Matrix x_rows = random_panel(a.rows(), b, 400 + b);
      Matrix y, yt, yseg, yplan;
      std::vector<Real> partial;
      a.apply_block(x_cols, y);
      a.apply_transpose_block_indexed(x_rows, yt);
      if (a.has_segment_index()) a.apply_transpose_block_segmented(x_rows, yseg);
      a.apply_transpose_block(x_rows, yplan, partial);
      Matrix y_ref, yt_ref;
      {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        a.apply_block(x_cols, y_ref);
        a.apply_transpose_block_indexed(x_rows, yt_ref);
      }
      EXPECT_MATRIX_NEAR(y, y_ref, tol);
      EXPECT_MATRIX_NEAR(yt, yt_ref, tol);
      if (a.has_segment_index()) {
        // Within one ISA, the segmented gather stays bitwise identical to
        // the plain gather -- same per-element reduction chain.
        for (Index j = 0; j < yt.rows(); ++j) {
          for (Index t = 0; t < b; ++t) EXPECT_EQ(yseg(j, t), yt(j, t));
        }
      }
      EXPECT_MATRIX_NEAR(yplan, yt, 0.0);  // plan picks among the gathers
    }
    // The fused Taylor sweep through the same dispatch seam.
    for (const int threads : {1, 3}) {
      par::set_num_threads(threads);
      const sparse::Csr sq = random_sparse(96, 96, 31);
      const linalg::BlockOp sq_op = [&sq](const Matrix& x, Matrix& y) {
        sq.apply_block(x, y);
      };
      const Matrix x = random_panel(96, 8, 41);
      Matrix y, y_ref;
      linalg::TaylorBlockWorkspace ws, ws_ref;
      linalg::apply_exp_taylor_block(sq_op, 12, x, y, ws);
      {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        linalg::apply_exp_taylor_block(sq_op, 12, x, y_ref, ws_ref);
      }
      EXPECT_MATRIX_NEAR(y, y_ref, 1e-9);
    }
  }
}

TEST(SimdKernels, FloatSumSqIsBitwiseIdenticalAcrossIsas) {
  rand::Rng rng(53);
  std::vector<float> x(1031);
  for (float& v : x) v = static_cast<float>(rng.normal());
  double ref = 0;
  bool have_ref = false;
  for (const simd::Isa isa : simd::compiled_isas()) {
    simd::ScopedIsa forced(isa);
    const double s = simd::active_kernels().sum_sq_f(
        x.data(), static_cast<Index>(x.size()));
    if (!have_ref) {
      ref = s;
      have_ref = true;
    }
    // All backends share the one compensated double reduction
    // (simd/detail.hpp), so this is exact equality, not a tolerance.
    EXPECT_EQ(s, ref);
  }
}

// ----------------------------------------------------------------------
// Float32 sketch-panel mode of big_dot_exp.
// ----------------------------------------------------------------------

struct BigDotFixture {
  core::FactorizedPackingInstance inst;
  sparse::Csr phi;
  linalg::SymmetricOp op;
  linalg::BlockOp block_op;
  std::vector<float> values_f, t_values_f;
  linalg::BlockOpF block_op_f;

  explicit BigDotFixture(Index m = 256, Index n = 24) {
    apps::FactorizedOptions gen;
    gen.n = n;
    gen.m = m;
    gen.nnz_per_column = 6;
    inst = apps::random_factorized(gen);
    phi = inst.set().weighted_sum(
        Vector(inst.size(), 0.05 / static_cast<Real>(inst.size())));
    op = [this](const Vector& x, Vector& y) { phi.apply(x, y); };
    block_op = [this](const Matrix& x, Matrix& y) { phi.apply_block(x, y); };
    phi.fill_float_values(values_f, t_values_f);
    block_op_f = [this](const linalg::MatrixF& x, linalg::MatrixF& y) {
      phi.apply_block_f(x, y, values_f);
    };
  }

  core::BigDotExpResult run(const core::BigDotExpOptions& options,
                            bool with_float_op = true) {
    core::SolverWorkspace workspace;
    core::BigDotExpResult result;
    core::big_dot_exp(op, block_op, phi.rows(), 2.0, inst.set(), options,
                      workspace, result,
                      with_float_op ? &block_op_f : nullptr);
    return result;
  }
};

core::BigDotExpOptions blocked_options(Real eps = 0.25) {
  core::BigDotExpOptions options;
  options.eps = eps;
  options.sketch_rows_override = 48;
  options.taylor_degree_override = 12;
  options.block_size = 8;
  options.fuse_dots = true;
  return options;
}

TEST(SimdBigDot, Float32PanelsStayWithinCertificateTolerance) {
  BigDotFixture fx;
  core::BigDotExpOptions options = blocked_options();
  const core::BigDotExpResult ref = fx.run(options);
  ASSERT_EQ(ref.panel_precision, core::PanelPrecision::kDouble);
  options.panel_precision = core::PanelPrecision::kFloat32;
  const core::BigDotExpResult f32 = fx.run(options);
  EXPECT_EQ(f32.panel_precision, core::PanelPrecision::kFloat32);
  EXPECT_TRUE(f32.fused);
  ASSERT_EQ(f32.dots.size(), ref.dots.size());
  // Same sketch, same Taylor recurrence -- the only gap is float32 panel
  // rounding, compensated back in double at every reduction. 5e-3 is the
  // certificate-level bar (the bench gates the same number); the typical
  // gap is ~1e-6.
  for (Index i = 0; i < ref.dots.size(); ++i) {
    EXPECT_NEAR(f32.dots[i] / ref.dots[i], 1.0, 5e-3) << "dot " << i;
  }
  EXPECT_NEAR(f32.trace_exp / ref.trace_exp, 1.0, 5e-3);
}

TEST(SimdBigDot, Float32FallsBackWhenAGateFails) {
  BigDotFixture fx;
  // Gate 1: eps tighter than float_panel_min_eps -> double, bitwise equal
  // to the plain double fused run.
  core::BigDotExpOptions tight = blocked_options(/*eps=*/1e-4);
  tight.panel_precision = core::PanelPrecision::kFloat32;
  const core::BigDotExpResult tight_run = fx.run(tight);
  EXPECT_EQ(tight_run.panel_precision, core::PanelPrecision::kDouble);
  core::BigDotExpOptions tight_ref = blocked_options(/*eps=*/1e-4);
  const core::BigDotExpResult tight_ref_run = fx.run(tight_ref);
  ASSERT_EQ(tight_run.dots.size(), tight_ref_run.dots.size());
  for (Index i = 0; i < tight_run.dots.size(); ++i) {
    EXPECT_EQ(tight_run.dots[i], tight_ref_run.dots[i]);
  }
  // Gate 2: no float block operator.
  core::BigDotExpOptions no_op = blocked_options();
  no_op.panel_precision = core::PanelPrecision::kFloat32;
  EXPECT_EQ(fx.run(no_op, /*with_float_op=*/false).panel_precision,
            core::PanelPrecision::kDouble);
  // Gate 3: the single-vector reference path.
  core::BigDotExpOptions single = blocked_options();
  single.block_size = 1;
  single.panel_precision = core::PanelPrecision::kFloat32;
  EXPECT_EQ(fx.run(single).panel_precision, core::PanelPrecision::kDouble);
  // Gate 4: the unfused two-pass layout.
  core::BigDotExpOptions unfused = blocked_options();
  unfused.fuse_dots = false;
  unfused.panel_precision = core::PanelPrecision::kFloat32;
  EXPECT_EQ(fx.run(unfused).panel_precision, core::PanelPrecision::kDouble);
}

// Precision changes constants, not the metered model: a float32 round
// charges exactly the work of the same round in double (the trace
// reduction once per round, not once more per panel).
TEST(SimdBigDot, Float32ChargesTheDoubleWork) {
  BigDotFixture fx;
  core::BigDotExpOptions options = blocked_options();
  options.sketch_rows_override = 64;
  const auto metered_work = [&](core::PanelPrecision precision) {
    options.panel_precision = precision;
    par::CostMeter::reset();
    const core::BigDotExpResult result = fx.run(options);
    EXPECT_EQ(result.panel_precision, precision);
    return par::CostMeter::snapshot().work;
  };
  const std::uint64_t double_work = metered_work(core::PanelPrecision::kDouble);
  EXPECT_GT(double_work, 0u);
  EXPECT_EQ(metered_work(core::PanelPrecision::kFloat32), double_work);
}

TEST(SimdSolvers, Float32ModeKeepsEverySolverVariantCertified) {
  apps::FactorizedOptions gen;
  gen.n = 12;
  gen.m = 24;
  gen.nnz_per_column = 4;
  gen.seed = 23;
  const core::FactorizedPackingInstance inst = apps::random_factorized(gen);
  for (const core::ProbeSolver solver :
       {core::ProbeSolver::kDecision, core::ProbeSolver::kPhased,
        core::ProbeSolver::kBucketed}) {
    core::OptimizeOptions options;
    options.eps = 0.2;
    options.decision_eps = 0.15;  // keep probes cheap; bracket stays correct
    options.dot_block_size = 8;   // float32 panels need a blocked width
    options.probe_solver = solver;
    const core::PackingOptimum ref = core::approx_packing(inst, options);
    options.decision.dot_options.panel_precision =
        core::PanelPrecision::kFloat32;
    const core::PackingOptimum f32 = core::approx_packing(inst, options);
    // The float32 trajectory may differ, but its certificates must hold:
    // a dual-feasible witness and a bracket consistent with the double
    // run's (both contain OPT, so they intersect).
    EXPECT_TRUE(core::check_dual(inst, f32.best_x).feasible)
        << "solver variant " << static_cast<int>(solver);
    EXPECT_LE(f32.lower, f32.upper * (1 + 1e-9));
    EXPECT_LE(f32.lower, ref.upper * (1 + 1e-9));
    EXPECT_LE(ref.lower, f32.upper * (1 + 1e-9));
  }
}

}  // namespace
}  // namespace psdp
