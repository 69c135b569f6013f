#include "core/bigdotexp.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/power.hpp"
#include "linalg/taylor.hpp"
#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "rand/jl.hpp"
#include "simd/simd.hpp"

namespace psdp::core {

const char* panel_precision_name(PanelPrecision precision) {
  switch (precision) {
    case PanelPrecision::kDouble:
      return "double";
    case PanelPrecision::kFloat32:
      return "float32";
  }
  return "unknown";
}

namespace {

using linalg::Matrix;

/// Lemma 4.2 is applied to B = Phi/2: the blocked kernels fold the 1/2 into
/// the Taylor recurrence's per-step scale (bitwise identical -- powers of
/// two scale exactly -- and saves the per-call wrapper closure the old
/// half-operator needed); the single-vector reference path below keeps the
/// explicit wrapper.
inline constexpr Real kHalfScale = 0.5;

/// Work-gated grain of a per-constraint sweep against `width` sketch
/// columns: a constraint costs about width x nnz(Q_i) multiply-adds.
Index constraint_grain(const sparse::FactorizedSet& as, Index width) {
  return par::work_grain(as.size(),
                         static_cast<Real>(width * as.total_nnz()));
}

/// Rows of S = Pi * p_hat(Phi/2), stored row-major (r x m). Row j is
/// p_hat(Phi/2)^T pi_j = p_hat(Phi/2) pi_j (Phi symmetric), one truncated-
/// Taylor application per row, all rows in parallel. This is the
/// single-vector reference path (block_size 1), kept verbatim as the
/// correctness baseline for the blocked kernels.
std::vector<Real> sketch_times_exp_half(const linalg::SymmetricOp& phi,
                                        Index dim, Index rows, Index degree,
                                        std::uint64_t seed, bool exact) {
  std::vector<Real> s(static_cast<std::size_t>(rows * dim));
  // Half-scaled operator: Lemma 4.2 is applied to B = Phi/2.
  const linalg::SymmetricOp half = [&phi](const Vector& x, Vector& y) {
    phi(x, y);
    y.scale(0.5);
  };
  std::optional<rand::GaussianSketch> pi;
  if (!exact) pi.emplace(rows, dim, seed);

  par::global_pool();  // warm up outside the loop (lazy init)
  // A row is a degree-long chain of Phi applications, each touching at
  // least the dim entries of its vector.
  par::parallel_for(0, rows, [&](Index j) {
    Vector x(dim);
    if (exact) {
      x[j] = 1;  // identity sketch: row j of p_hat itself
    } else {
      const auto row = pi->row(j);
      for (Index i = 0; i < dim; ++i) x[i] = row[static_cast<std::size_t>(i)];
    }
    Vector y(dim);
    linalg::apply_exp_taylor(half, degree, x, y);
    Real* out = s.data() + j * dim;
    for (Index i = 0; i < dim; ++i) out[i] = y[i];
  }, par::work_grain(rows, static_cast<Real>(rows * degree * dim)));
  return s;
}

/// Fill x_panel with sketch rows [j0, j0 + b): identity columns when the
/// sketch is exact (exactness implies rows == dim, so j0 + t < dim),
/// deferred Gaussian rows otherwise. Reuses x_panel's storage (capacity-
/// preserving reshape). Shared by the two-pass and fused blocked kernels,
/// which must generate bit-identical panels.
void fill_sketch_panel(const std::optional<rand::GaussianSketch>& pi,
                       bool exact, Index dim, Index j0, Index b,
                       Matrix& x_panel) {
  if (exact) {
    x_panel.reshape(dim, b);
    x_panel.fill(0);
    for (Index t = 0; t < b; ++t) x_panel(j0 + t, t) = 1;
  } else {
    pi->fill_block(j0, b, x_panel);
  }
}

/// Blocked path: S^T = p_hat(Phi/2) Pi^T, stored row-major m x r (entry
/// (i, j) = S_{ji}), computed one m x b panel at a time. Each panel of b
/// sketch rows is generated straight into panel storage, pushed through the
/// degree-k recurrence with the workspace's two scratch panels, and
/// scattered into its columns of S^T. The m x r layout makes S[:, row] --
/// the access pattern of the dots accumulation -- a contiguous length-r
/// span.
std::vector<Real> sketch_times_exp_half_blocked(
    const linalg::BlockOp& phi_block, Index dim, Index rows, Index degree,
    std::uint64_t seed, bool exact, Index block, SolverWorkspace& ws) {
  std::vector<Real> st(static_cast<std::size_t>(dim * rows));
  std::optional<rand::GaussianSketch> pi;
  if (!exact) pi.emplace(rand::GaussianSketch::deferred(rows, dim, seed));

  par::global_pool();  // warm up outside the loop (lazy init)
  for (Index j0 = 0; j0 < rows; j0 += block) {
    const Index b = std::min(block, rows - j0);
    fill_sketch_panel(pi, exact, dim, j0, b, ws.x_panel);
    linalg::apply_exp_taylor_block(phi_block, degree, ws.x_panel, ws.y_panel,
                                   ws, kHalfScale);
    par::parallel_for(0, dim, [&](Index i) {
      const Real* src = ws.y_panel.data() + i * b;
      Real* dst = st.data() + i * rows + j0;
      for (Index t = 0; t < b; ++t) dst[t] = src[t];
    });
  }
  return st;
}

/// dots_i = ||S Q_i||_F^2 from the reference r x m layout: entry
/// (row, c, v) of Q_i adds v * S[:, row] (stride dim) to output column c.
void accumulate_dots_reference(const std::vector<Real>& s, Index dim, Index r,
                               const sparse::FactorizedSet& as,
                               Vector& dots) {
  par::parallel_for(0, as.size(), [&](Index i) {
    const sparse::Csr& q = as[i].q();
    const Index k = q.cols();
    std::vector<Real> sq_cols(static_cast<std::size_t>(r * k), 0.0);
    for (Index row = 0; row < q.rows(); ++row) {
      const auto cols = q.row_cols(row);
      const auto vals = q.row_vals(row);
      for (std::size_t e = 0; e < cols.size(); ++e) {
        const Index c = cols[e];
        const Real v = vals[e];
        for (Index j = 0; j < r; ++j) {
          sq_cols[static_cast<std::size_t>(j * k + c)] +=
              v * s[static_cast<std::size_t>(j * dim + row)];
        }
      }
    }
    Real acc = 0;
    for (const Real v : sq_cols) acc += v * v;
    dots[i] = acc;
    par::CostMeter::add_work(
        static_cast<std::uint64_t>(r * (2 * q.nnz() + 2 * k)));
  }, constraint_grain(as, r));
}

/// Fused blocked path (the ROADMAP "one pass over S" item): panels of
/// `block` sketch rows go through the Taylor recurrence and their
/// contribution to every dots_i and to the trace is accumulated as soon as
/// the panel's last Taylor step finishes, while the panel is cache-hot.
/// Per panel and constraint, the k x b block Q_i^T (panel) -- each entry
/// (row, c, v) of Q_i a contiguous length-b AXPY from the panel row into
/// block row c -- has squared entries that are the panel's share of
/// ||S Q_i||_F^2. Nothing m x r is ever
/// materialized, and S is neither written back nor re-read. All scratch --
/// panels, Taylor recurrence, per-constraint accumulators -- lives in the
/// caller-owned workspace, so repeated calls allocate nothing once warm.
/// Returns the trace estimate ||S||_F^2; `dots` must be zero-initialized.
Real sketch_exp_dots_fused(const linalg::BlockOp& phi_block, Index dim,
                           Index rows, Index degree, std::uint64_t seed,
                           bool exact, Index block,
                           const sparse::FactorizedSet& as,
                           SolverWorkspace& ws, Vector& dots) {
  std::optional<rand::GaussianSketch> pi;
  if (!exact) pi.emplace(rand::GaussianSketch::deferred(rows, dim, seed));

  // One k_i x b accumulator per constraint, recycled across panels and
  // across calls (assign() reuses capacity), so the hot parallel_for
  // performs no heap traffic once the workspace has seen this instance.
  if (static_cast<Index>(ws.accumulators.size()) < as.size()) {
    ws.accumulators.resize(static_cast<std::size_t>(as.size()));
  }
  Real trace = 0;
  par::global_pool();  // warm up outside the loop (lazy init)
  for (Index j0 = 0; j0 < rows; j0 += block) {
    const Index b = std::min(block, rows - j0);
    fill_sketch_panel(pi, exact, dim, j0, b, ws.x_panel);
    linalg::apply_exp_taylor_block(phi_block, degree, ws.x_panel, ws.y_panel,
                                   ws, kHalfScale);
    // Tr[exp(Phi)] ~ ||S||_F^2, one panel's rows at a time.
    trace += par::parallel_sum(0, dim * b, [&](Index k) {
      return sq(ws.y_panel.data()[static_cast<std::size_t>(k)]);
    });
    // Per constraint: the k_i x b block Q_i^T (panel), gathered column by
    // column over the factor's transpose index (every factor has one),
    // then the block's squared mass -- the panel's share of ||S Q_i||_F^2.
    // Each output is one chain in ascending row order, so the block is
    // bitwise the serial row scatter's.
    const simd::KernelTable& kt = simd::active_kernels();
    par::parallel_for(0, as.size(), [&](Index i) {
      const sparse::Csr& q = as[i].q();
      const Index k = q.cols();
      std::vector<Real>& acc = ws.accumulators[static_cast<std::size_t>(i)];
      acc.resize(static_cast<std::size_t>(k * b));
      kt.gather_panel(q.transpose_offsets().data(), q.transpose_rows().data(),
                      q.transpose_values().data(), 0, k, b, ws.y_panel.data(),
                      acc.data());
      dots[i] += kt.sum_sq(acc.data(), k * b);
      par::CostMeter::add_work(
          static_cast<std::uint64_t>(b * (2 * q.nnz() + 2 * k)));
    }, constraint_grain(as, b));
    // Critical path of this panel beyond the Taylor sweep (which charges
    // its own depth): the trace reduction and the constraint sweep both
    // finish before the next panel starts, so they stack across the
    // ceil(r/block) sequential panels.
    par::CostMeter::add_depth(par::reduction_depth(dim * b) +
                              par::reduction_depth(as.size()));
  }
  return trace;
}

/// Float32 twin of sketch_exp_dots_fused -- the mixed-precision sketch mode.
/// The sketch panel is generated in double (bit-identical to the double
/// path's panels, same seed stream) and rounded once to float; the Taylor
/// recurrence then runs entirely on float panels through the caller's float
/// block operator, and every reduction that feeds a certificate -- the
/// trace and each panel's dots share -- is a compensated *double* sum over
/// the float data (sum_sq_f), so float error enters only as O(eps_f) panel
/// rounding, inside the margin the JL noise budget already absorbs
/// (docs/noisy_oracle_margin.md). Per-factor float value copies live in the
/// workspace (ensure_float_values), so steady-state rounds stay
/// allocation-free here too.
Real sketch_exp_dots_fused_f(const linalg::BlockOpF& phi_block_f, Index dim,
                             Index rows, Index degree, std::uint64_t seed,
                             bool exact, Index block,
                             const sparse::FactorizedSet& as,
                             SolverWorkspace& ws, Vector& dots) {
  std::optional<rand::GaussianSketch> pi;
  if (!exact) pi.emplace(rand::GaussianSketch::deferred(rows, dim, seed));

  const simd::KernelTable& kt = simd::active_kernels();
  as.ensure_float_values(ws.factor);
  if (static_cast<Index>(ws.accumulators_f.size()) < as.size()) {
    ws.accumulators_f.resize(static_cast<std::size_t>(as.size()));
  }
  Real trace = 0;
  par::global_pool();  // warm up outside the loop (lazy init)
  for (Index j0 = 0; j0 < rows; j0 += block) {
    const Index b = std::min(block, rows - j0);
    fill_sketch_panel(pi, exact, dim, j0, b, ws.x_panel);
    ws.x_panel_f.reshape(dim, b);
    kt.convert_d2f(ws.x_panel.data(), ws.x_panel_f.data(), dim * b);
    linalg::apply_exp_taylor_block_f(phi_block_f, degree, ws.x_panel_f,
                                     ws.y_panel_f, ws.taylor_f,
                                     static_cast<float>(kHalfScale));
    // sum_sq_f is a serial compensated double sum, independent of the
    // thread count.
    trace += kt.sum_sq_f(ws.y_panel_f.data(), dim * b);
    par::parallel_for(0, as.size(), [&](Index i) {
      const sparse::Csr& q = as[i].q();
      const Index k = q.cols();
      const auto& fv =
          ws.factor.float_values[static_cast<std::size_t>(i)];
      std::vector<float>& acc =
          ws.accumulators_f[static_cast<std::size_t>(i)];
      // The double path's gather, over the float CSC values.
      acc.resize(static_cast<std::size_t>(k * b));
      kt.gather_panel_f(q.transpose_offsets().data(),
                        q.transpose_rows().data(), fv.t_values.data(), 0, k,
                        b, ws.y_panel_f.data(), acc.data());
      dots[i] += kt.sum_sq_f(acc.data(), k * b);
      par::CostMeter::add_work(
          static_cast<std::uint64_t>(b * (2 * q.nnz() + 2 * k)));
    }, constraint_grain(as, b));
    // Same model costs as the double path: precision changes constants,
    // not the metered work/depth shape.
    par::CostMeter::add_work(static_cast<std::uint64_t>(2 * dim * b));
    par::CostMeter::add_depth(par::reduction_depth(dim * b) +
                              par::reduction_depth(as.size()));
  }
  return trace;
}

/// dots_i from the m x r transposed layout, tiled over sketch columns so
/// the k x tile accumulator stays cache-resident: for each tile of S^T's
/// columns, entry (row, c, v) of Q_i performs a contiguous length-tile AXPY
/// from S^T[row, tile] into the accumulator row c.
void accumulate_dots_blocked(const std::vector<Real>& st, Index r,
                             const sparse::FactorizedSet& as, Vector& dots) {
  constexpr Index kSketchTile = 256;
  par::parallel_for(0, as.size(), [&](Index i) {
    const sparse::Csr& q = as[i].q();
    const Index k = q.cols();
    const Index tile_width = std::min(kSketchTile, r);
    std::vector<Real> tile(static_cast<std::size_t>(k * tile_width));
    Real acc = 0;
    for (Index j0 = 0; j0 < r; j0 += tile_width) {
      const Index tw = std::min(tile_width, r - j0);
      std::fill(tile.begin(), tile.begin() + k * tw, Real{0});
      for (Index row = 0; row < q.rows(); ++row) {
        const auto cols = q.row_cols(row);
        const auto vals = q.row_vals(row);
        const Real* srow = st.data() + row * r + j0;
        for (std::size_t e = 0; e < cols.size(); ++e) {
          Real* out = tile.data() + cols[e] * tw;
          const Real v = vals[e];
          for (Index t = 0; t < tw; ++t) out[t] += v * srow[t];
        }
      }
      for (Index idx = 0; idx < k * tw; ++idx) acc += sq(tile[idx]);
    }
    dots[i] = acc;
    par::CostMeter::add_work(
        static_cast<std::uint64_t>(r * (2 * q.nnz() + 2 * k)));
  }, constraint_grain(as, r));
}

}  // namespace

void big_dot_exp(const linalg::SymmetricOp& phi,
                 const linalg::BlockOp& phi_block, Index dim, Real kappa,
                 const sparse::FactorizedSet& as,
                 const BigDotExpOptions& options, SolverWorkspace& workspace,
                 BigDotExpResult& result,
                 const linalg::BlockOpF* phi_block_f) {
  PSDP_CHECK(dim >= 1, "big_dot_exp: dimension must be positive");
  PSDP_CHECK(as.dim() == dim, "big_dot_exp: constraint dimension mismatch");
  PSDP_CHECK(kappa >= 0, "big_dot_exp: kappa must be non-negative");
  PSDP_CHECK(options.eps > 0 && options.eps < 1,
             "big_dot_exp: eps must lie in (0,1)");
  PSDP_CHECK(options.block_size >= 0,
             "big_dot_exp: block_size must be non-negative");

  // Error budget: the Taylor truncation contributes up to 2*eps_t relative
  // error to ||p_hat Q||^2 (p_hat and exp commute, both PSD), the sketch
  // contributes +-eps_jl; split the target eps between them.
  const Real eps_taylor = options.eps / 4;
  const Real eps_jl = options.eps / 2;

  // Lemma 4.2 degree for B = Phi/2 (norm kappa/2); Theorem 4.1 uses
  // kappa >= max(1, ||Phi||_2), enforce the max(1, .) here.
  const Real kappa_half = std::max<Real>(1, kappa) / 2;
  result.taylor_degree =
      options.taylor_degree_override > 0
          ? options.taylor_degree_override
          : linalg::taylor_exp_degree(kappa_half, eps_taylor);

  // The identity "sketch" is exact and cheaper whenever the JL formula asks
  // for at least m rows (small instances); an explicit override is honored
  // verbatim so experiments can study sketching at any row count.
  if (options.sketch_rows_override > 0) {
    result.exact_sketch = false;
    result.sketch_rows = options.sketch_rows_override;
  } else {
    const Index jl = rand::jl_rows(dim, eps_jl, options.delta);
    result.exact_sketch = jl >= dim;
    result.sketch_rows = result.exact_sketch ? dim : jl;
  }
  const Index r = result.sketch_rows;

  Index block = options.block_size > 0
                    ? options.block_size
                    : std::min<Index>(kDefaultBlockSize, r);
  block = std::min(block, r);
  result.block_size = block;
  result.fused = false;

  // The float32 gate (see BigDotExpOptions::panel_precision): every leg
  // must hold or the call silently runs the double path -- and records
  // that it did, so callers and benches can tell which precision a result
  // carries.
  const bool float_panels =
      options.panel_precision == PanelPrecision::kFloat32 &&
      phi_block_f != nullptr && static_cast<bool>(*phi_block_f) &&
      block > 1 && options.fuse_dots &&
      options.eps >= options.float_panel_min_eps;
  result.panel_precision =
      float_panels ? PanelPrecision::kFloat32 : PanelPrecision::kDouble;

  result.dots.resize(as.size());
  if (block == 1) {
    // Reference path: r independent Taylor matvec chains, r x m layout.
    const std::vector<Real> s = sketch_times_exp_half(
        phi, dim, r, result.taylor_degree, options.seed, result.exact_sketch);
    // Tr[exp(Phi)] = ||exp(Phi/2)||_F^2 ~ ||S||_F^2.
    result.trace_exp = par::parallel_sum(0, r * dim, [&](Index k) {
      return sq(s[static_cast<std::size_t>(k)]);
    });
    accumulate_dots_reference(s, dim, r, as, result.dots);
    // Critical path of the r concurrent Taylor chains: one chain of k-1
    // matvecs (worker-side depth charges are dropped by the meter; the
    // blocked path's chains charge their own depth from the driver).
    par::CostMeter::add_depth(
        static_cast<std::uint64_t>(result.taylor_degree - 1) *
        (par::reduction_depth(dim) + 1));
  } else if (options.fuse_dots) {
    // Fused blocked path: dots and trace accumulate per panel, right after
    // the panel's Taylor sweep -- no m x r buffer, no second pass over S.
    result.fused = true;
    result.dots.fill(0);
    if (float_panels) {
      result.trace_exp = sketch_exp_dots_fused_f(
          *phi_block_f, dim, r, result.taylor_degree, options.seed,
          result.exact_sketch, block, as, workspace, result.dots);
    } else {
      result.trace_exp = sketch_exp_dots_fused(
          phi_block, dim, r, result.taylor_degree, options.seed,
          result.exact_sketch, block, as, workspace, result.dots);
    }
  } else {
    // Blocked path: panels of `block` sketch rows share each Phi traversal.
    const std::vector<Real> st = sketch_times_exp_half_blocked(
        phi_block, dim, r, result.taylor_degree, options.seed,
        result.exact_sketch, block, workspace);
    result.trace_exp = par::parallel_sum(0, r * dim, [&](Index k) {
      return sq(st[static_cast<std::size_t>(k)]);
    });
    accumulate_dots_blocked(st, r, as, result.dots);
  }

  // Frobenius reduction for the trace; the Phi applications, Taylor panel
  // arithmetic, sketch generation, and dots streaming charge themselves.
  // The fused path has already charged its per-panel reduction depth, so
  // only the two separate final passes of the unfused layouts add depth
  // here.
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * r * dim));
  if (!result.fused) {
    par::CostMeter::add_depth(par::reduction_depth(dim) +
                              par::reduction_depth(as.size()));
  }
}

void big_dot_exp(const linalg::SymmetricOp& phi,
                 const linalg::BlockOp& phi_block, Index dim, Real kappa,
                 const sparse::ShardedFactorizedSet& as,
                 const BigDotExpOptions& options, SolverWorkspace& workspace,
                 BigDotExpResult& result,
                 const linalg::BlockOpF* phi_block_f) {
  big_dot_exp(phi, phi_block, dim, kappa, as.set(), options, workspace,
              result, phi_block_f);
}

BigDotExpResult big_dot_exp(const linalg::SymmetricOp& phi,
                            const linalg::BlockOp& phi_block, Index dim,
                            Real kappa, const sparse::FactorizedSet& as,
                            const BigDotExpOptions& options) {
  SolverWorkspace workspace;
  BigDotExpResult result;
  big_dot_exp(phi, phi_block, dim, kappa, as, options, workspace, result);
  return result;
}

BigDotExpResult big_dot_exp(const linalg::SymmetricOp& phi, Index dim,
                            Real kappa, const sparse::FactorizedSet& as,
                            const BigDotExpOptions& options) {
  // No native panel kernel: auto block size resolves to the reference path
  // (column-by-column blocking would amortize nothing); an explicit
  // block_size > 1 still exercises the blocked code via the adapter.
  BigDotExpOptions resolved = options;
  if (resolved.block_size == 0) resolved.block_size = 1;
  return big_dot_exp(phi, linalg::block_op_from_symmetric(phi, dim), dim,
                     kappa, as, resolved);
}

BigDotExpResult big_dot_exp(const sparse::Csr& phi, Real kappa,
                            const sparse::FactorizedSet& as,
                            const BigDotExpOptions& options) {
  PSDP_CHECK(phi.rows() == phi.cols(), "big_dot_exp: Phi must be square");
  const linalg::SymmetricOp op = [&phi](const Vector& x, Vector& y) {
    phi.apply(x, y);
  };
  const linalg::BlockOp block_op = [&phi](const linalg::Matrix& x,
                                          linalg::Matrix& y) {
    phi.apply_block(x, y);
  };
  Real k = kappa;
  if (k <= 0) {
    k = linalg::lambda_max_upper_bound(op, phi.rows());
  }
  return big_dot_exp(op, block_op, phi.rows(), k, as, options);
}

}  // namespace psdp::core
