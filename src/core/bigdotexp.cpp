#include "core/bigdotexp.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
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

/// A round whose estimates overflow double is rerun on a sketch scaled by
/// 2^-kRescaleStep, then 2^-2 kRescaleStep, ..., at most kMaxRescales
/// times (see BigDotExpResult::scale_exponent). The last scale, 2^-768,
/// keeps every sketch entry a normal double.
inline constexpr int kRescaleStep = 256;
inline constexpr int kMaxRescales = 3;

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
/// correctness baseline for the blocked kernels. Every sketch entry is
/// multiplied by `scale`, a power of two.
std::vector<Real> sketch_times_exp_half(const linalg::SymmetricOp& phi,
                                        Index dim, Index rows, Index degree,
                                        std::uint64_t seed, bool exact,
                                        Real scale) {
  std::vector<Real> s(static_cast<std::size_t>(rows * dim));
  // Half-scaled operator: Lemma 4.2 is applied to B = Phi/2.
  const linalg::SymmetricOp half = [&phi](const Vector& x, Vector& y) {
    phi(x, y);
    y.scale(0.5);
  };
  std::optional<rand::SignSketch> pi;
  if (!exact) pi.emplace(rows, dim, seed);

  par::global_pool();  // warm up outside the loop (lazy init)
  // A row is a degree-long chain of Phi applications, each touching at
  // least the dim entries of its vector.
  par::parallel_for(0, rows, [&](Index j) {
    Vector x(dim);
    if (exact) {
      x[j] = scale;  // identity sketch: row j of p_hat itself
    } else {
      const auto row = pi->row(j);
      for (Index i = 0; i < dim; ++i) {
        x[i] = scale * row[static_cast<std::size_t>(i)];
      }
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
/// deferred sign rows otherwise, every entry times `scale` (a power of
/// two). Reuses x_panel's storage (capacity-preserving reshape). Shared by
/// the two-pass and fused blocked kernels, which must generate
/// bit-identical panels.
void fill_sketch_panel(const std::optional<rand::SignSketch>& pi,
                       bool exact, Index dim, Index j0, Index b, Real scale,
                       Matrix& x_panel) {
  if (exact) {
    x_panel.reshape(dim, b);
    x_panel.fill(0);
    for (Index t = 0; t < b; ++t) x_panel(j0 + t, t) = scale;
  } else {
    pi->fill_block(j0, b, x_panel);
    if (scale != 1) x_panel.scale(scale);
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
    std::uint64_t seed, bool exact, Real scale, Index block,
    SolverWorkspace& ws) {
  std::vector<Real> st(static_cast<std::size_t>(dim * rows));
  std::optional<rand::SignSketch> pi;
  if (!exact) pi.emplace(rand::SignSketch::deferred(rows, dim, seed));

  par::global_pool();  // warm up outside the loop (lazy init)
  for (Index j0 = 0; j0 < rows; j0 += block) {
    const Index b = std::min(block, rows - j0);
    fill_sketch_panel(pi, exact, dim, j0, b, scale, ws.x_panel);
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

/// Phi = sum_i x_i Q_i Q_i^T over the set a round dots against, applied
/// with the implicit-Psi scratch of the slot it runs in. Concurrent slots
/// share nothing through it but `float_values`, slot 0's scratch, whose
/// float value copies are built before the slots start and only read
/// after; unlike a caller's closure, that licenses panel-parallel rounds.
/// The matvec keeps a private scratch per call: the reference path runs
/// its rows concurrently.
struct SetPhi {
  const sparse::FactorizedSet* set;
  const Vector* x;
  sparse::FactorizedSet::BlockWorkspace* scratch;
  const sparse::FactorizedSet::BlockWorkspace* float_values;

  void operator()(const Vector& v, Vector& y) const {
    set->weighted_apply(*x, v, y);
  }
  void operator()(const Matrix& v, Matrix& y) const {
    set->weighted_apply_block(*x, v, y, *scratch);
  }
  void operator()(const linalg::MatrixF& v, linalg::MatrixF& y) const {
    set->weighted_apply_block_f(*x, v, y, *scratch, *float_values);
  }
};

/// Where the slots of a fused round get Phi: the caller's panel closures
/// (one slot only -- a closure need not be reentrant) or, for the set form,
/// a SetPhi per slot at `set_weights`.
struct PanelPhi {
  const linalg::BlockOp* block = nullptr;
  const linalg::BlockOpF* block_f = nullptr;
  const Vector* set_weights = nullptr;
};

/// The fixed inputs of one fused round.
struct FusedRound {
  const sparse::FactorizedSet& as;
  const std::optional<rand::SignSketch>& pi;  ///< empty when exact
  Real scale;  ///< power of two every sketch entry is multiplied by
  Index dim;
  Index rows;
  Index degree;
  Index block;
  bool float_panels;

  Index panels() const { return (rows + block - 1) / block; }
};

/// One panel of a fused round (the ROADMAP "one pass over S" item): sketch
/// rows [p block, p block + b) go through the Taylor recurrence, and the
/// panel's share of the trace ||S||_F^2 and of every dots_i is written to
/// its cells right after the panel's last Taylor step, while the panel is
/// cache-hot. Per constraint, the k_i x b block Q_i^T (panel) is gathered
/// column by column over the factor's transpose index (every factor has
/// one), each output one chain in ascending row order; its squared mass is
/// the panel's share of ||S Q_i||_F^2. Nothing m x r is ever materialized.
///
/// In float32 (the mixed-precision sketch mode) the panel is generated in
/// double -- the same seed stream, so bit-identical to the double path's --
/// and rounded once to float; the recurrence and the gather then run on
/// float panels, the gather over the float transpose values of `shared`
/// (slot 0's implicit-Psi scratch), and every reduction that feeds a
/// certificate is a compensated *double* sum over the float data
/// (sum_sq_f), so float error enters only as O(eps_f) panel rounding,
/// inside the margin the JL noise budget already absorbs
/// (docs/noisy_oracle_margin.md). Precision changes constants, not the
/// metered work/depth.
void sweep_panel(const FusedRound& round, Index p, const linalg::BlockOp& phi,
                 const linalg::BlockOpF* phi_f, PanelWorkspace& w,
                 const sparse::FactorizedSet::BlockWorkspace& shared,
                 Real& trace_share, Real* dot_shares) {
  const Index dim = round.dim;
  const Index j0 = p * round.block;
  const Index b = std::min(round.block, round.rows - j0);
  const simd::KernelTable& kt = simd::active_kernels();
  fill_sketch_panel(round.pi, !round.pi.has_value(), dim, j0, b, round.scale,
                    w.x_panel);
  if (round.float_panels) {
    w.x_panel_f.reshape(dim, b);
    kt.convert_d2f(w.x_panel.data(), w.x_panel_f.data(), dim * b);
    linalg::apply_exp_taylor_block_f(*phi_f, round.degree, w.x_panel_f,
                                     w.y_panel_f, w.taylor_f,
                                     static_cast<float>(kHalfScale));
    // A serial compensated double sum, independent of the thread count.
    trace_share = kt.sum_sq_f(w.y_panel_f.data(), dim * b);
  } else {
    linalg::apply_exp_taylor_block(phi, round.degree, w.x_panel, w.y_panel,
                                   w, kHalfScale);
    trace_share = par::parallel_sum(0, dim * b, [&](Index k) {
      return sq(w.y_panel.data()[static_cast<std::size_t>(k)]);
    });
  }
  const sparse::FactorizedSet& as = round.as;
  par::parallel_for(0, as.size(), [&](Index i) {
    const sparse::Csr& q = as[i].q();
    const Index k = q.cols();
    const auto at = static_cast<std::size_t>(i);
    if (round.float_panels) {
      std::vector<float>& acc = w.accumulators_f[at];
      acc.resize(static_cast<std::size_t>(k * b));
      kt.gather_panel_f(q.transpose_offsets().data(),
                        q.transpose_rows().data(),
                        shared.float_values[at].t_values.data(), 0, k, b,
                        w.y_panel_f.data(), acc.data());
      dot_shares[i] = kt.sum_sq_f(acc.data(), k * b);
    } else {
      std::vector<Real>& acc = w.accumulators[at];
      acc.resize(static_cast<std::size_t>(k * b));
      kt.gather_panel(q.transpose_offsets().data(), q.transpose_rows().data(),
                      q.transpose_values().data(), 0, k, b, w.y_panel.data(),
                      acc.data());
      dot_shares[i] = kt.sum_sq(acc.data(), k * b);
    }
    par::CostMeter::add_work(
        static_cast<std::uint64_t>(b * (2 * q.nnz() + 2 * k)));
  }, constraint_grain(as, b));
  // The panel chain's depth beyond its Taylor sweep (which charges its
  // own): the trace reduction, then the constraint sweep.
  par::CostMeter::add_depth(par::reduction_depth(dim * b) +
                            par::reduction_depth(as.size()));
}

/// Slots of a fused round (the slot rule, see the set-form big_dot_exp):
/// the available width when Phi is reentrant, there are at least that many
/// panels, and each slot carries kMinChunkWork -- a panel step is a Psi
/// apply (4 b nnz) and a Taylor step (3 m b) -- else 1.
Index fused_slots(const FusedRound& round, const PanelPhi& phi) {
  if (phi.set_weights == nullptr) return 1;
  const Index width = par::available_width();
  if (width == 1 || round.panels() < width) return 1;
  const Real work = static_cast<Real>(round.rows * round.degree) *
                    static_cast<Real>(4 * round.as.total_nnz() + 3 * round.dim);
  return work >= static_cast<Real>(width) * par::kMinChunkWork ? width : 1;
}

/// Fused blocked path: the panels of a round run on fused_slots() slots,
/// slot s taking panels [s P / S, (s + 1) P / S) with its own
/// PanelWorkspace (slot 0 is the workspace itself, so a one-slot round
/// touches exactly the buffers it always did). More than one slot opens a
/// single pool region, and every kernel inside a slot runs inline; one slot
/// runs the panels in order on the caller, its kernels fanning out. Each
/// panel writes its trace share and dots shares to its own cells, which
/// are folded here in panel order -- bitwise the serial `dots_i += share`
/// chain at every slot count. Each panel runs under a depth capture, and
/// the deepest chain is charged once: the panels are independent chains.
/// All scratch lives in the caller-owned workspace, so repeated calls
/// allocate nothing once warm. Returns the trace estimate ||S||_F^2.
Real sketch_exp_dots_fused(const FusedRound& round, const PanelPhi& phi,
                           SolverWorkspace& ws, Vector& dots) {
  const sparse::FactorizedSet& as = round.as;
  const Index n = as.size();
  const Index panels = round.panels();
  const Index slots = fused_slots(round, phi);
  if (static_cast<Index>(ws.slots.size()) < slots - 1) {
    ws.slots.resize(static_cast<std::size_t>(slots - 1));
  }
  ws.panel_trace.assign(static_cast<std::size_t>(panels), 0);
  ws.panel_dots.assign(static_cast<std::size_t>(panels * n), 0);
  ws.panel_depth.assign(static_cast<std::size_t>(panels), 0);

  const auto run_slot = [&](Index s) {
    PanelWorkspace& w =
        s == 0 ? ws : ws.slots[static_cast<std::size_t>(s - 1)];
    // One k_i x b accumulator per constraint, recycled across panels and
    // calls (resize() reuses capacity).
    if (static_cast<Index>(w.accumulators.size()) < n) {
      w.accumulators.resize(static_cast<std::size_t>(n));
      w.accumulators_f.resize(static_cast<std::size_t>(n));
    }
    const SetPhi set_phi{&as, phi.set_weights, &w.factor, &ws.factor};
    linalg::BlockOp own;
    linalg::BlockOpF own_f;
    if (phi.set_weights != nullptr) {
      // Reference wrappers: stored inside the std::function, no heap.
      own = std::cref(set_phi);
      own_f = std::cref(set_phi);
    }
    const linalg::BlockOp& block = phi.set_weights ? own : *phi.block;
    const linalg::BlockOpF* block_f = phi.set_weights ? &own_f : phi.block_f;
    for (Index p = s * panels / slots; p < (s + 1) * panels / slots; ++p) {
      const auto at = static_cast<std::size_t>(p);
      par::CostMeter::ScopedDepthCapture chain;
      sweep_panel(round, p, block, block_f, w, ws.factor, ws.panel_trace[at],
                  ws.panel_dots.data() + p * n);
      ws.panel_depth[at] = chain.depth();
    }
  };
  // One float copy of the factor values per round, slot 0's, built before
  // any slot starts; every slot reads it.
  if (round.float_panels) as.ensure_float_values(ws.factor);
  par::global_pool();  // warm up outside the loop (lazy init)
  if (slots == 1) {
    run_slot(0);
  } else {
    par::parallel_for(0, slots, run_slot, /*grain=*/1);
  }

  Real trace = 0;
  for (const Real share : ws.panel_trace) trace += share;
  for (Index i = 0; i < n; ++i) {
    Real d = 0;
    for (Index p = 0; p < panels; ++p) {
      d += ws.panel_dots[static_cast<std::size_t>(p * n + i)];
    }
    dots[i] = d;
  }
  par::CostMeter::add_depth(
      *std::max_element(ws.panel_depth.begin(), ws.panel_depth.end()));
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

/// Whether a round's trace and dots estimates are all finite.
bool estimates_finite(const BigDotExpResult& result) {
  if (!std::isfinite(result.trace_exp)) return false;
  for (Index i = 0; i < result.dots.size(); ++i) {
    if (!std::isfinite(result.dots[i])) return false;
  }
  return true;
}

/// The workspace form behind every overload. `phi_panel.set_weights` is
/// set only by the set form, whose Phi is reentrant.
void big_dot_exp_impl(const linalg::SymmetricOp& phi,
                      const PanelPhi& phi_panel, Index dim, Real kappa,
                      const sparse::FactorizedSet& as,
                      const BigDotExpOptions& options,
                      SolverWorkspace& workspace, BigDotExpResult& result) {
  const linalg::BlockOp& phi_block = *phi_panel.block;
  const linalg::BlockOpF* phi_block_f = phi_panel.block_f;
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

  // The float32 gate (see BigDotExpOptions::panel_precision): every leg
  // must hold or the call silently runs the double path -- and records
  // that it did, so callers and benches can tell which precision a result
  // carries.
  const bool float_gate =
      options.panel_precision == PanelPrecision::kFloat32 &&
      phi_block_f != nullptr && static_cast<bool>(*phi_block_f) &&
      block > 1 && options.fuse_dots &&
      options.eps >= options.float_panel_min_eps;

  result.dots.resize(as.size());
  // One evaluation of the round, every sketch entry times `scale`.
  const auto evaluate = [&](Real scale, bool float_panels) {
    result.panel_precision =
        float_panels ? PanelPrecision::kFloat32 : PanelPrecision::kDouble;
    result.fused = false;
    if (block == 1) {
      // Reference path: r independent Taylor matvec chains, r x m layout.
      const std::vector<Real> s =
          sketch_times_exp_half(phi, dim, r, result.taylor_degree,
                                options.seed, result.exact_sketch, scale);
      // Tr[exp(Phi)] = ||exp(Phi/2)||_F^2 ~ ||S||_F^2.
      result.trace_exp = par::parallel_sum(0, r * dim, [&](Index k) {
        return sq(s[static_cast<std::size_t>(k)]);
      });
      accumulate_dots_reference(s, dim, r, as, result.dots);
      // Critical path of the r concurrent Taylor chains: one chain of k-1
      // matvecs (worker-side depth charges are dropped by the meter; the
      // blocked path's chains charge their own depth from the caller).
      par::CostMeter::add_depth(
          static_cast<std::uint64_t>(result.taylor_degree - 1) *
          (par::reduction_depth(dim) + 1));
    } else if (options.fuse_dots) {
      // Fused blocked path: dots and trace accumulate per panel, right
      // after the panel's Taylor sweep -- no m x r buffer, no second pass
      // over S.
      result.fused = true;
      std::optional<rand::SignSketch> pi;
      if (!result.exact_sketch) {
        pi.emplace(rand::SignSketch::deferred(r, dim, options.seed));
      }
      const FusedRound round{as, pi, scale, dim, r, result.taylor_degree,
                             block, float_panels};
      result.trace_exp =
          sketch_exp_dots_fused(round, phi_panel, workspace, result.dots);
    } else {
      // Blocked path: panels of `block` sketch rows share each Phi
      // traversal.
      const std::vector<Real> st = sketch_times_exp_half_blocked(
          phi_block, dim, r, result.taylor_degree, options.seed,
          result.exact_sketch, scale, block, workspace);
      result.trace_exp = par::parallel_sum(0, r * dim, [&](Index k) {
        return sq(st[static_cast<std::size_t>(k)]);
      });
      accumulate_dots_blocked(st, r, as, result.dots);
    }

    // Frobenius reduction for the trace; the Phi applications, Taylor
    // panel arithmetic, sketch generation, and dots streaming charge
    // themselves. The fused path has already charged its panel chain's
    // reduction depth, so only the two separate final passes of the
    // unfused layouts add depth here.
    par::CostMeter::add_work(static_cast<std::uint64_t>(2 * r * dim));
    if (!result.fused) {
      par::CostMeter::add_depth(par::reduction_depth(dim) +
                                par::reduction_depth(as.size()));
    }
  };

  // exp(Phi/2) outgrows double once ||Phi|| runs far past kappa, as when
  // weights keep growing past a solver's exit. Such a round is rerun on a
  // scaled sketch, in double panels (a float one would underflow): every
  // estimate then carries the square of the scale, exactly, and the
  // solvers use only ratios of estimates.
  for (int attempt = 0;; ++attempt) {
    evaluate(std::ldexp(Real{1}, -kRescaleStep * attempt),
             float_gate && attempt == 0);
    result.scale_exponent = -2 * kRescaleStep * attempt;
    if (estimates_finite(result) || attempt == kMaxRescales) break;
  }
}

}  // namespace

void big_dot_exp(const linalg::SymmetricOp& phi,
                 const linalg::BlockOp& phi_block, Index dim, Real kappa,
                 const sparse::FactorizedSet& as,
                 const BigDotExpOptions& options, SolverWorkspace& workspace,
                 BigDotExpResult& result,
                 const linalg::BlockOpF* phi_block_f) {
  big_dot_exp_impl(phi, PanelPhi{&phi_block, phi_block_f, nullptr}, dim,
                   kappa, as, options, workspace, result);
}

void big_dot_exp(const Vector& x, Real kappa, const sparse::FactorizedSet& as,
                 const BigDotExpOptions& options, SolverWorkspace& workspace,
                 BigDotExpResult& result) {
  PSDP_CHECK(x.size() == as.size(), "big_dot_exp: weight length mismatch");
  // Slot 0's Phi, which also serves the reference and unfused paths.
  const SetPhi set_phi{&as, &x, &workspace.factor, &workspace.factor};
  const linalg::SymmetricOp phi = std::cref(set_phi);
  const linalg::BlockOp phi_block = std::cref(set_phi);
  const linalg::BlockOpF phi_block_f = std::cref(set_phi);
  big_dot_exp_impl(phi, PanelPhi{&phi_block, &phi_block_f, &x}, as.dim(),
                   kappa, as, options, workspace, result);
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
