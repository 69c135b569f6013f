// bigDotExp (Theorem 4.1): batch evaluation of exp(Phi) . A_i for all i,
// given Phi PSD with ||Phi||_2 <= kappa and A_i = Q_i Q_i^T prefactored.
//
// Pipeline (exactly the paper's proof):
//   1. exp(Phi) . Q Q^T = ||exp(Phi/2) Q||_F^2           (factorization)
//   2. exp(Phi/2) ~ p_hat = truncated Taylor series      (Lemma 4.2,
//      degree k = max(e^2 kappa/2, ln(2/eps)))            applied as matvecs
//   3. ||v||^2 ~ ||Pi v||^2 with a JL sketch Pi          ([DG03, IM98],
//      r = O(eps^-2 log m) rows)
//
// so each estimate is S = Pi p_hat, dots_i = ||S Q_i||_F^2, and the trace
// Tr[exp(Phi)] = exp(Phi) . I is the same computation with Q = I, i.e.
// ||S||_F^2. Work: O(r k p + r q); depth: O(k log m) -- both metered: Phi
// applications charge themselves (r k of them, 2p each when Phi is CSR or a
// factorized sum), the Taylor kernels charge the O(r k m) panel arithmetic,
// and this module charges the sketch generation (r m), the dots streaming
// (2 r q), and the Frobenius reductions.
//
// When r >= m the sketch is replaced by the exact identity "sketch"
// (S = p_hat itself, computed column by column), which removes all sketching
// error; small instances therefore get exact answers automatically.
//
// Kernel selection: the r sketch rows are independent, so they can be pushed
// through p_hat either one vector at a time (r k sparse matvecs -- the
// single-vector reference path) or as row-major m x b panels via the BlockOp
// layer (r k / b sparse multi-vector SpMM passes -- the blocked path, which
// streams Phi once per panel and turns the inner loops into contiguous
// length-b dense updates). BigDotExpOptions::block_size picks the width;
// the blocked path is the default whenever a native block operator is
// available and is ~2-4x faster at b >= 8 (see bench_kernels). By default
// the blocked path also *fuses* the dots accumulation into the panel sweep
// (BigDotExpOptions::fuse_dots): each panel's contribution to every dots_i
// and to the trace is consumed right after the panel's last Taylor step,
// so S^T is never materialized (saves the m x r buffer and one full pass
// over S).
#pragma once

#include <cstdint>
#include <optional>

#include "linalg/blockop.hpp"
#include "linalg/power.hpp"
#include "linalg/taylor.hpp"
#include "linalg/vector.hpp"
#include "sparse/csr.hpp"
#include "sparse/factorized.hpp"
#include "sparse/sharded.hpp"
#include "util/tunables.hpp"

namespace psdp::core {

using linalg::Vector;

/// Default panel width of the blocked path: wide enough to amortize the
/// sparse traversal, narrow enough that a panel row (b doubles) plus the
/// matrix row stay cache-resident. bench_kernels sweeps this.
inline constexpr Index kDefaultBlockSize = 16;

/// Storage precision of the sketch and Taylor panels. Certificate-bearing
/// quantities (dots, trace, the error budget) always reduce in double:
/// the float32 mode stores the *panels* in float and compensates every dot
/// reduction in double (simd::KernelTable::sum_sq_f), so the extra error
/// is O(eps_f) panel rounding -- absorbed by the same margin argument that
/// licenses the JL sketch noise (docs/noisy_oracle_margin.md). Halves the
/// panel bandwidth and doubles the SIMD lane count.
enum class PanelPrecision {
  kDouble,   ///< reference: everything double (the default)
  kFloat32,  ///< float32 sketch/Taylor panels, compensated double dots
};

/// Stable name of a panel precision ("double", "float32") for banners and
/// the bench JSON headers.
const char* panel_precision_name(PanelPrecision precision);

struct BigDotExpOptions {
  /// Target relative accuracy of each dot product (the eps of Theorem 4.1).
  Real eps = 0.1;
  /// JL failure probability (union-bounded over the n+1 estimates).
  Real delta = 1e-3;
  /// Sketch seed; every call with the same seed uses the same Pi.
  std::uint64_t seed = 1;
  /// Override the Taylor degree (0 = Lemma 4.2 formula).
  Index taylor_degree_override = 0;
  /// Override the sketch row count (0 = JL formula capped at m).
  Index sketch_rows_override = 0;
  /// Panel width of the blocked exp-Taylor kernels. 0 = auto
  /// (kDefaultBlockSize capped at the sketch row count; falls back to the
  /// reference path when only a single-vector operator is available);
  /// 1 = the single-vector reference path, bit-identical to the original
  /// implementation; b > 1 = blocked panels of width b. All settings use
  /// the same sketch for the same seed, so results agree to rounding
  /// (~1e-12 relative) across block sizes. Defaulted from the tunable
  /// registry (`block_size`, default 0).
  Index block_size = util::tunable_block_size();
  /// Blocked path only: accumulate each panel's contribution to the dots
  /// and the trace right after that panel's last Taylor step, while the
  /// panel is cache-hot, instead of materializing S^T (m x r) and
  /// re-reading it per constraint afterwards. Saves one full pass over S
  /// plus the m x r buffer; results agree with the two-pass layout to
  /// rounding (summation order differs). false = the two-pass blocked
  /// layout, kept for benchmarking (see bench_kernels).
  bool fuse_dots = true;
  /// Requested panel precision. kFloat32 engages only when every gate
  /// holds -- a float block operator was provided, the blocked fused path
  /// is active (block > 1 and fuse_dots), and eps >= float_panel_min_eps
  /// (the certificate-tolerance gate: panel rounding must stay far inside
  /// the error budget eps already absorbs for the sketch) -- and falls
  /// back to double silently otherwise; BigDotExpResult::panel_precision
  /// records what actually ran.
  PanelPrecision panel_precision = PanelPrecision::kDouble;
  /// The certificate-tolerance gate of the float32 mode: requests with a
  /// tighter (smaller) eps than this run in double. Float panels carry
  /// ~1e-7 relative rounding; at eps >= 1e-3 that is <1% of the error
  /// budget and the (1 +- eps) certificates stay sound.
  Real float_panel_min_eps = 1e-3;
};

struct BigDotExpResult {
  Vector dots;       ///< estimates of exp(Phi) . A_i, length n
  Real trace_exp = 0;  ///< estimate of Tr[exp(Phi)]
  Index taylor_degree = 0;
  Index sketch_rows = 0;
  bool exact_sketch = false;  ///< true when r >= m made the sketch exact
  Index block_size = 0;       ///< panel width actually used (1 = reference)
  bool fused = false;         ///< dots fused into the Taylor panel sweep
  /// Panel precision that actually ran (kDouble when any float32 gate
  /// failed -- see BigDotExpOptions::panel_precision).
  PanelPrecision panel_precision = PanelPrecision::kDouble;
};

/// Caller-owned scratch recycled across big_dot_exp calls -- and therefore
/// across solver iterations, which is where it matters: one oracle
/// evaluation per round reuses the Taylor panels (the TaylorBlockWorkspace
/// base), the sketch input/output panels, the fused per-constraint dots
/// accumulators, and the implicit-Psi panel scratch, so the steady-state
/// iteration performs no heap allocations after warmup (enforced by
/// bench_variants --alloc-guard). SketchedTaylorOracle holds one (or
/// borrows the caller's via SketchedOracleOptions::workspace); sharing an
/// instance across sequential solves is safe -- every buffer is fully
/// overwritten per call -- and never changes results.
struct SolverWorkspace : linalg::TaylorBlockWorkspace {
  linalg::Matrix x_panel;  ///< sketch panel (dim x b)
  linalg::Matrix y_panel;  ///< Taylor output panel (dim x b)
  /// Fused path: one k_i x b dots accumulator per constraint.
  std::vector<std::vector<Real>> accumulators;
  /// Float twins of the above, touched only by the mixed-precision sketch
  /// mode (BigDotExpOptions::panel_precision == kFloat32); empty otherwise.
  linalg::MatrixF x_panel_f;
  linalg::MatrixF y_panel_f;
  linalg::TaylorBlockWorkspaceF taylor_f;
  std::vector<std::vector<float>> accumulators_f;
  /// Scratch of FactorizedSet::weighted_apply_block (the implicit Psi).
  sparse::FactorizedSet::BlockWorkspace factor;
};

/// Phi as an abstract symmetric PSD operator of dimension `dim` (matvec).
/// Without a native block operator the auto block size resolves to the
/// reference path; pass block_size > 1 to force column-by-column blocking.
BigDotExpResult big_dot_exp(const linalg::SymmetricOp& phi, Index dim,
                            Real kappa, const sparse::FactorizedSet& as,
                            const BigDotExpOptions& options = {});

/// Phi as both a matvec and a native panel operator (the solver passes
/// sum_i x_i A_i in both forms without forming the sum). The matvec serves
/// the reference path (block_size 1); the BlockOp serves the blocked path.
BigDotExpResult big_dot_exp(const linalg::SymmetricOp& phi,
                            const linalg::BlockOp& phi_block, Index dim,
                            Real kappa, const sparse::FactorizedSet& as,
                            const BigDotExpOptions& options = {});

/// Workspace form: all scratch comes from `workspace` and the estimates are
/// written into `result` in place (result.dots is resized capacity-
/// preserving), so repeated calls -- one per solver round -- allocate
/// nothing once the workspace is warm. The convenience overloads delegate
/// here with a private workspace. Results are identical to a fresh
/// workspace: every buffer is fully overwritten per call.
///
/// `phi_block_f`, when non-null and non-empty, is the float32 panel form of
/// Phi serving the mixed-precision sketch mode (see
/// BigDotExpOptions::panel_precision); the double operators still serve
/// every other path, including the fallback when a float32 request fails a
/// gate.
void big_dot_exp(const linalg::SymmetricOp& phi,
                 const linalg::BlockOp& phi_block, Index dim, Real kappa,
                 const sparse::FactorizedSet& as,
                 const BigDotExpOptions& options, SolverWorkspace& workspace,
                 BigDotExpResult& result,
                 const linalg::BlockOpF* phi_block_f = nullptr);

/// Sharded workspace form: forwards as.set() to the call above. The shard
/// partition changes no bit -- every reduction folds over fixed pieces
/// (par::parallel_sum) -- so the results depend on the instance and the
/// options, never on K or the thread count.
void big_dot_exp(const linalg::SymmetricOp& phi,
                 const linalg::BlockOp& phi_block, Index dim, Real kappa,
                 const sparse::ShardedFactorizedSet& as,
                 const BigDotExpOptions& options, SolverWorkspace& workspace,
                 BigDotExpResult& result,
                 const linalg::BlockOpF* phi_block_f = nullptr);

/// Convenience overload: Phi given as a sparse CSR matrix (native SpMV and
/// SpMM kernels). If kappa <= 0 it is estimated with power iteration
/// (inflated to an upper bound).
BigDotExpResult big_dot_exp(const sparse::Csr& phi, Real kappa,
                            const sparse::FactorizedSet& as,
                            const BigDotExpOptions& options = {});

}  // namespace psdp::core
