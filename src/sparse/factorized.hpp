// Factorized PSD matrices: A = Q Q^T with Q sparse (m x k).
//
// This is the "prefactored" input format of Theorem 4.1 / Corollary 1.2.
// Everything the width-independent solver needs from A_i is available
// without ever forming the m x m product:
//   trace(A)      = ||Q||_F^2
//   A x           = Q (Q^T x)
//   exp(Phi) . A  = ||exp(Phi/2) Q||_F^2    (the bigDotExp identity)
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace psdp::sparse {

/// Aspect ratio rows/cols at which a factor counts as "tall" and gets the
/// cached transpose index at construction: the per-output-row CSC gather
/// then replaces the owned-column scatter in every Q^T application (see
/// Csr::build_transpose_index). Below this the extra copy of the nonzeros
/// buys little; the solvers' factors (m x k with k small) are far above it.
inline constexpr Index kTransposeIndexAspect = 4;

/// One PSD matrix in factorized form.
class FactorizedPsd {
 public:
  FactorizedPsd() = default;

  /// Takes Q (m x k). The represented matrix is Q Q^T, of dimension m.
  /// Tall factors (rows >= kTransposeIndexAspect * cols) get the cached
  /// transpose index built here, so their Q^T kernels run the gather path.
  explicit FactorizedPsd(Csr q);

  /// As above, but the transpose index (and with it the segment grid and
  /// the KernelPlan) is built under the caller's options -- in particular
  /// TransposePlanOptions::autotune.plan_cache, which is how the serve
  /// layer's ArtifactCache routes plan memoization of the instances it
  /// prepares into its own owned cache instead of the process-wide one.
  FactorizedPsd(Csr q, const TransposePlanOptions& plan_options);

  /// Rank-1 special case A = v v^T (beamforming channels, graph edges).
  static FactorizedPsd rank_one(const Vector& v, Real drop_tol = 0);

  /// Factor a dense PSD matrix via its eigendecomposition:
  /// Q = V diag(sqrt(lambda)) restricted to the numerical rank.
  static FactorizedPsd from_dense_psd(const Matrix& a, Real tol = 1e-10);

  const Csr& q() const { return q_; }

  /// Build (idempotently) the factor's transpose index regardless of the
  /// aspect gate. The sharded sets call this for every factor when K > 1:
  /// the CSC gather kernels are thread-count deterministic, the fallback
  /// owned-column scatter is not.
  void ensure_transpose_index(const TransposePlanOptions& plan_options) {
    q_.build_transpose_index(plan_options);
  }

  Index dim() const { return q_.rows(); }
  Index factor_cols() const { return q_.cols(); }
  Index nnz() const { return q_.nnz(); }

  /// trace(Q Q^T) = ||Q||_F^2.
  Real trace() const { return q_.frobenius_norm2(); }

  /// Cached upper bound on lambda_max(Q Q^T), computed once at
  /// construction: the exact top eigenvalue of the k x k Gram matrix for
  /// small factor ranks (inflated a hair so eigensolver rounding cannot
  /// under-report a spectral norm), the trace for large ones. Always
  /// <= trace(), so bounds summed over a weighted set can never be looser
  /// than the trace-only bound. scaled() rescales the cached value, so
  /// probe searches over scaled instances pay the eigensolve only once.
  Real lambda_max_bound() const { return lambda_bound_; }

  /// Copy representing s * Q Q^T (factor scaled by sqrt(s), s >= 0),
  /// carrying the cached transpose index and lambda_max bound along
  /// instead of recomputing them.
  FactorizedPsd scaled(Real s) const;

  /// y = (Q Q^T) x via two SpMVs. Thread-safe (no shared scratch).
  void apply(const Vector& x, Vector& y) const;

  /// y += w (Q Q^T) x: Q^T x into the caller's scratch (resized to
  /// factor_cols(), capacity-preserving), then y_r += w (row r of Q) . that
  /// over the non-empty rows r of Q only. Bitwise equal to apply() followed
  /// by y.add_scaled(., w) for finite w (a skipped empty row would have
  /// added w * 0, which leaves y unchanged unless y_r is -0 -- and a sum
  /// started from +0 never is). Work O(nnz + non-empty rows).
  void accumulate(const Vector& x, Real w, Vector& y, Vector& scratch) const;

  /// Y += w (Q Q^T) X for row-major dim() x b panels: the transpose SpMM
  /// Q^T X into the caller's k x b scratch (dispatched under `plan`, see
  /// Csr::apply_transpose_block; `partial` recycles the owned-column
  /// scatter's chunks), then Y[r,:] += w (Q[r,:] scratch) over Q's
  /// non-empty rows through simd spmm_rows_accumulate. Bitwise equal to
  /// the transpose SpMM, Csr::apply_block and Matrix::add_scaled in turn
  /// (same argument as accumulate), at O(b (nnz + non-empty rows)) work
  /// instead of O(b (nnz + dim())). Allocation-free once the scratch
  /// buffers are warm.
  void accumulate_block(const Matrix& x, Real w, Matrix& y, Matrix& scratch,
                        std::vector<Real>& partial,
                        const KernelPlan* plan) const;

  /// Float32 twin of accumulate_block for the mixed-precision sketch mode,
  /// using the caller's float32 value copies of Q (FactorizedSet::
  /// ensure_float_values builds and recycles them). Deterministic per ISA;
  /// float rounding only.
  void accumulate_block_f(const MatrixF& x, float w, MatrixF& y,
                          MatrixF& scratch, std::span<const float> values_f,
                          std::span<const float> t_values_f,
                          std::vector<float>& partial) const;

  /// The rows of Q holding a nonzero, ascending; built at construction.
  std::span<const Index> nonempty_rows() const { return nonempty_rows_; }

  /// (Q Q^T) . S for a dense symmetric S: sum of column quadratic forms.
  Real dot_dense(const Matrix& s) const;

  /// Dense copy Q Q^T.
  Matrix to_dense() const;

 private:
  Csr q_;
  Real lambda_bound_ = 0;  ///< cached lambda_max(Q Q^T) upper bound
  std::vector<Index> nonempty_rows_;  ///< see nonempty_rows()
};

/// The constraint set {A_i = Q_i Q_i^T}, plus totals used in the cost bounds
/// (q = total nnz across factors).
class FactorizedSet {
 public:
  FactorizedSet() = default;
  explicit FactorizedSet(std::vector<FactorizedPsd> items);

  Index size() const { return static_cast<Index>(items_.size()); }
  Index dim() const { return dim_; }
  Index total_nnz() const { return total_nnz_; }

  const FactorizedPsd& operator[](Index i) const;

  std::vector<FactorizedPsd>& items() { return items_; }
  const std::vector<FactorizedPsd>& items() const { return items_; }

  /// Psi = sum_i x_i A_i as a sparse CSR matrix (union of factor supports).
  /// Entries with weight zero are skipped.
  Csr weighted_sum(const Vector& x) const;

  /// y = (sum_i x_i A_i) v without forming the sum: one
  /// FactorizedPsd::accumulate per nonzero weight, straight into y.
  void weighted_apply(const Vector& x, const Vector& v, Vector& y) const;

  /// Y = (sum_i x_i A_i) V for a row-major dim() x b panel V: per nonzero
  /// weight, the transpose SpMM S_i = Q_i^T V and then Y[r,:] += x_i
  /// (Q_i[r,:] S_i) over Q_i's non-empty rows (FactorizedPsd::
  /// accumulate_block), so the work is O(b sum_i nnz(Q_i) + m b), not
  /// O(n m b). Column t is bit-identical to weighted_apply on column t
  /// when every factor has a transpose index (all tall factors, and every
  /// factor of a K > 1 sharded set). Without one, the panel transpose is
  /// the owned-column scatter (fused on the vector backends, summed per
  /// thread chunk) and the matvec a serial unfused sweep, so the two agree
  /// only to rounding. The workspace panels are resized on first use and
  /// reusable across calls.
  struct BlockWorkspace {
    Matrix scratch;  ///< k_i x b intermediate Q_i^T V
    /// Per-chunk accumulators of the owned-column transpose scatter
    /// (unused by factors with a transpose index); recycled across calls.
    std::vector<Real> transpose_partial;
    /// Caller-provided transpose KernelPlan applied to every factor's Q^T
    /// panels (nullptr = each factor's own plan). big_dot_exp wires
    /// BigDotExpOptions::kernel_plan through here; holding a plan is a
    /// pointer copy, so the zero-allocation steady state is unaffected.
    const KernelPlan* plan = nullptr;

    /// Float twins of the panels above, used only by the mixed-precision
    /// sketch mode (BigDotExpOptions::panel_precision).
    MatrixF scratch_f;  ///< k_i x b float intermediate
    std::vector<float> transpose_partial_f;
    /// Per-factor float32 copies of Q_i's values (and cached CSC values),
    /// built once by ensure_float_values and reused across panels, rounds,
    /// and solves. Stale only if a factor is mutated after the build --
    /// instances are immutable for the duration of a solve, and the float
    /// kernels cross-check sizes against nnz.
    struct FloatFactorValues {
      std::vector<float> values;
      std::vector<float> t_values;  ///< empty when no transpose index
      bool built = false;
    };
    std::vector<FloatFactorValues> float_values;
  };
  void weighted_apply_block(const Vector& x, const Matrix& v, Matrix& y,
                            BlockWorkspace& workspace) const;

  /// Build (idempotently) the workspace's per-factor float32 value copies.
  /// Runs once per workspace; after it, the float sweeps below allocate
  /// nothing (the zero-allocation steady state extends to the mixed-
  /// precision mode).
  void ensure_float_values(BlockWorkspace& workspace) const;

  /// Float32 twin of weighted_apply_block: same factor traversal over
  /// MatrixF panels through the float kernel seam. Column results carry
  /// float rounding (deterministic per ISA); only the sketch/Taylor panels
  /// ever run through here -- every certificate-bearing quantity stays
  /// double (see BigDotExpOptions::panel_precision).
  void weighted_apply_block_f(const Vector& x, const MatrixF& v, MatrixF& y,
                              BlockWorkspace& workspace) const;

 private:
  std::vector<FactorizedPsd> items_;
  Index dim_ = 0;
  Index total_nnz_ = 0;
};

}  // namespace psdp::sparse
