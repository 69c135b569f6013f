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

#include "simd/kernel_table.hpp"
#include "sparse/csr.hpp"

namespace psdp::sparse {

/// One PSD matrix in factorized form.
class FactorizedPsd {
 public:
  FactorizedPsd() = default;

  /// Takes Q (m x k). The represented matrix is Q Q^T, of dimension m.
  /// Builds Q's transpose index, so every Q^T kernel runs a gather whose
  /// bits do not depend on the thread count.
  explicit FactorizedPsd(Csr q);

  /// Rank-1 special case A = v v^T (beamforming channels, graph edges).
  static FactorizedPsd rank_one(const Vector& v, Real drop_tol = 0);

  /// Factor a dense PSD matrix via its eigendecomposition:
  /// Q = V diag(sqrt(lambda)) restricted to the numerical rank.
  static FactorizedPsd from_dense_psd(const Matrix& a, Real tol = 1e-10);

  const Csr& q() const { return q_; }

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

  /// The rows of Q holding a nonzero, ascending; built at construction
  /// (FactorizedSet builds its row-segment index from them).
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
/// (q = total nnz across factors), plus the row-segment index of the
/// implicit Psi sweep: for every row r, the constraints i (ascending) whose
/// Q_i has entries in row r, each with that row's entry span [begin, end)
/// in Q_i's own CSR arrays (spans only, no copied values or columns; 12
/// bytes a (row, constraint) pair). Built at construction; the factors
/// cannot be reshaped afterwards, so it never goes stale.
class FactorizedSet {
 public:
  FactorizedSet() = default;
  explicit FactorizedSet(std::vector<FactorizedPsd> items);

  Index size() const { return static_cast<Index>(items_.size()); }
  Index dim() const { return dim_; }
  Index total_nnz() const { return total_nnz_; }

  const FactorizedPsd& operator[](Index i) const;

  const std::vector<FactorizedPsd>& items() const { return items_; }

  /// Psi = sum_i x_i A_i as a sparse CSR matrix (union of factor supports).
  /// Entries with weight zero are skipped.
  Csr weighted_sum(const Vector& x) const;

  /// Y = (sum_i x_i A_i) V for a row-major dim() x b panel V, as one
  /// set-level sweep in two work-gated parallel regions:
  ///  1. over constraints: for each nonzero weight, the transpose SpMM
  ///     S_i = Q_i^T V into the constraint's own k_i x b workspace block
  ///     (Csr::apply_transpose_block);
  ///  2. over output rows: Y[r,:] = sum_i x_i (Q_i[r,:] S_i) over the row's
  ///     segments in ascending i, through simd psi_rows; rows without
  ///     entries are written as zeros.
  /// The work is O(b sum_i nnz(Q_i) + m b), not O(n m b). Every output is
  /// bitwise the per-constraint composition -- the transpose SpMM,
  /// Csr::apply_block, then Matrix::add_scaled, constraint by constraint
  /// -- at any thread count, and column t is bit-identical to
  /// weighted_apply on column t. The workspace blocks are resized on first
  /// use and reusable across calls.
  struct BlockWorkspace {
    /// Per-constraint k_i x b intermediates S_i = Q_i^T V.
    std::vector<Matrix> blocks;
    /// Per-constraint S_i = Q_i^T v of the b = 1 weighted_apply.
    std::vector<Vector> columns;
    /// Per-constraint operands of the row pass (simd::PsiTerm).
    std::vector<simd::PsiTerm<Real>> terms;

    /// Float twins of the buffers above, used only by the mixed-precision
    /// sketch mode (BigDotExpOptions::panel_precision).
    std::vector<MatrixF> blocks_f;
    std::vector<simd::PsiTerm<float>> terms_f;
    /// Per-factor float32 copies of Q_i's values (and cached CSC values),
    /// built once by ensure_float_values and reused across panels, rounds,
    /// and solves. Stale only if a factor is mutated after the build --
    /// instances are immutable for the duration of a solve, and the float
    /// kernels cross-check sizes against nnz.
    struct FloatFactorValues {
      std::vector<float> values;
      std::vector<float> t_values;  ///< the CSC values, in float
      bool built = false;
    };
    std::vector<FloatFactorValues> float_values;
  };
  void weighted_apply_block(const Vector& x, const Matrix& v, Matrix& y,
                            BlockWorkspace& workspace) const;

  /// y = (sum_i x_i A_i) v without forming the sum: the b = 1 sweep of
  /// weighted_apply_block, with each S_i = Q_i^T v from
  /// Csr::apply_transpose into workspace.columns, so repeated calls (one
  /// per Lanczos matvec) allocate nothing once warm.
  void weighted_apply(const Vector& x, const Vector& v, Vector& y,
                      BlockWorkspace& workspace) const;

  /// The same with a private workspace: allocates its per-constraint
  /// vectors per call, and shares nothing between concurrent calls.
  void weighted_apply(const Vector& x, const Vector& v, Vector& y) const;

  /// Build (idempotently) the workspace's per-factor float32 value copies.
  /// Runs once per workspace; after it, the float sweeps below allocate
  /// nothing (the zero-allocation steady state extends to the mixed-
  /// precision mode).
  void ensure_float_values(BlockWorkspace& workspace) const;

  /// Float32 twin of weighted_apply_block: the same sweep over MatrixF
  /// panels through the float kernel seam. Column results carry float
  /// rounding (deterministic per ISA); only the sketch/Taylor panels ever
  /// run through here -- every certificate-bearing quantity stays double
  /// (see BigDotExpOptions::panel_precision).
  void weighted_apply_block_f(const Vector& x, const MatrixF& v, MatrixF& y,
                              BlockWorkspace& workspace) const;

  /// The same, reading the float value copies `values` built (by
  /// ensure_float_values) instead of its own; only the panel scratch comes
  /// from `workspace`. The slots of a panel-parallel round all read slot
  /// 0's copy, so a round holds one copy whatever its width.
  void weighted_apply_block_f(const Vector& x, const MatrixF& v, MatrixF& y,
                              BlockWorkspace& workspace,
                              const BlockWorkspace& values) const;

 private:
  /// The two-region sweep behind the three weighted applies: `project(i)`
  /// computes S_i for a nonzero weight and returns the constraint's row
  /// pass operands; `rows` is the psi_rows kernel of the precision.
  template <typename T, typename Project>
  void psi_sweep(const Vector& x, Index b, simd::PsiTerm<T>* terms,
                 const Project& project,
                 void (*rows)(const Index*, const simd::PsiSegment*,
                              const simd::PsiTerm<T>*, Index, Index, Index,
                              T*),
                 T* y) const;

  std::vector<FactorizedPsd> items_;
  Index dim_ = 0;
  Index total_nnz_ = 0;
  /// Row-segment index (see the class comment): row r's segments are
  /// segments_[row_segments_[r] .. row_segments_[r + 1]).
  std::vector<Index> row_segments_;
  std::vector<simd::PsiSegment> segments_;
  Index max_row_nnz_ = 0;  ///< max_r sum_i nnz(Q_i[r,:]), for the depth
};

}  // namespace psdp::sparse
