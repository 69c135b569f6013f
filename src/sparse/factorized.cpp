#include "sparse/factorized.hpp"

#include <cmath>

#include "linalg/eig.hpp"
#include "linalg/matfunc.hpp"
#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "simd/simd.hpp"

namespace psdp::sparse {

namespace {

/// Factor ranks above this skip the exact Gram eigenvalue and fall back to
/// the trace bound (the k x k eigensolve would cost O(k^3) at setup).
constexpr Index kGramEigMaxRank = 128;

/// Upper bound on lambda_max(Q Q^T) = lambda_max(Q^T Q); see
/// FactorizedPsd::lambda_max_bound.
Real factor_lambda_max_bound(const Csr& q) {
  const Real trace = q.frobenius_norm2();
  const Index k = q.cols();
  if (k > kGramEigMaxRank) return trace;
  Matrix gram(k, k);
  for (Index row = 0; row < q.rows(); ++row) {
    const auto cols = q.row_cols(row);
    const auto vals = q.row_vals(row);
    for (std::size_t a = 0; a < cols.size(); ++a) {
      for (std::size_t b = 0; b < cols.size(); ++b) {
        gram(cols[a], cols[b]) += vals[a] * vals[b];
      }
    }
  }
  const Real lmax = linalg::lambda_max_exact(gram) * (1 + 1e-9);
  return std::min(std::max<Real>(lmax, 0), trace);
}

/// The row step of the accumulate forms: y[r,:] += w (Q[r,:] s) over the
/// listed rows through a spmm_rows_accumulate kernel, work-gated over the
/// list (outputs are disjoint per row, so the chunking changes no bit).
/// Charges what Csr::apply_block charges for the SpMM it replaces.
template <typename T>
void accumulate_rows(const Csr& q, std::span<const Index> rows,
                     const T* values,
                     void (*kernel)(const Index*, const Index*, const T*,
                                    const Index*, Index, Index, Index, T,
                                    const T*, T*),
                     Index b, T w, const T* s, T* y) {
  const auto count = static_cast<Index>(rows.size());
  par::parallel_for_chunked(0, count, [&](Index kb, Index ke) {
    kernel(q.row_offsets().data(), q.col_indices().data(), values,
           rows.data(), kb, ke, b, w, s, y);
  }, par::work_grain(count, static_cast<Real>(b * (q.nnz() + count))));
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * q.nnz() * b));
  par::CostMeter::add_depth(par::reduction_depth(q.cols()));
}

}  // namespace

FactorizedPsd::FactorizedPsd(Csr q)
    : FactorizedPsd(std::move(q), TransposePlanOptions{}) {}

FactorizedPsd::FactorizedPsd(Csr q, const TransposePlanOptions& plan_options)
    : q_(std::move(q)) {
  PSDP_CHECK(q_.rows() >= 1, "factorized PSD: Q must have at least one row");
  // Tall factors get the cached CSC view: every Q^T application (two per
  // Taylor step on the sketched hot path) then runs the gather kernel
  // instead of the owned-column scatter.
  if (q_.rows() >=
      kTransposeIndexAspect * std::max<Index>(1, q_.cols())) {
    q_.build_transpose_index(plan_options);
  }
  lambda_bound_ = factor_lambda_max_bound(q_);
  const auto offsets = q_.row_offsets();
  for (Index r = 0; r < q_.rows(); ++r) {
    const auto at = static_cast<std::size_t>(r);
    if (offsets[at + 1] > offsets[at]) nonempty_rows_.push_back(r);
  }
}

FactorizedPsd FactorizedPsd::scaled(Real s) const {
  PSDP_CHECK(s >= 0 && std::isfinite(s),
             "factorized PSD: scale must be non-negative finite");
  FactorizedPsd out = *this;  // keeps the transpose index
  out.q_.scale(std::sqrt(s));
  // lambda_max(s Q Q^T) = s lambda_max(Q Q^T); the cached bound's 1e-9
  // inflation dwarfs the sqrt's rounding, so scaling the bound (instead of
  // re-running the Gram eigensolve per probe) stays sound.
  out.lambda_bound_ = lambda_bound_ * s;
  return out;
}

FactorizedPsd FactorizedPsd::rank_one(const Vector& v, Real drop_tol) {
  std::vector<Triplet> triplets;
  for (Index i = 0; i < v.size(); ++i) {
    if (std::abs(v[i]) > drop_tol) triplets.push_back({i, 0, v[i]});
  }
  return FactorizedPsd(Csr::from_triplets(v.size(), 1, std::move(triplets)));
}

FactorizedPsd FactorizedPsd::from_dense_psd(const Matrix& a, Real tol) {
  const linalg::EigResult eig = linalg::jacobi_eig(a);
  const Real lmax = std::max(eig.eigenvalues[0], Real{0});
  const Real cutoff = tol * std::max(lmax, Real{1});
  PSDP_CHECK(eig.eigenvalues[eig.eigenvalues.size() - 1] >= -cutoff,
             "from_dense_psd: matrix is not PSD");
  std::vector<Triplet> triplets;
  Index k = 0;
  for (Index c = 0; c < eig.eigenvalues.size(); ++c) {
    if (eig.eigenvalues[c] <= cutoff) continue;
    const Real s = std::sqrt(eig.eigenvalues[c]);
    for (Index r = 0; r < a.rows(); ++r) {
      const Real v = s * eig.eigenvectors(r, c);
      if (v != 0) triplets.push_back({r, k, v});
    }
    ++k;
  }
  if (k == 0) k = 1;  // zero matrix: keep a valid empty m x 1 factor
  return FactorizedPsd(Csr::from_triplets(a.rows(), k, std::move(triplets)));
}

void FactorizedPsd::apply(const Vector& x, Vector& y) const {
  Vector scratch(q_.cols());
  q_.apply_transpose(x, scratch);
  q_.apply(scratch, y);
}

void FactorizedPsd::accumulate(const Vector& x, Real w, Vector& y,
                               Vector& scratch) const {
  PSDP_CHECK(y.size() == dim(), "factorized accumulate: dimension mismatch");
  scratch.resize(q_.cols());
  q_.apply_transpose(x, scratch);
  accumulate_rows(q_, nonempty_rows_, q_.values().data(),
                  simd::active_kernels().spmm_rows_accumulate, 1, w,
                  scratch.data(), y.data());
}

void FactorizedPsd::accumulate_block(const Matrix& x, Real w, Matrix& y,
                                     Matrix& scratch,
                                     std::vector<Real>& partial,
                                     const KernelPlan* plan) const {
  PSDP_CHECK(y.rows() == dim() && y.cols() == x.cols(),
             "factorized accumulate_block: panel shape mismatch");
  q_.apply_transpose_block(x, scratch, partial, plan);
  accumulate_rows(q_, nonempty_rows_, q_.values().data(),
                  simd::active_kernels().spmm_rows_accumulate, x.cols(), w,
                  scratch.data(), y.data());
}

void FactorizedPsd::accumulate_block_f(const MatrixF& x, float w, MatrixF& y,
                                       MatrixF& scratch,
                                       std::span<const float> values_f,
                                       std::span<const float> t_values_f,
                                       std::vector<float>& partial) const {
  PSDP_CHECK(y.rows() == dim() && y.cols() == x.cols(),
             "factorized accumulate_block_f: panel shape mismatch");
  PSDP_CHECK(static_cast<Index>(values_f.size()) == nnz(),
             "factorized accumulate_block_f: float value copy out of date");
  q_.apply_transpose_block_f(x, scratch, values_f, t_values_f, partial);
  accumulate_rows(q_, nonempty_rows_, values_f.data(),
                  simd::active_kernels().spmm_rows_accumulate_f, x.cols(), w,
                  scratch.data(), y.data());
}

Real FactorizedPsd::dot_dense(const Matrix& s) const {
  PSDP_CHECK(s.rows() == dim() && s.cols() == dim(),
             "dot_dense: dimension mismatch");
  // (Q Q^T) . S = sum_c q_c^T S q_c over columns q_c of Q. Work it row-wise:
  // sum_{i,j} S_ij (Q Q^T)_ij done as sum_i <row_i(Q), t_i> where
  // t = S Q columnwise is O(m^2 k); for sparse Q iterate entries directly.
  Real acc = 0;
  for (Index i = 0; i < q_.rows(); ++i) {
    const auto ci = q_.row_cols(i);
    const auto vi = q_.row_vals(i);
    if (ci.empty()) continue;
    for (Index j = 0; j < q_.rows(); ++j) {
      const auto cj = q_.row_cols(j);
      const auto vj = q_.row_vals(j);
      if (cj.empty()) continue;
      // (Q Q^T)_{ij} = <row_i, row_j> via sorted-merge.
      Real qij = 0;
      std::size_t a = 0, b = 0;
      while (a < ci.size() && b < cj.size()) {
        if (ci[a] == cj[b]) {
          qij += vi[a] * vj[b];
          ++a;
          ++b;
        } else if (ci[a] < cj[b]) {
          ++a;
        } else {
          ++b;
        }
      }
      acc += qij * s(i, j);
    }
  }
  return acc;
}

Matrix FactorizedPsd::to_dense() const {
  const Matrix qd = q_.to_dense();
  Matrix result = linalg::gemm(qd, qd.transposed());
  result.symmetrize();
  return result;
}

FactorizedSet::FactorizedSet(std::vector<FactorizedPsd> items)
    : items_(std::move(items)) {
  PSDP_CHECK(!items_.empty(), "factorized set must be non-empty");
  dim_ = items_[0].dim();
  for (const auto& item : items_) {
    PSDP_CHECK(item.dim() == dim_, "factorized set: inconsistent dimensions");
    total_nnz_ += item.nnz();
  }
}

const FactorizedPsd& FactorizedSet::operator[](Index i) const {
  PSDP_CHECK(i >= 0 && i < size(), "factorized set: index out of range");
  return items_[static_cast<std::size_t>(i)];
}

Csr FactorizedSet::weighted_sum(const Vector& x) const {
  PSDP_CHECK(x.size() == size(), "weighted_sum: weight length mismatch");
  std::vector<Triplet> triplets;
  for (Index idx = 0; idx < size(); ++idx) {
    const Real w = x[idx];
    if (w == 0) continue;
    const Csr& q = items_[static_cast<std::size_t>(idx)].q();
    // Contribute w * Q Q^T entry-wise: for each pair of entries in the same
    // factor column. To stay near-linear we expand by factor column: column c
    // of Q contributes w * q_c q_c^T restricted to its nonzeros.
    // Gather columns once.
    std::vector<std::vector<std::pair<Index, Real>>> by_col(
        static_cast<std::size_t>(q.cols()));
    for (Index r = 0; r < q.rows(); ++r) {
      const auto cols = q.row_cols(r);
      const auto vals = q.row_vals(r);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        by_col[static_cast<std::size_t>(cols[k])].push_back({r, vals[k]});
      }
    }
    for (const auto& col : by_col) {
      for (const auto& [r1, v1] : col) {
        for (const auto& [r2, v2] : col) {
          triplets.push_back({r1, r2, w * v1 * v2});
        }
      }
    }
  }
  if (triplets.empty()) {
    return Csr::from_triplets(dim_, dim_, {});
  }
  return Csr::from_triplets(dim_, dim_, std::move(triplets));
}

void FactorizedSet::weighted_apply_block(const Vector& x, const Matrix& v,
                                         Matrix& y,
                                         BlockWorkspace& workspace) const {
  PSDP_CHECK(x.size() == size(), "weighted_apply_block: weight length mismatch");
  PSDP_CHECK(v.rows() == dim_, "weighted_apply_block: panel dimension mismatch");
  y.reshape(dim_, v.cols());
  y.fill(0);
  for (Index i = 0; i < size(); ++i) {
    if (x[i] == 0) continue;
    items_[static_cast<std::size_t>(i)].accumulate_block(
        v, x[i], y, workspace.scratch, workspace.transpose_partial,
        workspace.plan);
  }
}

void FactorizedSet::ensure_float_values(BlockWorkspace& workspace) const {
  if (static_cast<Index>(workspace.float_values.size()) < size()) {
    workspace.float_values.resize(static_cast<std::size_t>(size()));
  }
  for (Index i = 0; i < size(); ++i) {
    auto& fv = workspace.float_values[static_cast<std::size_t>(i)];
    if (!fv.built) {
      items_[static_cast<std::size_t>(i)].q().fill_float_values(fv.values,
                                                                fv.t_values);
      fv.built = true;
    }
  }
}

void FactorizedSet::weighted_apply_block_f(const Vector& x, const MatrixF& v,
                                           MatrixF& y,
                                           BlockWorkspace& workspace) const {
  PSDP_CHECK(x.size() == size(),
             "weighted_apply_block_f: weight length mismatch");
  PSDP_CHECK(v.rows() == dim_,
             "weighted_apply_block_f: panel dimension mismatch");
  ensure_float_values(workspace);
  y.reshape(dim_, v.cols());
  y.fill(0);
  for (Index i = 0; i < size(); ++i) {
    if (x[i] == 0) continue;
    const auto& fv = workspace.float_values[static_cast<std::size_t>(i)];
    // Weights stay double until the very last multiply: one rounding per
    // accumulated term, same as the float kernels themselves.
    items_[static_cast<std::size_t>(i)].accumulate_block_f(
        v, static_cast<float>(x[i]), y, workspace.scratch_f, fv.values,
        fv.t_values, workspace.transpose_partial_f);
  }
}

void FactorizedSet::weighted_apply(const Vector& x, const Vector& v,
                                   Vector& y) const {
  PSDP_CHECK(x.size() == size(), "weighted_apply: weight length mismatch");
  PSDP_CHECK(v.size() == dim_, "weighted_apply: vector length mismatch");
  if (y.size() != dim_) y = Vector(dim_);
  y.fill(0);
  Vector scratch;  // grows to the widest factor, then is reused
  for (Index i = 0; i < size(); ++i) {
    if (x[i] == 0) continue;
    items_[static_cast<std::size_t>(i)].accumulate(v, x[i], y, scratch);
  }
}

}  // namespace psdp::sparse
