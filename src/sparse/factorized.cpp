#include "sparse/factorized.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

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

}  // namespace

FactorizedPsd::FactorizedPsd(Csr q) : q_(std::move(q)) {
  PSDP_CHECK(q_.rows() >= 1, "factorized PSD: Q must have at least one row");
  // Every Q^T application (two per Taylor step on the sketched hot path)
  // runs a CSC gather over the cached index.
  q_.build_transpose_index();
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
  PSDP_CHECK(size() <= std::numeric_limits<std::uint32_t>::max(),
             "factorized set: more constraints than the row index holds");
  dim_ = items_[0].dim();
  for (const auto& item : items_) {
    PSDP_CHECK(item.dim() == dim_, "factorized set: inconsistent dimensions");
    PSDP_CHECK(item.nnz() <= std::numeric_limits<std::uint32_t>::max(),
               "factorized set: a factor has more nonzeros than the row "
               "index holds");
    total_nnz_ += item.nnz();
  }
  // The row-segment index: count each row's segments, prefix-sum, then
  // fill constraint by constraint, so every row lists its constraints in
  // ascending order.
  row_segments_.assign(static_cast<std::size_t>(dim_) + 1, 0);
  for (const auto& item : items_) {
    for (const Index r : item.nonempty_rows()) {
      ++row_segments_[static_cast<std::size_t>(r) + 1];
    }
  }
  for (Index r = 0; r < dim_; ++r) {
    row_segments_[static_cast<std::size_t>(r) + 1] +=
        row_segments_[static_cast<std::size_t>(r)];
  }
  segments_.resize(static_cast<std::size_t>(row_segments_.back()));
  std::vector<Index> cursor(row_segments_.begin(), row_segments_.end() - 1);
  for (Index i = 0; i < size(); ++i) {
    const FactorizedPsd& item = items_[static_cast<std::size_t>(i)];
    const auto offsets = item.q().row_offsets();
    for (const Index r : item.nonempty_rows()) {
      const auto at = static_cast<std::size_t>(r);
      segments_[static_cast<std::size_t>(cursor[at]++)] = {
          static_cast<std::uint32_t>(i),
          static_cast<std::uint32_t>(offsets[at]),
          static_cast<std::uint32_t>(offsets[at + 1])};
    }
  }
  for (Index r = 0; r < dim_; ++r) {
    Index row_nnz = 0;
    for (Index k = row_segments_[static_cast<std::size_t>(r)];
         k < row_segments_[static_cast<std::size_t>(r) + 1]; ++k) {
      const simd::PsiSegment& seg = segments_[static_cast<std::size_t>(k)];
      row_nnz += static_cast<Index>(seg.end - seg.begin);
    }
    max_row_nnz_ = std::max(max_row_nnz_, row_nnz);
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

template <typename T, typename Project>
void FactorizedSet::psi_sweep(
    const Vector& x, Index b, simd::PsiTerm<T>* terms, const Project& project,
    void (*rows)(const Index*, const simd::PsiSegment*,
                 const simd::PsiTerm<T>*, Index, Index, Index, T*),
    T* y) const {
  {
    // Phase 1, one region over constraints. The transposes charge their
    // own work; their depth is charged once below, not per factor by
    // whichever thread happened to run it.
    par::CostMeter::ScopedDepthMute mute;
    par::parallel_for(0, size(), [&](Index i) {
      terms[i] = x[i] == 0 ? simd::PsiTerm<T>{} : project(i);
    }, par::work_grain(size(), static_cast<Real>(b * total_nnz_)));
  }
  // Phase 2, one region over output rows; the outputs are disjoint per
  // row, so the chunking changes no bit.
  par::parallel_for_chunked(0, dim_, [&](Index rb, Index re) {
    rows(row_segments_.data(), segments_.data(), terms, rb, re, b, y);
  }, par::work_grain(dim_, static_cast<Real>(b * (total_nnz_ + dim_))));
  Index active_nnz = 0;
  for (Index i = 0; i < size(); ++i) {
    if (x[i] != 0) active_nnz += items_[static_cast<std::size_t>(i)].nnz();
  }
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * active_nnz * b));
  par::CostMeter::add_depth(par::reduction_depth(dim_) +
                            par::reduction_depth(max_row_nnz_));
}

void FactorizedSet::weighted_apply_block(const Vector& x, const Matrix& v,
                                         Matrix& y,
                                         BlockWorkspace& workspace) const {
  PSDP_CHECK(x.size() == size(), "weighted_apply_block: weight length mismatch");
  PSDP_CHECK(v.rows() == dim_, "weighted_apply_block: panel dimension mismatch");
  const Index b = v.cols();
  const auto n = static_cast<std::size_t>(size());
  if (workspace.blocks.size() < n) workspace.blocks.resize(n);
  if (workspace.terms.size() < n) workspace.terms.resize(n);
  y.reshape(dim_, b);
  psi_sweep<Real>(x, b, workspace.terms.data(), [&](Index i) {
    const auto at = static_cast<std::size_t>(i);
    const Csr& q = items_[at].q();
    Matrix& s = workspace.blocks[at];
    q.apply_transpose_block(v, s);
    return simd::PsiTerm<Real>{q.col_indices().data(), q.values().data(),
                               s.data(), x[i]};
  }, simd::active_kernels().psi_rows, y.data());
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
  const Index b = v.cols();
  const auto n = static_cast<std::size_t>(size());
  if (workspace.blocks_f.size() < n) workspace.blocks_f.resize(n);
  if (workspace.terms_f.size() < n) workspace.terms_f.resize(n);
  y.reshape(dim_, b);
  psi_sweep<float>(x, b, workspace.terms_f.data(), [&](Index i) {
    const auto at = static_cast<std::size_t>(i);
    const Csr& q = items_[at].q();
    const auto& fv = workspace.float_values[at];
    PSDP_CHECK(static_cast<Index>(fv.values.size()) == q.nnz(),
               "weighted_apply_block_f: float value copy out of date");
    MatrixF& s = workspace.blocks_f[at];
    q.apply_transpose_block_f(v, s, fv.t_values);
    // Weights stay double until this one rounding to float: one rounding
    // per accumulated term, same as the float kernels themselves.
    return simd::PsiTerm<float>{q.col_indices().data(), fv.values.data(),
                                s.data(), static_cast<float>(x[i])};
  }, simd::active_kernels().psi_rows_f, y.data());
}

void FactorizedSet::weighted_apply(const Vector& x, const Vector& v,
                                   Vector& y) const {
  PSDP_CHECK(x.size() == size(), "weighted_apply: weight length mismatch");
  PSDP_CHECK(v.size() == dim_, "weighted_apply: vector length mismatch");
  if (y.size() != dim_) y = Vector(dim_);
  const auto n = static_cast<std::size_t>(size());
  std::vector<Vector> blocks(n);
  std::vector<simd::PsiTerm<Real>> terms(n);
  psi_sweep<Real>(x, 1, terms.data(), [&](Index i) {
    const auto at = static_cast<std::size_t>(i);
    const Csr& q = items_[at].q();
    q.apply_transpose(v, blocks[at]);
    return simd::PsiTerm<Real>{q.col_indices().data(), q.values().data(),
                               blocks[at].data(), x[i]};
  }, simd::active_kernels().psi_rows, y.data());
}

}  // namespace psdp::sparse
