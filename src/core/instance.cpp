#include "core/instance.hpp"

#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/matfunc.hpp"

namespace psdp::core {

PackingInstance::PackingInstance(std::vector<Matrix> constraints)
    : constraints_(std::move(constraints)) {
  PSDP_CHECK(!constraints_.empty(), "packing instance must have constraints");
  dim_ = constraints_[0].rows();
  traces_.reserve(constraints_.size());
  for (const Matrix& a : constraints_) {
    PSDP_CHECK(a.rows() == dim_ && a.cols() == dim_,
               "packing instance: inconsistent constraint dimensions");
    traces_.push_back(linalg::trace(a));
  }
}

const Matrix& PackingInstance::operator[](Index i) const {
  PSDP_CHECK(i >= 0 && i < size(), "packing instance: index out of range");
  return constraints_[static_cast<std::size_t>(i)];
}

Real PackingInstance::constraint_trace(Index i) const {
  PSDP_CHECK(i >= 0 && i < size(), "packing instance: index out of range");
  return traces_[static_cast<std::size_t>(i)];
}

PackingInstance PackingInstance::scaled(Real s) const {
  PSDP_CHECK(s > 0, "packing scale must be positive");
  std::vector<Matrix> scaled = constraints_;
  for (Matrix& a : scaled) a.scale(s);
  return PackingInstance(std::move(scaled));
}

void PackingInstance::validate(bool check_psd) const {
  for (Index i = 0; i < size(); ++i) {
    const Matrix& a = (*this)[i];
    PSDP_CHECK(linalg::all_finite(a),
               str("constraint ", i, " has non-finite entries"));
    PSDP_CHECK(linalg::is_symmetric(a, 1e-8),
               str("constraint ", i, " is not symmetric"));
    PSDP_CHECK(constraint_trace(i) > 0,
               str("constraint ", i, " is zero (trace 0); drop it instead"));
    if (check_psd) {
      PSDP_CHECK(linalg::is_psd(a, 1e-8),
                 str("constraint ", i, " is not positive semidefinite"));
    }
  }
}

FactorizedPackingInstance::FactorizedPackingInstance(
    sparse::FactorizedSet constraints)
    : FactorizedPackingInstance(
          sparse::ShardedFactorizedSet(std::move(constraints))) {}

FactorizedPackingInstance::FactorizedPackingInstance(
    sparse::FactorizedSet constraints, Index shards)
    : FactorizedPackingInstance(sparse::ShardedFactorizedSet(
          std::move(constraints), shards)) {}

FactorizedPackingInstance::FactorizedPackingInstance(
    sparse::ShardedFactorizedSet constraints)
    : sharded_(std::move(constraints)) {
  traces_.reserve(static_cast<std::size_t>(sharded_.size()));
  for (Index i = 0; i < sharded_.size(); ++i) {
    traces_.push_back(sharded_[i].trace());
    PSDP_CHECK(traces_.back() > 0,
               str("factorized constraint ", i, " is zero; drop it instead"));
  }
}

Real FactorizedPackingInstance::constraint_trace(Index i) const {
  PSDP_CHECK(i >= 0 && i < size(), "factorized instance: index out of range");
  return traces_[static_cast<std::size_t>(i)];
}

FactorizedPackingInstance FactorizedPackingInstance::scaled(Real s) const {
  PSDP_CHECK(s > 0, "packing scale must be positive");
  // FactorizedPsd::scaled (inside ShardedFactorizedSet::scaled) carries the
  // cached transpose index and lambda_max bound along, so a binary search's
  // per-probe rescale does not re-run the per-factor setup; the shard
  // boundaries travel too.
  return FactorizedPackingInstance(sharded_.scaled(s));
}

PackingInstance FactorizedPackingInstance::to_dense() const {
  std::vector<Matrix> constraints;
  constraints.reserve(static_cast<std::size_t>(size()));
  for (Index i = 0; i < size(); ++i) {
    constraints.push_back(sharded_[i].to_dense());
  }
  return PackingInstance(std::move(constraints));
}

void CoveringProblem::validate(bool check_psd) const {
  PSDP_CHECK(objective.square(), "covering: objective must be square");
  PSDP_CHECK(!constraints.empty(), "covering: no constraints");
  PSDP_CHECK(rhs.size() == size(), "covering: rhs length mismatch");
  PSDP_CHECK(linalg::is_symmetric(objective, 1e-8),
             "covering: objective is not symmetric");
  for (Index i = 0; i < size(); ++i) {
    const Matrix& a = constraints[static_cast<std::size_t>(i)];
    PSDP_CHECK(a.rows() == dim() && a.cols() == dim(),
               str("covering: constraint ", i, " dimension mismatch"));
    PSDP_CHECK(linalg::is_symmetric(a, 1e-8),
               str("covering: constraint ", i, " is not symmetric"));
    PSDP_CHECK(rhs[i] >= 0, str("covering: b_", i, " is negative"));
    if (check_psd) {
      PSDP_CHECK(linalg::is_psd(a, 1e-8),
                 str("covering: constraint ", i, " is not PSD"));
    }
  }
  if (check_psd) {
    PSDP_CHECK(linalg::is_psd(objective, 1e-8),
               "covering: objective is not PSD");
  }
}

NormalizedProblem normalize(const CoveringProblem& problem, Real rank_tol) {
  problem.validate(/*check_psd=*/true);
  NormalizedProblem result;
  result.c_inv_sqrt = linalg::inv_sqrt_psd(problem.objective, rank_tol);

  // Support check: a constraint with mass outside range(C) has an
  // unbounded-toward-zero dual variable; the paper assumes it away, we
  // detect it. A_i lives on the support of C iff projecting A_i onto the
  // null space of C leaves nothing: || A_i - P A_i P ||_F ~ 0 where
  // P = C^{1/2} C^{-1/2} is the support projector.
  const Matrix support =
      linalg::gemm(linalg::sqrt_psd(problem.objective, rank_tol),
                   result.c_inv_sqrt);

  std::vector<Matrix> packing;
  for (Index i = 0; i < problem.size(); ++i) {
    if (problem.rhs[i] == 0) continue;  // trivially satisfied, drop
    const Matrix& a = problem.constraints[static_cast<std::size_t>(i)];
    const Matrix projected =
        linalg::gemm(support, linalg::gemm(a, support));
    const Real fro = linalg::frobenius_norm(a);
    PSDP_CHECK(
        linalg::max_abs_diff(projected, a) <=
            1e-6 * std::max(fro, Real{1}),
        str("constraint ", i,
            " is not supported on the objective C; its dual variable is 0 "
            "and it must be removed (paper Appendix A assumption)"));
    Matrix b = linalg::gemm(result.c_inv_sqrt,
                            linalg::gemm(a, result.c_inv_sqrt));
    b.symmetrize();
    b.scale(1 / problem.rhs[i]);
    packing.push_back(std::move(b));
    result.kept.push_back(i);
  }
  PSDP_CHECK(!packing.empty(),
             "normalize: all constraints dropped (all b_i are zero)");
  result.packing = PackingInstance(std::move(packing));
  return result;
}

Matrix denormalize_primal(const NormalizedProblem& normalized,
                          const Matrix& z) {
  Matrix y = linalg::gemm(normalized.c_inv_sqrt,
                          linalg::gemm(z, normalized.c_inv_sqrt));
  y.symmetrize();
  return y;
}

TraceBoundResult bound_traces(const PackingInstance& instance,
                              Real cap_factor) {
  const Index n = instance.size();
  if (cap_factor <= 0) {
    cap_factor = static_cast<Real>(n) * static_cast<Real>(n) *
                 static_cast<Real>(n);
  }
  Real min_trace = instance.constraint_trace(0);
  for (Index i = 1; i < n; ++i) {
    min_trace = std::min(min_trace, instance.constraint_trace(i));
  }
  const Real cap = cap_factor * min_trace;

  TraceBoundResult result;
  std::vector<Matrix> kept;
  for (Index i = 0; i < n; ++i) {
    if (instance.constraint_trace(i) <= cap) {
      kept.push_back(instance[i]);
      result.kept.push_back(i);
    } else {
      ++result.dropped;
    }
  }
  PSDP_ASSERT(!kept.empty());  // the min-trace constraint always survives
  result.instance = PackingInstance(std::move(kept));
  return result;
}

}  // namespace psdp::core
