// Problem types for positive semidefinite programming.
//
// The library works with three representations:
//
//  * CoveringProblem -- the paper's primal standard form (1.1):
//        min C . Y   s.t.  A_i . Y >= b_i,  Y >= 0
//    with C, A_i symmetric PSD and b_i >= 0.
//
//  * PackingInstance -- the normalized dual form of Figure 2:
//        max 1^T x   s.t.  sum_i x_i A_i <= I,  x >= 0
//    stored as dense symmetric PSD matrices. This is what decisionPSDP
//    consumes after the Appendix-A normalization.
//
//  * FactorizedPackingInstance -- the same packing program with each
//    A_i = Q_i Q_i^T given prefactored (Theorem 4.1 / Corollary 1.2 input
//    format); the nearly-linear-work solver path.
//
// normalize() implements Appendix A: B_i = C^{-1/2} A_i C^{-1/2} / b_i,
// which turns (1.1) into the normalized pair without changing the optimum.
// bound_traces() implements the Lemma 2.2 preprocessing that caps
// Tr[A_i] <= O(n^3) by dropping negligible coordinates.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "sparse/factorized.hpp"
#include "sparse/sharded.hpp"

namespace psdp::core {

using linalg::Matrix;
using linalg::Vector;

/// Normalized packing instance over dense symmetric PSD matrices.
class PackingInstance {
 public:
  PackingInstance() = default;
  explicit PackingInstance(std::vector<Matrix> constraints);

  Index size() const { return static_cast<Index>(constraints_.size()); }
  Index dim() const { return dim_; }

  const Matrix& operator[](Index i) const;
  const std::vector<Matrix>& constraints() const { return constraints_; }

  /// Tr[A_i], cached at construction (the starting point x_i = 1/(n Tr A_i)
  /// and the Lemma 2.2 preprocessing both need it).
  Real constraint_trace(Index i) const;

  /// Returns a copy with every constraint scaled by s (the binary-search
  /// probe "is OPT >= 1/s").
  PackingInstance scaled(Real s) const;

  /// Throws InvalidArgument unless every constraint is symmetric, finite and
  /// (if check_psd) positive semidefinite, and no constraint is zero.
  void validate(bool check_psd = true) const;

 private:
  std::vector<Matrix> constraints_;
  std::vector<Real> traces_;
  Index dim_ = 0;
};

/// Normalized packing instance in factorized form. Always carries a shard
/// partition of its constraints (sparse::ShardedFactorizedSet); the
/// single-shard default is the unsharded legacy path, bit-identical to the
/// pre-sharding library. Solvers reach the sharding through the oracle
/// seam -- SketchedTaylorOracle reads sharded() and engages the per-shard
/// deterministic sweeps when shard_count() > 1.
class FactorizedPackingInstance {
 public:
  FactorizedPackingInstance() = default;
  /// Single-shard wrap (the legacy constructor every existing call site
  /// uses; nothing about the set changes).
  explicit FactorizedPackingInstance(sparse::FactorizedSet constraints);
  /// Partition into `shards` nnz-balanced constraint shards (see
  /// ShardedFactorizedSet; shards > 1 forces transpose indexes for the
  /// determinism contract).
  FactorizedPackingInstance(sparse::FactorizedSet constraints, Index shards);
  /// Adopt an already-partitioned set (the chunked loader's path).
  explicit FactorizedPackingInstance(sparse::ShardedFactorizedSet constraints);

  Index size() const { return sharded_.size(); }
  Index dim() const { return sharded_.dim(); }
  Index total_nnz() const { return sharded_.total_nnz(); }

  const sparse::FactorizedSet& set() const { return sharded_.set(); }
  const sparse::ShardedFactorizedSet& sharded() const { return sharded_; }
  Index shard_count() const { return sharded_.shard_count(); }
  const sparse::FactorizedPsd& operator[](Index i) const {
    return sharded_[i];
  }

  Real constraint_trace(Index i) const;

  /// Copy with every A_i scaled by s (factors scaled by sqrt(s)); s >= 0.
  /// Shard boundaries travel with the copy.
  FactorizedPackingInstance scaled(Real s) const;

  /// Densify (small instances / tests).
  PackingInstance to_dense() const;

 private:
  sparse::ShardedFactorizedSet sharded_;
  std::vector<Real> traces_;
};

/// The paper's primal standard form (1.1).
struct CoveringProblem {
  Matrix objective;                 ///< C (symmetric PSD)
  std::vector<Matrix> constraints;  ///< A_i (symmetric PSD)
  Vector rhs;                       ///< b_i >= 0

  Index size() const { return static_cast<Index>(constraints.size()); }
  Index dim() const { return objective.rows(); }

  /// Structural validation (dimensions, symmetry, b >= 0, optional PSD).
  void validate(bool check_psd = true) const;
};

/// Result of the Appendix-A normalization.
struct NormalizedProblem {
  PackingInstance packing;  ///< B_i = C^{-1/2} A_i C^{-1/2} / b_i
  Matrix c_inv_sqrt;        ///< C^{-1/2} (pseudo-inverse on the support of C)
  std::vector<Index> kept;  ///< original constraint index per packing index
};

/// Appendix A: dividing through by C. Constraints with b_i = 0 are dropped
/// (they are satisfied by any Y >= 0); constraints not supported on C make
/// the primal infeasible in an inessential way and are rejected per the
/// paper's w.l.o.g. assumption (their dual variable would be 0).
NormalizedProblem normalize(const CoveringProblem& problem,
                            Real rank_tol = 1e-10);

/// Map a normalized-primal solution Z back to the original problem:
/// Y = C^{-1/2} Z C^{-1/2} (so C . Y = Tr Z and A_i . Y = b_i (B_i . Z)).
Matrix denormalize_primal(const NormalizedProblem& normalized, const Matrix& z);

/// Result of the Lemma 2.2 trace-bounding preprocessing.
struct TraceBoundResult {
  PackingInstance instance;  ///< surviving constraints
  std::vector<Index> kept;   ///< original index per surviving constraint
  Index dropped = 0;
};

/// Lemma 2.2: in a decision instance with threshold 1, coordinates with
/// Tr[A_i] >= n^3 * min_trace can contribute at most an eps fraction to the
/// optimum; dropping them changes the answer by o(eps). `cap_factor`
/// defaults to the paper's n^3.
TraceBoundResult bound_traces(const PackingInstance& instance,
                              Real cap_factor = -1);

}  // namespace psdp::core
