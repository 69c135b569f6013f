// The oracle layer: one interface for the per-iteration primitive every
// solver variant consumes.
//
// Each iteration of Algorithm 3.1 and all its schedule variants needs the
// same quantities: the per-constraint penalties dots_i ~ W . A_i and the
// normalizer trace ~ Tr[W], where W = exp(Psi) and Psi = sum_i x_i A_i is
// determined by the current weight vector x. The codebase used to wire this
// four different ways (dense eigensolves inlined in decision/bucketed/mixed,
// hand-built psi_op/psi_block_op + bigDotExp plumbing duplicated in
// decision/phased, the scalar soft-max in poslp). PenaltyOracle is the
// single interface; its three implementations are the three evaluation
// strategies the paper's complexity story distinguishes:
//
//  * DenseEigOracle       -- exact exp(Psi) via the dense symmetric
//                            eigensolver (O(m^3) per refresh). Also exposes
//                            the dense W, so callers can accumulate primal
//                            averages, and computes exact lambda_max for the
//                            measured-tight rescalings.
//  * SketchedTaylorOracle -- the Theorem 4.1 pipeline (bigDotExp): a JL
//                            sketch pushed through the truncated-Taylor
//                            exponential of the implicit Psi operator.
//                            Nearly-linear work, never forms an m x m
//                            matrix, (1 +- dot_eps) multiplicative noise.
//                            Hands bigDotExp the weights; its set form
//                            applies the implicit Psi itself.
//  * ScalarSoftmaxOracle  -- the positive-LP diagonal fast path: on
//                            A_i = diag(P_{.,i}) the matrix exponential
//                            collapses to scalar soft-max weights,
//                            O(nnz(P)) per iteration, shift-stabilized
//                            against overflow.
//
// Solvers talk to the oracle through compute() -- penalties for the current
// x -- and lambda_max() -- a certified upper bound on
// lambda_max(sum_i w_i A_i) for an arbitrary non-negative weight vector,
// exact where the representation allows it. lambda_max() is the
// measured-certificate primitive: the tight dual rescaling, bucketed's
// width cap, and mixed's final packing rescale all go through it, which is
// what lets the bucketed and mixed variants run on the sketched oracle
// with certificates that are measured rather than assumed.
//
// The stateful implementations cache Psi and diff the incoming x against
// the last weights they saw, so incremental solver updates cost what they
// did when each solver maintained Psi by hand.
#pragma once

#include <cstdint>

#include "core/bigdotexp.hpp"
#include "core/instance.hpp"
#include "util/tunables.hpp"

namespace psdp::core {

/// One oracle evaluation: penalties, normalizer, and (where the
/// representation affords them) extras for certificates and diagnostics.
struct PenaltyBatch {
  Vector dots;  ///< dots_i ~ W . A_i (exact or sketched, see noise_bound)
  Real trace = 0;  ///< Tr[W], same scale and noise model as `dots`
  /// lambda_max(Psi) observed while evaluating: the top eigenvalue for the
  /// dense oracle, the soft-max shift max_j Psi_j for the scalar one, 0
  /// (unavailable) for the sketched pipeline.
  Real lambda_max_psi = 0;
  /// Dense W = exp(Psi) (DenseEigOracle only; valid until the next
  /// compute()). Callers use it to accumulate primal-average certificates.
  const Matrix* weight = nullptr;
  /// Scalar soft-max weights w (ScalarSoftmaxOracle only; valid until the
  /// next compute()).
  const Vector* weight_vec = nullptr;
};

/// The oracle interface. Implementations may be stateful (cached Psi,
/// reusable sketch workspaces) and are not copyable.
class PenaltyOracle {
 public:
  PenaltyOracle() = default;
  PenaltyOracle(const PenaltyOracle&) = delete;
  PenaltyOracle& operator=(const PenaltyOracle&) = delete;
  virtual ~PenaltyOracle() = default;

  virtual Index size() const = 0;  ///< n, number of constraints
  virtual Index dim() const = 0;   ///< ambient dimension (m, or l for LPs)
  virtual Real constraint_trace(Index i) const = 0;  ///< Tr[A_i]

  /// Evaluate penalties and trace for the weight vector x. `round` seeds
  /// the per-round sketch noise (ignored by the exact oracles); callers
  /// pass their iteration or phase counter so noise is independent across
  /// rounds, per the union bound.
  virtual void compute(const Vector& x, std::uint64_t round,
                       PenaltyBatch& out) = 0;

  /// Multiplicative noise bound of dots/trace: 0 for the exact oracles,
  /// dot_eps for the sketched one. Callers certify primal averages against
  /// (1 + noise_bound) so noise cannot fake a certificate.
  virtual Real noise_bound() const { return 0; }

  /// Certified upper bound on lambda_max(sum_i weights_i A_i): exact for
  /// the dense and scalar oracles, an inflated Lanczos Ritz bound for the
  /// sketched one. Dividing a weight vector by this value is always
  /// feasible -- the measured-certificate primitive.
  virtual Real lambda_max(const Vector& weights) = 0;
};

/// dots_i = A_i . W for a dense symmetric weight matrix W: the parallel
/// Frobenius sweep shared by the dense oracle and the width-dependent MMW
/// baseline (which dots against its own probability matrix).
void penalty_dots(const PackingInstance& instance, const Matrix& w,
                  Vector& dots);

/// Exact oracle over dense constraints.
class DenseEigOracle final : public PenaltyOracle {
 public:
  explicit DenseEigOracle(const PackingInstance& instance);

  Index size() const override { return instance_->size(); }
  Index dim() const override { return instance_->dim(); }
  Real constraint_trace(Index i) const override {
    return instance_->constraint_trace(i);
  }
  void compute(const Vector& x, std::uint64_t round,
               PenaltyBatch& out) override;
  Real lambda_max(const Vector& weights) override;

 private:
  /// Fold x - x_cache_ into the cached Psi (PSD terms only, no
  /// cancellation drift), exactly as the solvers used to do by hand.
  void sync(const Vector& x);

  const PackingInstance* instance_;
  Matrix psi_;      ///< sum_i x_cache_i A_i, maintained incrementally
  Vector x_cache_;  ///< weights Psi currently reflects
  Matrix w_;        ///< exp(Psi) of the last compute()
};

/// Knobs of the sketched oracle -- the single funnel through which every
/// factorized entry point (decision, phased, bucketed, mixed, optimize
/// probes) routes its eps / dot_eps / bigDotExp configuration.
struct SketchedOracleOptions {
  /// The solver's algorithm eps; defaults dot_eps to eps/2 when unset.
  Real eps = 0.1;
  /// Accuracy of the exp-dot estimates (0 = auto, eps/2). Also the oracle's
  /// noise_bound().
  Real dot_eps = 0;
  /// A-priori cap on the spectral-norm bound kappa handed to bigDotExp
  /// (Lemma 3.2's (1+10 eps)K for the decision solvers). 0 = none: only the
  /// tracked runtime bound min(Tr[Psi], sum_i x_i lambda_max(A_i)) -- which
  /// is what the bucketed/mixed variants (no Lemma 3.2 invariant) rely on.
  /// Defaulted from the tunable registry (`kappa_cap`, default 0).
  Real kappa_cap = util::tunable_kappa_cap();
  /// Sketch/Taylor/blocking knobs, including block_size. The seed is
  /// advanced per round via stream_seed.
  BigDotExpOptions dot_options;
  /// Caller-owned scratch shared across rounds (and, if the caller wants,
  /// across whole solves -- results are unaffected, every buffer is fully
  /// overwritten). nullptr = the oracle owns a private workspace.
  SolverWorkspace* workspace = nullptr;
};

/// Nearly-linear-work oracle over prefactored constraints (Theorem 4.1).
///
/// Stateful across rounds: the oracle diffs each incoming x against the
/// weights of the previous round (its x-copy doubles as the diff cache), so
/// the runtime spectral bounds -- Tr[Psi] and the tracked
/// sum_i x_i lambda_max(A_i) upper bound on lambda_max(Psi) -- are updated
/// incrementally instead of recomputed from scratch, and the bound pair is
/// periodically rebased to cancel float drift. The Taylor degree uses
/// kappa = min(kappa_cap, Tr[Psi], tracked lambda bound): the tracked bound
/// is clamped by Tr[Psi] so it can never be looser than the trace-only
/// bound, and it is sound (x >= 0 and the triangle inequality give
/// lambda_max(sum x_i A_i) <= sum x_i lambda_max(A_i)). On spiked spectra
/// (lambda_max << Tr) this tightens bucketed_factorized's Taylor degree
/// substantially. All sketch scratch lives in a SolverWorkspace (owned, or
/// borrowed via SketchedOracleOptions::workspace), so steady-state rounds
/// perform no heap allocations after warmup.
class SketchedTaylorOracle final : public PenaltyOracle {
 public:
  SketchedTaylorOracle(const FactorizedPackingInstance& instance,
                       const SketchedOracleOptions& options);

  Index size() const override { return instance_->size(); }
  Index dim() const override { return instance_->dim(); }
  Real constraint_trace(Index i) const override {
    return instance_->constraint_trace(i);
  }
  void compute(const Vector& x, std::uint64_t round,
               PenaltyBatch& out) override;
  Real noise_bound() const override { return dot_eps_; }
  Real lambda_max(const Vector& weights) override;

  /// Incrementally tracked Tr[Psi] = sum_i x_i Tr[A_i] at the last
  /// compute()'s weights (tests compare it against a from-scratch sum).
  Real tracked_trace() const { return trace_psi_; }
  /// Incrementally tracked sum_i x_i lambda_max(A_i) >= lambda_max(Psi).
  Real tracked_lambda_bound() const { return lambda_bound_; }
  /// Per-constraint lambda_max(A_i) upper bound used by the tracked bound
  /// (the factor's cached Gram eigenvalue, see
  /// FactorizedPsd::lambda_max_bound).
  Real constraint_lambda_max(Index i) const;
  /// Taylor degree of the last compute() (diagnostics; tests assert the
  /// spiked-spectrum tightening).
  Index last_taylor_degree() const { return result_.taylor_degree; }

 private:
  /// Fold x - x_work_ into the tracked bounds and cache x in x_work_.
  void sync_bounds(const Vector& x);

  const FactorizedPackingInstance* instance_;
  BigDotExpOptions dot_options_;
  Real dot_eps_ = 0;
  Real kappa_cap_ = 0;
  /// The weights big_dot_exp applies Psi at; doubles as the diff cache of
  /// the incremental bounds (it always holds the last synced weights).
  Vector x_work_;
  Real trace_psi_ = 0;     ///< tracked Tr[Psi]
  Real lambda_bound_ = 0;  ///< tracked sum_i x_i lambda_max(A_i)
  /// Absolute trace-term mass folded in since the last rebase (the
  /// cancellation guard's measure of churn).
  Real bound_flux_ = 0;
  Index rounds_since_rebase_ = 0;
  /// Rebase cadence + cancellation-guard ratio of the incremental bounds,
  /// snapshotted from the tunable registry (`rebase_interval`,
  /// `bound_flux_ratio`) at construction so one solve never mixes cadences
  /// mid-trajectory even if the registry changes under it.
  Index rebase_interval_ = 64;
  Real bound_flux_ratio_ = 8;
  /// Sketch/Taylor scratch recycled across rounds; external when the caller
  /// provided SketchedOracleOptions::workspace.
  SolverWorkspace own_workspace_;
  SolverWorkspace* workspace_ = nullptr;
  /// Persistent result (dots storage swaps with the caller's batch).
  BigDotExpResult result_;
};

/// Exact scalar oracle for positive LPs: A_i = diag(P_{.,i}) collapses the
/// exponential to soft-max weights over the rows of P.
class ScalarSoftmaxOracle final : public PenaltyOracle {
 public:
  /// P is l x n, non-negative with no zero column (PackingLp invariants);
  /// the caller keeps it alive.
  explicit ScalarSoftmaxOracle(const Matrix& p);

  Index size() const override { return p_->cols(); }
  Index dim() const override { return p_->rows(); }
  Real constraint_trace(Index i) const override {
    return column_sums_[static_cast<std::size_t>(i)];
  }
  void compute(const Vector& x, std::uint64_t round,
               PenaltyBatch& out) override;
  /// max_j (P weights)_j -- the exact scalar lambda_max.
  Real lambda_max(const Vector& weights) override;

 private:
  void sync(const Vector& x);

  const Matrix* p_;
  std::vector<Real> column_sums_;
  Vector psi_;      ///< P x_cache_, maintained incrementally
  Vector x_cache_;
  Vector w_;        ///< shifted soft-max weights of the last compute()
};

}  // namespace psdp::core
