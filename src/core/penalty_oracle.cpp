#include "core/penalty_oracle.hpp"

#include <cmath>
#include <utility>

#include "linalg/eig.hpp"
#include "linalg/expm.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/tridiag_eig.hpp"
#include "par/parallel.hpp"
#include "rand/rng.hpp"
#include "util/log.hpp"

namespace psdp::core {

void penalty_dots(const PackingInstance& instance, const Matrix& w,
                  Vector& dots) {
  // Work-gated: each constraint is one m x m Frobenius dot.
  const Index m = instance.dim();
  par::parallel_for(0, instance.size(), [&](Index i) {
    dots[i] = linalg::frobenius_dot(instance[i], w);
  }, par::work_grain(instance.size(),
                     static_cast<Real>(instance.size() * m * m)));
}

// ------------------------------------------------------------------ dense --

DenseEigOracle::DenseEigOracle(const PackingInstance& instance)
    : instance_(&instance),
      psi_(instance.dim(), instance.dim()),
      x_cache_(instance.size()) {}

void DenseEigOracle::sync(const Vector& x) {
  PSDP_CHECK(x.size() == size(), "DenseEigOracle: weight size mismatch");
  for (Index i = 0; i < size(); ++i) {
    const Real delta = x[i] - x_cache_[i];
    if (delta != 0) psi_.add_scaled((*instance_)[i], delta);
  }
  x_cache_ = x;
}

void DenseEigOracle::compute(const Vector& x, std::uint64_t /*round*/,
                             PenaltyBatch& out) {
  sync(x);
  const linalg::EigResult eig = linalg::sym_eig(psi_);
  w_ = linalg::expm_from_eig(eig);
  out.trace = linalg::trace(w_);
  out.lambda_max_psi = eig.eigenvalues[0];
  if (out.dots.size() != size()) out.dots = Vector(size());
  penalty_dots(*instance_, w_, out.dots);
  out.weight = &w_;
  out.weight_vec = nullptr;
}

Real DenseEigOracle::lambda_max(const Vector& weights) {
  PSDP_CHECK(weights.size() == size(),
             "DenseEigOracle: weight size mismatch");
  // The common call is at the oracle's own (monotonically grown) weight
  // trajectory -- the solve epilogues. There a copy of the cached Psi
  // needs only PSD-term top-ups, far cheaper than a fresh O(n m^2)
  // assembly. The cache itself is never repointed here (a probe vector
  // like bucketed's width step must not rebase it -- the way back would
  // be cancelling subtractions); any shrinking coordinate falls through
  // to the scratch build.
  bool forward = true;
  for (Index i = 0; i < size(); ++i) {
    if (weights[i] < x_cache_[i]) {
      forward = false;
      break;
    }
  }
  if (forward) {
    Matrix sum = psi_;
    for (Index i = 0; i < size(); ++i) {
      const Real delta = weights[i] - x_cache_[i];
      if (delta != 0) sum.add_scaled((*instance_)[i], delta);
    }
    return linalg::lambda_max_exact(sum);
  }
  Matrix sum(dim(), dim());
  for (Index i = 0; i < size(); ++i) {
    if (weights[i] != 0) sum.add_scaled((*instance_)[i], weights[i]);
  }
  return linalg::lambda_max_exact(sum);
}

// --------------------------------------------------------------- sketched --

// Rebase cadence of the incremental bounds: a from-scratch O(n) recompute
// every rebase_interval_ rounds caps float drift without showing up in the
// per-round cost. bound_flux_ratio_ is the cancellation guard: rebase early
// once the absolute delta mass folded in since the last rebase exceeds this
// many times the current sum. At the defaults (64, 8) the rounding residue
// is bounded by (rounds x eps x flux) <= 64 * 2.2e-16 * 8 * trace
// ~ 1.1e-13 * trace, so the tracked values honor the documented 1e-12
// agreement with from-scratch sums even on adversarial grow-then-collapse
// trajectories. Monotone trajectories keep flux == trace (ratio 1) and
// never trigger early; when the guard does fire, the rebase is only the
// O(n) sum the pre-incremental oracle paid every round. Both knobs come
// from the tunable registry (`rebase_interval`, `bound_flux_ratio`),
// snapshotted at construction.

SketchedTaylorOracle::SketchedTaylorOracle(
    const FactorizedPackingInstance& instance,
    const SketchedOracleOptions& options)
    : instance_(&instance),
      dot_options_(options.dot_options),
      dot_eps_(options.dot_eps > 0 ? options.dot_eps : options.eps / 2),
      kappa_cap_(options.kappa_cap),
      x_work_(instance.size()),
      rebase_interval_(util::tunable_rebase_interval()),
      bound_flux_ratio_(util::tunable_bound_flux_ratio()),
      workspace_(options.workspace != nullptr ? options.workspace
                                              : &own_workspace_) {
  PSDP_CHECK(dot_eps_ > 0 && dot_eps_ < 1,
             "SketchedTaylorOracle: dot_eps must lie in (0,1)");
  dot_options_.eps = dot_eps_;
}

Real SketchedTaylorOracle::constraint_lambda_max(Index i) const {
  PSDP_CHECK(i >= 0 && i < size(),
             "SketchedTaylorOracle: constraint index out of range");
  return (*instance_)[i].lambda_max_bound();
}

void SketchedTaylorOracle::sync_bounds(const Vector& x) {
  // Diff against the previous round's weights (x_work_ doubles as the
  // cache): only changed coordinates touch the tracked sums, and shrinking
  // or zeroed entries subtract exactly what they once added.
  for (Index i = 0; i < size(); ++i) {
    const Real delta = x[i] - x_work_[i];
    if (delta != 0) {
      const Real trace_term = delta * instance_->constraint_trace(i);
      trace_psi_ += trace_term;
      bound_flux_ += std::abs(trace_term);
      lambda_bound_ += delta * (*instance_)[i].lambda_max_bound();
      x_work_[i] = x[i];
    }
  }
  // Rebase -- periodically, on sign artifacts, and whenever cancellation
  // has churned far more mass through the sums than they currently hold: a
  // from-scratch sum pins the incremental values back onto the exact ones,
  // so drift never accumulates past a few rounds' worth of rounding.
  if (++rounds_since_rebase_ >= rebase_interval_ || trace_psi_ < 0 ||
      lambda_bound_ < 0 || bound_flux_ > bound_flux_ratio_ * trace_psi_) {
    // Two fixed-piece folds: the bits never depend on K or the thread
    // count.
    trace_psi_ = par::parallel_sum(0, size(), [&](Index i) {
      return x_work_[i] * instance_->constraint_trace(i);
    });
    lambda_bound_ = par::parallel_sum(0, size(), [&](Index i) {
      return x_work_[i] * (*instance_)[i].lambda_max_bound();
    });
    bound_flux_ = trace_psi_;
    rounds_since_rebase_ = 0;
  }
}

void SketchedTaylorOracle::compute(const Vector& x, std::uint64_t round,
                                   PenaltyBatch& out) {
  PSDP_CHECK(x.size() == size(),
             "SketchedTaylorOracle: weight size mismatch");
  sync_bounds(x);
  // kappa: the caller's a-priori cap (Lemma 3.2 for the decision solvers --
  // exactly why the iteration is width-independent) against the tracked
  // runtime bound min(Tr[Psi], sum_i x_i lambda_max(A_i)). The min is the
  // clamp guaranteeing the tracked-lambda path is never looser than the
  // always-sound trace bound; both dominate lambda_max(Psi), so Lemma 4.2's
  // degree stays sufficient.
  const Real kappa_runtime =
      std::max<Real>(0, std::min(trace_psi_, lambda_bound_));
  const Real kappa =
      kappa_cap_ > 0 ? std::min(kappa_cap_, kappa_runtime) : kappa_runtime;
  // Fresh sketch per round: independent noise, per the union bound.
  BigDotExpOptions round_options = dot_options_;
  round_options.seed = rand::stream_seed(dot_options_.seed, round);
  // The set form: big_dot_exp applies Psi = sum_i x_i A_i itself, one
  // implicit-Psi scratch per slot, so the round's panels may run
  // concurrently.
  big_dot_exp(x_work_, kappa, instance_->set(), round_options, *workspace_,
              result_);
  // Hand the caller the fresh dots by swapping storage: the batch keeps a
  // same-sized buffer across rounds, so neither side reallocates.
  std::swap(out.dots, result_.dots);
  out.trace = result_.trace_exp;
  out.lambda_max_psi = 0;
  out.weight = nullptr;
  out.weight_vec = nullptr;
}

Real SketchedTaylorOracle::lambda_max(const Vector& weights) {
  PSDP_CHECK(weights.size() == size(),
             "SketchedTaylorOracle: weight size mismatch");
  // Lanczos handles the flat spectra Lemma 3.2 induces far better than
  // power iteration; ritz + residual is the certified upper bound, and a
  // further 0.1% inflation absorbs the (improbable) unlucky-start case.
  // Each matvec takes its scratch from the workspace's implicit-Psi
  // buffers, which no round is using between compute() calls.
  const sparse::FactorizedSet& set = instance_->set();
  sparse::FactorizedSet::BlockWorkspace& scratch = workspace_->factor;
  const linalg::SymmetricOp op = [&set, &weights, &scratch](const Vector& v,
                                                            Vector& y) {
    set.weighted_apply(weights, v, y, scratch);
  };
  linalg::LanczosOptions options;
  options.tol = 1e-10;
  const linalg::LanczosResult r =
      linalg::lanczos_lambda_max(op, dim(), options);
  return r.lambda_max > 0 ? (r.lambda_max + r.residual) * 1.001 : 0;
}

// ----------------------------------------------------------------- scalar --

ScalarSoftmaxOracle::ScalarSoftmaxOracle(const Matrix& p)
    : p_(&p), psi_(p.rows()), x_cache_(p.cols()) {
  PSDP_CHECK(p.rows() >= 1 && p.cols() >= 1,
             "ScalarSoftmaxOracle: empty matrix");
  column_sums_.assign(static_cast<std::size_t>(p.cols()), 0);
  for (Index j = 0; j < p.rows(); ++j) {
    for (Index i = 0; i < p.cols(); ++i) {
      PSDP_CHECK(p(j, i) >= 0 && std::isfinite(p(j, i)),
                 str("ScalarSoftmaxOracle: bad entry at (", j, ",", i, ")"));
      column_sums_[static_cast<std::size_t>(i)] += p(j, i);
    }
  }
}

void ScalarSoftmaxOracle::sync(const Vector& x) {
  PSDP_CHECK(x.size() == size(),
             "ScalarSoftmaxOracle: weight size mismatch");
  const Matrix& p = *p_;
  for (Index i = 0; i < size(); ++i) {
    const Real delta = x[i] - x_cache_[i];
    if (delta == 0) continue;
    for (Index j = 0; j < dim(); ++j) psi_[j] += delta * p(j, i);
  }
  x_cache_ = x;
}

void ScalarSoftmaxOracle::compute(const Vector& x, std::uint64_t /*round*/,
                                  PenaltyBatch& out) {
  sync(x);
  const Matrix& p = *p_;
  const Index l = dim();
  const Index n = size();
  // Scalar soft-max weights, shifted by max_j Psi_j for overflow safety
  // (the selection rule and the primal average are scale-invariant).
  const Real shift = linalg::max_entry(psi_);
  if (w_.size() != l) w_ = Vector(l);
  Real tr_w = 0;
  for (Index j = 0; j < l; ++j) {
    w_[j] = std::exp(psi_[j] - shift);
    tr_w += w_[j];
  }
  out.trace = tr_w;
  out.lambda_max_psi = shift;
  // dots_i = (P^T w)_i = exp-penalty of variable i.
  if (out.dots.size() != n) out.dots = Vector(n);
  for (Index i = 0; i < n; ++i) out.dots[i] = 0;
  for (Index j = 0; j < l; ++j) {
    const Real wj = w_[j];
    if (wj == 0) continue;
    for (Index i = 0; i < n; ++i) out.dots[i] += wj * p(j, i);
  }
  out.weight = nullptr;
  out.weight_vec = &w_;
}

Real ScalarSoftmaxOracle::lambda_max(const Vector& weights) {
  PSDP_CHECK(weights.size() == size(),
             "ScalarSoftmaxOracle: weight size mismatch");
  // Top up a copy of the cached Psi = P x (O(l) per changed coordinate);
  // the cache itself stays pinned to the last compute()'s weights.
  const Matrix& p = *p_;
  Vector psi = psi_;
  for (Index i = 0; i < size(); ++i) {
    const Real delta = weights[i] - x_cache_[i];
    if (delta == 0) continue;
    for (Index j = 0; j < dim(); ++j) psi[j] += delta * p(j, i);
  }
  return linalg::max_entry(psi);
}

}  // namespace psdp::core
