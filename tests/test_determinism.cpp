// The determinism contract: a result's bits depend on the instance and the
// options, never on the shard count K or the thread count. Every reduction
// folds over fixed pieces (par::parallel_sum) and every factor carries its
// transpose index, so K = 1 is just a one-shard partition and a run at any
// width matches the one-thread run.
//
// The grid below is K in {1, 4} x threads in {1, 2, 4} x {double, float32}
// panels, each compared bitwise against K = 1 at one thread, on sets whose
// sums and transposes would split under a pool-width-shaped partition:
//  * tall (m = 128, rank 4): each 16-wide panel's trace folds 2048 terms;
//  * non-tall (m = 24, rank 8): the factors' rows are fewer than four
//    times their columns;
//  * big (m = 2048, 128 sketch rows): each panel's trace spans two fixed
//    pieces; oracle rounds only.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/generators.hpp"
#include "core/optimize.hpp"
#include "core/penalty_oracle.hpp"
#include "par/parallel.hpp"
#include "util/tunables.hpp"

namespace psdp::core {
namespace {

struct Case {
  const char* name;
  apps::FactorizedOptions generator;
  Index sketch_rows;  ///< 0 = auto
};

const Case kTall{"tall", {.n = 8, .m = 128, .rank = 4, .nnz_per_column = 6,
                          .seed = 41}, 32};
const Case kNonTall{"non-tall", {.n = 8, .m = 24, .rank = 8,
                                 .nnz_per_column = 4, .seed = 42}, 0};
const Case kBig{"big", {.n = 6, .m = 2048, .rank = 2, .nnz_per_column = 8,
                        .seed = 43}, 128};

const PanelPrecision kPrecisions[] = {PanelPrecision::kDouble,
                                      PanelPrecision::kFloat32};

/// RAII: restore the thread count and the rebase cadence on scope exit.
struct Restore {
  int threads = par::num_threads();
  double rebase =
      util::tunables().get(util::TunableId::k_rebase_interval);
  ~Restore() {
    par::set_num_threads(threads);
    util::tunables().set(util::TunableId::k_rebase_interval, rebase);
  }
};

BigDotExpOptions dot_options(const Case& c, PanelPrecision precision) {
  BigDotExpOptions options;
  options.sketch_rows_override = c.sketch_rows;
  options.panel_precision = precision;
  return options;
}

/// Three oracle rounds at shifting weights: per round the dots, the trace
/// and both tracked bounds, concatenated. The caller sets the rebase
/// cadence to 1, so every round rebases the bounds from scratch.
std::vector<Real> oracle_rounds(const FactorizedPackingInstance& instance,
                                const Case& c, PanelPrecision precision) {
  SketchedOracleOptions options;
  options.eps = 0.3;
  options.dot_options = dot_options(c, precision);
  SketchedTaylorOracle oracle(instance, options);
  Vector x(instance.size());
  std::vector<Real> out;
  for (int r = 0; r < 3; ++r) {
    for (Index i = 0; i < x.size(); ++i) {
      x[i] = 2.0 * (1.0 + 0.25 * static_cast<Real>((i + r) % 7)) /
             static_cast<Real>(instance.size());
    }
    PenaltyBatch batch;
    oracle.compute(x, static_cast<std::uint64_t>(r) + 1, batch);
    out.insert(out.end(), batch.dots.data(),
               batch.dots.data() + batch.dots.size());
    out.push_back(batch.trace);
    out.push_back(oracle.tracked_trace());
    out.push_back(oracle.tracked_lambda_bound());
  }
  return out;
}

/// A phased approx_packing: lower, upper, then best_x.
std::vector<Real> phased_solve(const FactorizedPackingInstance& instance,
                               const Case& c, PanelPrecision precision) {
  OptimizeOptions options;
  options.eps = 0.5;
  options.decision_eps = 0.3;
  options.probe_solver = ProbeSolver::kPhased;
  options.decision.dot_options = dot_options(c, precision);
  const PackingOptimum opt = approx_packing(instance, options);
  std::vector<Real> out = {opt.lower, opt.upper};
  out.insert(out.end(), opt.best_x.data(),
             opt.best_x.data() + opt.best_x.size());
  return out;
}

/// Run `signature` over the grid and compare each point bitwise against
/// K = 1 at one thread in the same precision.
template <typename Signature>
void expect_grid_bitwise(const Case& c, const Signature& signature) {
  Restore restore;
  util::tunables().set(util::TunableId::k_rebase_interval, 1);
  const FactorizedPackingInstance one_shard =
      apps::random_factorized(c.generator);
  const FactorizedPackingInstance four_shards(one_shard.set(), 4);
  ASSERT_EQ(four_shards.shard_count(), 4);
  for (const PanelPrecision precision : kPrecisions) {
    par::set_num_threads(1);
    const std::vector<Real> want = signature(one_shard, c, precision);
    for (const FactorizedPackingInstance* instance :
         {&one_shard, &four_shards}) {
      for (const int threads : {1, 2, 4}) {
        par::set_num_threads(threads);
        EXPECT_EQ(signature(*instance, c, precision), want)
            << c.name << " " << panel_precision_name(precision) << " K "
            << instance->shard_count() << " threads " << threads;
      }
    }
  }
}

TEST(Determinism, OracleRoundsBitwiseAcrossShardsAndThreads) {
  for (const Case* c : {&kTall, &kNonTall, &kBig}) {
    expect_grid_bitwise(*c, oracle_rounds);
  }
}

TEST(Determinism, PhasedSolveBitwiseAcrossShardsAndThreads) {
  for (const Case* c : {&kTall, &kNonTall}) {
    expect_grid_bitwise(*c, phased_solve);
  }
}

}  // namespace
}  // namespace psdp::core
