#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/generators.hpp"
#include "core/bigdotexp.hpp"
#include "core/optimize.hpp"
#include "core/penalty_oracle.hpp"
#include "par/parallel.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/scheduler.hpp"
#include "util/spsa.hpp"
#include "util/tunables.hpp"

namespace psdp {
namespace {

using util::ShapeBucket;
using util::TunableId;
using util::TunableProfileStore;
using util::Tunables;

/// Restores the process-wide registry on scope exit, so mutating tests
/// cannot leak tuned values into later tests of this binary.
struct RegistryGuard {
  ~RegistryGuard() { util::tunables().reset(); }
};

TEST(Tunables, MetadataCoversEveryRegisteredKnob) {
  EXPECT_EQ(static_cast<int>(Tunables::all().size()), util::kTunableCount);
  for (const util::TunableInfo& info : Tunables::all()) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_EQ(info.env, "PSDP_TUNE_" + [&] {
      std::string upper = info.name;
      for (char& c : upper) c = static_cast<char>(std::toupper(c));
      return upper;
    }());
    EXPECT_LE(info.min, info.default_value) << info.name;
    EXPECT_LE(info.default_value, info.max) << info.name;
    EXPECT_GT(info.step, 0) << info.name;
  }
}

TEST(Tunables, FindAcceptsBothSpellings) {
  EXPECT_EQ(Tunables::find("dot_block_size"), TunableId::k_dot_block_size);
  EXPECT_EQ(Tunables::find("dot-block-size"), TunableId::k_dot_block_size);
  EXPECT_THROW(Tunables::find("no_such_knob"), InvalidArgument);
  TunableId id;
  EXPECT_FALSE(Tunables::try_find("no_such_knob", id));
  EXPECT_TRUE(Tunables::try_find("grain", id));
  EXPECT_EQ(id, TunableId::k_grain);
}

TEST(Tunables, SetClampsIntoRangeAndRoundsIntegral) {
  Tunables registry;
  // grain: [1, 1048576], integral.
  EXPECT_EQ(registry.set(TunableId::k_grain, -5), 1);
  EXPECT_EQ(registry.set(TunableId::k_grain, 2e9), 1048576);
  EXPECT_EQ(registry.set(TunableId::k_grain, 100.7), 101);
  EXPECT_EQ(registry.get(TunableId::k_grain), 101);
  // kappa_cap: Real, no rounding.
  EXPECT_EQ(registry.set(TunableId::k_kappa_cap, 2.25), 2.25);
}

TEST(Tunables, SetCheckedThrowsNamedRangeErrors) {
  Tunables registry;
  try {
    registry.set_checked(TunableId::k_grain, 0);  // below min 1
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("grain"), std::string::npos);
  }
  // Fractional value for an integral knob is an error on the checked path.
  EXPECT_THROW(registry.set_checked(TunableId::k_grain, 100.5),
               InvalidArgument);
  EXPECT_NO_THROW(registry.set_checked(TunableId::k_kappa_cap, 0.75));
  EXPECT_EQ(registry.get(TunableId::k_kappa_cap), 0.75);
}

TEST(Tunables, SetNamedParsesAndNamesErrors) {
  Tunables registry;
  registry.set_named("segment_rows", "4096");
  EXPECT_EQ(registry.get(TunableId::k_segment_rows), 4096);
  registry.set_named("bound-flux-ratio", "12.5");  // CLI spelling
  EXPECT_EQ(registry.get(TunableId::k_bound_flux_ratio), 12.5);
  try {
    registry.set_named("segment_rows", "banana");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("segment_rows"), std::string::npos);
  }
  EXPECT_THROW(registry.set_named("segment_rows", "8"),  // below min 16
               InvalidArgument);
  EXPECT_THROW(registry.set_named("unknown_knob", "1"), InvalidArgument);
}

TEST(Tunables, ResetAndIsDefault) {
  Tunables registry;
  EXPECT_TRUE(registry.is_default(TunableId::k_wide_work));
  registry.set(TunableId::k_wide_work, 1 << 20);
  EXPECT_FALSE(registry.is_default(TunableId::k_wide_work));
  registry.reset(TunableId::k_wide_work);
  EXPECT_TRUE(registry.is_default(TunableId::k_wide_work));
  registry.set(TunableId::k_grain, 7);
  registry.set(TunableId::k_kappa_cap, 1.5);
  registry.reset();
  for (int i = 0; i < util::kTunableCount; ++i) {
    EXPECT_TRUE(registry.is_default(static_cast<TunableId>(i)));
  }
}

TEST(Tunables, JsonSnapshotRoundTripsExactly) {
  Tunables registry;
  registry.set(TunableId::k_grain, 777);
  registry.set(TunableId::k_kappa_cap, 0.1);  // not exactly representable
  registry.set(TunableId::k_bound_flux_ratio, 12.25);
  const std::string snapshot = registry.to_json();

  Tunables restored;
  restored.from_json(snapshot);
  for (int i = 0; i < util::kTunableCount; ++i) {
    const TunableId id = static_cast<TunableId>(i);
    EXPECT_EQ(registry.get(id), restored.get(id))
        << Tunables::info(id).name;
  }
  EXPECT_EQ(restored.to_json(), snapshot);
}

TEST(Tunables, FromJsonValidatesBeforeApplying) {
  Tunables registry;
  // Partial snapshots apply only the keys present.
  registry.from_json("{\"tunables\": {\"grain\": 2048}}");
  EXPECT_EQ(registry.get(TunableId::k_grain), 2048);
  EXPECT_TRUE(registry.is_default(TunableId::k_wide_work));
  // A bad later key must leave every earlier key untouched.
  EXPECT_THROW(registry.from_json(
                   "{\"tunables\": {\"grain\": 4096, \"segment_rows\": 1}}"),
               InvalidArgument);
  EXPECT_EQ(registry.get(TunableId::k_grain), 2048);
  EXPECT_THROW(registry.from_json("{\"tunables\": {\"bogus\": 1}}"),
               InvalidArgument);
  EXPECT_THROW(registry.from_json("not json"), InvalidArgument);
}

TEST(Tunables, EnvironmentOverridesApplyOnConstruction) {
  ASSERT_EQ(setenv("PSDP_TUNE_GRAIN", "4096", 1), 0);
  Tunables registry(/*apply_env=*/true);
  EXPECT_EQ(registry.get(TunableId::k_grain), 4096);
  // Without apply_env the variable is ignored.
  Tunables plain;
  EXPECT_EQ(plain.get(TunableId::k_grain),
            Tunables::info(TunableId::k_grain).default_value);
  // A bad value throws naming the variable.
  ASSERT_EQ(setenv("PSDP_TUNE_GRAIN", "banana", 1), 0);
  try {
    Tunables bad(/*apply_env=*/true);
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("PSDP_TUNE_GRAIN"),
              std::string::npos);
  }
  unsetenv("PSDP_TUNE_GRAIN");
}

// The bit-identity contract: a default-constructed options struct holds
// exactly the legacy hard-coded literal each registry default replaced.
TEST(Tunables, DefaultsMatchLegacyLiterals) {
  EXPECT_EQ(core::BigDotExpOptions{}.block_size, 0);
  EXPECT_EQ(core::OptimizeOptions{}.dot_block_size, 0);
  EXPECT_EQ(core::SketchedOracleOptions{}.kappa_cap, 0);
  EXPECT_EQ(sparse::TransposeIndexOptions{}.segment_rows, 1024);
  EXPECT_EQ(sparse::TransposeIndexOptions{}.window_bytes, 1048576);
  EXPECT_EQ(serve::SchedulerOptions{}.lanes, 0);
  EXPECT_EQ(serve::SchedulerOptions{}.wide_work, 67108864);
  EXPECT_EQ(serve::ArtifactCache::Options{}.capacity, 32u);
  EXPECT_EQ(serve::ArtifactCache::Options{}.workspaces_per_entry, 8u);
  EXPECT_EQ(par::default_grain(), 1024);
}

// Overriding a knob and resetting it restores bitwise-identical solver
// output -- the guarantee serve startup relies on when no profile loads.
TEST(Tunables, ResetRestoresBitIdenticalSolves) {
  RegistryGuard guard;
  apps::FactorizedOptions generator;
  generator.m = 64;
  generator.n = 4;
  generator.seed = 11;
  const auto solve = [&] {
    core::OptimizeOptions options;
    options.eps = 0.5;
    options.decision_eps = 0.25;
    return core::approx_packing(apps::random_factorized(generator), options);
  };
  const core::PackingOptimum reference = solve();
  util::tunables().set(TunableId::k_dot_block_size, 64);
  util::tunables().reset();
  const core::PackingOptimum again = solve();
  ASSERT_EQ(reference.best_x.size(), again.best_x.size());
  for (Index i = 0; i < reference.best_x.size(); ++i) {
    EXPECT_EQ(reference.best_x[i], again.best_x[i]) << "component " << i;
  }
  EXPECT_EQ(reference.lower, again.lower);
  EXPECT_EQ(reference.upper, again.upper);
}

TEST(ShapeBucketTest, BucketsByCeilLog2) {
  const ShapeBucket b = ShapeBucket::of(1000, 256, 12);
  EXPECT_EQ(b.log2_nnz, 10);
  EXPECT_EQ(b.log2_rows, 8);
  EXPECT_EQ(b.log2_cols, 4);
  EXPECT_EQ(ShapeBucket::of(0, 1, 1), (ShapeBucket{0, 0, 0}));
  EXPECT_TRUE(ShapeBucket::of(900, 200, 10) == ShapeBucket::of(1024, 256, 16));
  EXPECT_FALSE(ShapeBucket::of(1025, 200, 10) ==
               ShapeBucket::of(1024, 200, 10));
}

TEST(TunableProfileStoreTest, PutFindApplyRoundTrip) {
  TunableProfileStore store;
  EXPECT_TRUE(store.empty());
  const ShapeBucket bucket = ShapeBucket::of(5000, 512, 16);
  store.put(bucket, {{"dot_block_size", 32}, {"lanes", 2}});
  ASSERT_EQ(store.size(), 1u);
  ASSERT_NE(store.find(bucket), nullptr);
  EXPECT_EQ(store.find(ShapeBucket::of(1, 1, 1)), nullptr);
  // Replacement, not accumulation.
  store.put(bucket, {{"dot_block_size", 16}});
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find(bucket)->front().second, 16);

  Tunables registry;
  EXPECT_FALSE(store.apply(ShapeBucket::of(1, 1, 1), registry));
  EXPECT_TRUE(registry.is_default(TunableId::k_dot_block_size));
  EXPECT_TRUE(store.apply(bucket, registry));
  EXPECT_EQ(registry.get(TunableId::k_dot_block_size), 16);

  const std::string json = store.to_json();
  const TunableProfileStore reloaded = TunableProfileStore::from_json(json);
  EXPECT_EQ(reloaded.to_json(), json);

  // Corrupted profiles fail with named errors when applied.
  TunableProfileStore bad;
  bad.put(bucket, {{"no_such_knob", 1}});
  EXPECT_THROW(bad.apply(bucket, registry), InvalidArgument);
}

TEST(TunableProfileStoreTest, SaveAndLoadFile) {
  TunableProfileStore store;
  store.put(ShapeBucket::of(100, 10, 3), {{"wide_work", 1048576}});
  store.put(ShapeBucket::of(1 << 20, 1 << 10, 12), {{"lanes", 4}});
  const std::string path = "test_tunables_profile.json";
  store.save(path);
  const TunableProfileStore loaded = TunableProfileStore::load(path);
  EXPECT_EQ(loaded.to_json(), store.to_json());
  std::remove(path.c_str());
  EXPECT_THROW(TunableProfileStore::load("no/such/file.json"),
               InvalidArgument);
}

// A deterministic convex toy objective over the two Real knobs: SPSA must
// replay bit-identically under a fixed seed and find a better point.
double toy_objective(const Tunables& registry) {
  const double kappa = registry.get(TunableId::k_kappa_cap);
  const double ratio = registry.get(TunableId::k_bound_flux_ratio);
  return (kappa - 3.0) * (kappa - 3.0) + (ratio - 12.0) * (ratio - 12.0);
}

TEST(Spsa, ImprovesSeededToyObjective) {
  Tunables registry;
  util::SpsaOptions options;
  options.knobs = {TunableId::k_kappa_cap, TunableId::k_bound_flux_ratio};
  options.iterations = 30;
  options.seed = 5;
  const util::SpsaResult result = util::spsa_minimize(
      registry, options, [&] { return toy_objective(registry); });
  EXPECT_EQ(result.evaluations, 2 * options.iterations + 1);
  // Starting point (0, 8): objective 25. Any real progress beats 25.
  EXPECT_EQ(result.initial_objective, 25.0);
  EXPECT_LT(result.best_objective, result.initial_objective);
  EXPECT_TRUE(result.improved());
  // The registry is left at the winning point.
  EXPECT_EQ(toy_objective(registry), result.best_objective);
  ASSERT_EQ(result.tuned.size(), 2u);
  EXPECT_EQ(result.tuned[0].first, "kappa_cap");
  EXPECT_EQ(result.tuned[1].first, "bound_flux_ratio");
}

TEST(Spsa, FixedSeedReplaysExactly) {
  const auto run = [] {
    Tunables registry;
    util::SpsaOptions options;
    options.knobs = {TunableId::k_kappa_cap, TunableId::k_bound_flux_ratio};
    options.iterations = 12;
    options.seed = 17;
    return util::spsa_minimize(registry, options,
                               [&] { return toy_objective(registry); });
  };
  const util::SpsaResult a = run();
  const util::SpsaResult b = run();
  EXPECT_EQ(a.best_objective, b.best_objective);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.tuned.size(), b.tuned.size());
  for (std::size_t i = 0; i < a.tuned.size(); ++i) {
    EXPECT_EQ(a.tuned[i].second, b.tuned[i].second) << a.tuned[i].first;
  }
  // A different seed explores a different direction sequence.
  Tunables registry;
  util::SpsaOptions options;
  options.knobs = {TunableId::k_kappa_cap, TunableId::k_bound_flux_ratio};
  options.iterations = 12;
  options.seed = 18;
  const util::SpsaResult c = util::spsa_minimize(
      registry, options, [&] { return toy_objective(registry); });
  EXPECT_NE(c.tuned[0].second, a.tuned[0].second);
}

TEST(Spsa, IntegralKnobsStayOnTheStepGrid) {
  Tunables registry;
  util::SpsaOptions options;
  options.knobs = {TunableId::k_dot_block_size};  // step 4, range [0, 256]
  options.iterations = 10;
  options.seed = 3;
  const util::SpsaResult result = util::spsa_minimize(
      registry, options, [&] {
        const double v = registry.get(TunableId::k_dot_block_size);
        return (v - 37.0) * (v - 37.0);
      });
  const double tuned = result.tuned[0].second;
  EXPECT_EQ(tuned, std::floor(tuned));
  EXPECT_EQ(static_cast<long long>(tuned) % 4, 0);
  EXPECT_GE(tuned, 0);
  EXPECT_LE(tuned, 256);
}

TEST(Spsa, RejectsDegenerateConfigurations) {
  Tunables registry;
  util::SpsaOptions options;
  options.iterations = 4;
  EXPECT_THROW(
      util::spsa_minimize(registry, options, [] { return 0.0; }),
      InvalidArgument);  // empty knob list
  options.knobs = {TunableId::k_grain};
  options.iterations = 0;
  EXPECT_THROW(
      util::spsa_minimize(registry, options, [] { return 0.0; }),
      InvalidArgument);
}

}  // namespace
}  // namespace psdp
