// The unified tunable registry: one definition point for every numeric
// performance knob in the library.
//
// Before this layer each knob landed with its own ad-hoc flag, default and
// validation, scattered across core options (block_size, dot_block_size,
// kappa_cap), the sparse transpose index (segment grid and window),
// the serve scheduler (lane count, wide_work, cache capacities) and the par
// substrate (grain, thread default). PSDP_TUNABLE_LIST is now the single
// source of truth, in the chess-engine SPSA idiom: each entry names the
// knob, its storage type, the default, the allowed [min, max] range, and
// the step the SPSA tuner perturbs it by. The list expands into
//
//   * an enum (TunableId) and a metadata table (Tunables::info),
//   * typed accessors (util::tunable_block_size(), ...) that the owning
//     options structs use as their default member initializers -- so a
//     default-constructed BigDotExpOptions / SchedulerOptions / ... reads
//     whatever the registry currently holds, and holds the legacy
//     hard-coded value until something overrides it (bit-identical
//     defaults, locked by tests/test_tunables.cpp),
//   * auto-generated CLI flags (--tune-<name>, add_tunable_flags),
//     PSDP_TUNE_<NAME> environment overrides, serve-manifest "set
//     key=value" lines, and a JSON snapshot/restore that round-trips
//     every value exactly.
//
// Override precedence is purely temporal -- later writers win -- and the
// wiring applies them in the order default < environment (registry
// construction) < CLI flags (parse time) < manifest `set` lines (manifest
// load time).
//
// Error discipline: programmatic set() clamps into [min, max] (the SPSA
// path, where perturbations routinely poke past the fence), while every
// text-driven path (CLI, env, manifest, JSON) goes through set_named() /
// set_checked() and throws InvalidArgument naming the tunable on
// unparsable text or an out-of-range value.
//
// Values are relaxed atomics: solver hot paths read them on options
// construction (and par::parallel_for reads `grain` per loop), while an
// SPSA driver writes them between evaluations from another context.
//
// The SPSA loop itself lives in util/spsa.hpp; tuned per-shape profiles
// (the (nnz, rows, cols) bucket -> snapshot map persisted by bench_load
// and loaded at serve startup) are TunableProfileStore below.
#pragma once

#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace psdp::util {

class Cli;

// PSDP_TUNABLE(name, type, value, min, max, step)
//
//   name   registry identifier (also the manifest/JSON key; the CLI flag is
//          --tune-<name> with '_' -> '-', the env var PSDP_TUNE_<NAME>)
//   type   C++ type the typed accessor returns (Index or Real)
//   value  default -- MUST equal the legacy hard-coded value it replaced
//   min    smallest value accepted / clamped to
//   max    largest value accepted / clamped to
//   step   SPSA perturbation unit (the scale on which the knob moves)
//
// Knob semantics (and the option field each default used to live in):
//   block_size           BigDotExpOptions::block_size; 0 = auto
//   dot_block_size       OptimizeOptions::dot_block_size; 0 = inherit
//   segment_rows         TransposeIndexOptions::segment_rows (segment
//                        grid granularity); 0 would disable grids, so
//                        min is 16
//   window_bytes         TransposeIndexOptions::window_bytes (segmented-
//                        gather window)
//   lanes                SchedulerOptions::lanes; 0 = auto
//   threads              par thread-pool default width; 0 = hardware
//   grain                par::parallel_* minimum chunk size
//   wide_work            SchedulerOptions::wide_work gang threshold
//   kappa_cap            SketchedOracleOptions::kappa_cap; 0 = tracked
//                        runtime bounds only
//   rebase_interval      sketched-oracle incremental-bound rebase cadence
//   bound_flux_ratio     sketched-oracle cancellation-guard ratio
//   cache_capacity       ArtifactCache::Options::capacity
//   workspaces_per_entry ArtifactCache::Options::workspaces_per_entry
//   shards               constraint-shard count of factorized instances
//                        (ShardedFactorizedSet); bookkeeping for the
//                        chunked format -- no K changes a result bit
// The block-size steps are 16, not the flag granularity of 4: their 0
// default is an "auto" sentinel, so the first SPSA probe lands on 0 +/- step
// and must be a *plausible* fixed block, not a pathological tiny one.
#define PSDP_TUNABLE_LIST(PSDP_TUNABLE)                                   \
  PSDP_TUNABLE(block_size, Index, 0, 0, 256, 16)                          \
  PSDP_TUNABLE(dot_block_size, Index, 0, 0, 256, 16)                      \
  PSDP_TUNABLE(segment_rows, Index, 1024, 16, 1048576, 256)               \
  PSDP_TUNABLE(window_bytes, Index, 1048576, 4096, 268435456, 262144)     \
  PSDP_TUNABLE(lanes, Index, 0, 0, 1024, 1)                               \
  PSDP_TUNABLE(threads, Index, 0, 0, 1024, 1)                             \
  PSDP_TUNABLE(grain, Index, 1024, 1, 1048576, 256)                       \
  PSDP_TUNABLE(wide_work, Index, 67108864, 65536, 1099511627776, 16777216)\
  PSDP_TUNABLE(kappa_cap, Real, 0, 0, 1e9, 0.5)                           \
  PSDP_TUNABLE(rebase_interval, Index, 64, 1, 4096, 8)                    \
  PSDP_TUNABLE(bound_flux_ratio, Real, 8, 1, 64, 1)                       \
  PSDP_TUNABLE(cache_capacity, Index, 32, 1, 4096, 4)                     \
  PSDP_TUNABLE(workspaces_per_entry, Index, 8, 0, 256, 1)                 \
  PSDP_TUNABLE(shards, Index, 1, 1, 256, 1)

/// One enumerator per registry entry, in list order.
enum class TunableId : int {
#define PSDP_TUNABLE(name, type, value, min, max, step) k_##name,
  PSDP_TUNABLE_LIST(PSDP_TUNABLE)
#undef PSDP_TUNABLE
};

/// Number of registered tunables.
inline constexpr int kTunableCount = 0
#define PSDP_TUNABLE(name, type, value, min, max, step) +1
    PSDP_TUNABLE_LIST(PSDP_TUNABLE)
#undef PSDP_TUNABLE
    ;

/// Registry metadata of one tunable (shared by every Tunables instance).
struct TunableInfo {
  std::string name;       ///< registry key, e.g. "block_size"
  std::string env;        ///< environment override, e.g. "PSDP_TUNE_BLOCK_SIZE"
  std::string type_name;  ///< "Index" or "Real"
  bool integral = false;  ///< integer-valued (text with a fraction is an error)
  double default_value = 0;
  double min = 0;
  double max = 0;
  double step = 0;  ///< SPSA perturbation unit
};

/// A set of tunable values. The process-wide instance behind util::tunables()
/// is what the typed accessors and all override wiring read and write; tests
/// (and the SPSA loop, when tuning hypothetically) may hold private
/// instances.
class Tunables {
 public:
  /// Fresh registry at the built-in defaults. With apply_env, PSDP_TUNE_*
  /// overrides are applied on top (named InvalidArgument on bad values).
  explicit Tunables(bool apply_env = false);

  Tunables(const Tunables&) = delete;
  Tunables& operator=(const Tunables&) = delete;

  static const TunableInfo& info(TunableId id);
  static const std::array<TunableInfo, kTunableCount>& all();
  /// Id by registry name; '-' is accepted for '_' (CLI spelling). Throws
  /// InvalidArgument naming the unknown tunable.
  static TunableId find(const std::string& name);
  static bool try_find(const std::string& name, TunableId& id);

  double get(TunableId id) const;
  /// Programmatic set: clamps into [min, max], rounds integral tunables to
  /// the nearest integer, returns the value actually stored. The SPSA path.
  double set(TunableId id, double value);
  /// Range-checked set: throws InvalidArgument naming the tunable when
  /// `value` falls outside [min, max] (or is fractional for an integral
  /// tunable). The JSON/profile path.
  void set_checked(TunableId id, double value);
  /// Parse-and-set with util::Cli's named-error discipline: unparsable text
  /// and out-of-range values throw InvalidArgument naming the tunable. The
  /// CLI / env / manifest path.
  void set_named(const std::string& name, const std::string& text);

  bool is_default(TunableId id) const;
  void reset(TunableId id);
  void reset();  ///< every tunable back to its default

  /// Exact-round-trip snapshot: {"tunables": {"block_size": 0, ...}} with
  /// every tunable present, in registry order, at max_digits10 precision.
  std::string to_json() const;
  /// Restore a snapshot (or apply a partial one): every key present is
  /// applied through set_checked; keys absent keep their current value;
  /// unknown keys throw a named InvalidArgument.
  void from_json(const std::string& text);

  /// Apply every PSDP_TUNE_<NAME> environment override present; returns how
  /// many applied. Bad values throw naming both the variable and the text.
  int load_env();

 private:
  std::array<std::atomic<double>, kTunableCount> values_;
};

/// The process-wide registry: constructed on first use with PSDP_TUNE_*
/// environment overrides applied.
Tunables& tunables();

// Typed accessors -- the default member initializers of the owning options
// structs call these, e.g. `Index block_size = util::tunable_block_size();`.
#define PSDP_TUNABLE(name, type, value, min, max, step) type tunable_##name();
PSDP_TUNABLE_LIST(PSDP_TUNABLE)
#undef PSDP_TUNABLE

/// Register one --tune-<name> flag per registry entry on `cli` (plus a
/// --tunables=FILE flag restoring a JSON snapshot); parse() assigns straight
/// into the process-wide registry with the usual named range errors.
void add_tunable_flags(Cli& cli);

/// The (ceil_log2 nnz, ceil_log2 rows, ceil_log2 cols) shape bucket tuned
/// profiles are keyed by, so same-shaped workloads share a profile.
struct ShapeBucket {
  std::int64_t log2_nnz = 0;
  std::int64_t log2_rows = 0;
  std::int64_t log2_cols = 0;

  static ShapeBucket of(Index nnz, Index rows, Index cols);

  friend bool operator==(const ShapeBucket& a, const ShapeBucket& b) {
    return a.log2_nnz == b.log2_nnz && a.log2_rows == b.log2_rows &&
           a.log2_cols == b.log2_cols;
  }
};

/// Persisted tuned profiles: shape bucket -> (tunable name, value) pairs.
/// JSON round-trips exactly (see the number formatting in tunables.cpp):
///
///   {"tunable_profiles": [
///     {"log2_nnz": 14, "log2_rows": 10, "log2_cols": 4,
///      "tunables": {"dot_block_size": 16, "lanes": 2}}
///   ]}
///
/// bench_load persists one after an SPSA run; serve entry points load one
/// at startup and apply() the bucket matching their workload's shape.
class TunableProfileStore {
 public:
  /// Record `values` for `bucket`, replacing a previous entry.
  void put(const ShapeBucket& bucket,
           std::vector<std::pair<std::string, double>> values);

  /// The profile recorded for `bucket`; nullptr when absent.
  const std::vector<std::pair<std::string, double>>* find(
      const ShapeBucket& bucket) const;

  /// Apply the bucket's values to `registry` (set_checked: named errors on
  /// a corrupted profile); false when no entry matches.
  bool apply(const ShapeBucket& bucket, Tunables& registry) const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  std::string to_json() const;
  static TunableProfileStore from_json(const std::string& text);
  static TunableProfileStore load(const std::string& path);
  void save(const std::string& path) const;

 private:
  struct Entry {
    ShapeBucket bucket;
    std::vector<std::pair<std::string, double>> values;
  };
  std::vector<Entry> entries_;
};

}  // namespace psdp::util
