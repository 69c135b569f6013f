// The serve layer's per-instance artifact store.
//
// PR 1-4 made a *single* solve fast: blocked bigDotExp kernels, the
// PenaltyOracle layer, the cached transpose index + segment grid, and the
// zero-allocation SolverWorkspace. All of those artifacts are per-matrix
// and solve-invariant -- yet the repo's entry points rebuilt every one of
// them per call. The ArtifactCache keys
// prepared instances by identity and shares them across the jobs of a
// batch (serve/scheduler.hpp):
//
//   * the prepared instance itself (factor CSRs with their transpose
//     indexes and segment grids already built; covering problems with the
//     Appendix-A normalization -- an O(m^3) eigensolve -- already
//     performed);
//   * a pool of core::SolverWorkspace instances, leased per job and
//     recycled, so concurrent jobs on one instance keep the steady-state
//     zero-allocation property without sharing scratch.
//
// The cache is bounded: entries are evicted least-recently-used once
// `Options::capacity` distinct instances have been prepared. Eviction only
// drops the cache's reference -- jobs still running on an evicted entry
// keep it alive through their shared_ptr. Hit/miss/evict counters back the
// bench_serve acceptance assertion ("zero transpose-index rebuilds after
// cache warmup") and the tests.
//
// Thread safety: get() may be called from concurrent scheduler lanes; the
// per-entry build runs under that entry's own mutex (so one lane builds
// while others wait and then share), and the map/LRU state under the cache
// mutex. Prepared instances are immutable after build and safe to share
// across lanes; workspaces are handed out exclusively via WorkspaceLease.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/optimize.hpp"
#include "core/poslp.hpp"

namespace psdp::serve {

/// Which solver family a job runs. Doubles as the tag of PreparedInstance
/// and mirrors solver_cli's --kind vocabulary.
enum class JobKind {
  kPackingDense,       ///< core::approx_packing(PackingInstance)
  kPackingFactorized,  ///< core::approx_packing(FactorizedPackingInstance)
  kCovering,           ///< core::approx_covering (cached normalization)
  kPackingLp,          ///< core::approx_packing_lp
};

/// Stable names ("packing-dense", "packing-factorized", "covering",
/// "packing-lp"), shared by the job manifest and the bench tables.
const char* job_kind_name(JobKind kind);
/// Inverse of job_kind_name; throws InvalidArgument on unknown names.
JobKind job_kind_from_name(const std::string& name);

/// One prepared, immutable, shareable instance. Exactly the pointer
/// matching `kind` is set; the others stay null. For covering problems the
/// normalization (the per-instance O(m^3) eigensolve) is precomputed here,
/// so repeated (eps, probe) configurations of one problem pay it once.
struct PreparedInstance {
  JobKind kind = JobKind::kPackingFactorized;
  std::shared_ptr<const core::PackingInstance> packing;
  std::shared_ptr<const core::FactorizedPackingInstance> factorized;
  std::shared_ptr<const core::CoveringProblem> covering;
  std::shared_ptr<const core::NormalizedProblem> normalized;  ///< kCovering
  std::shared_ptr<const core::PackingLp> lp;

  /// Rough per-iteration work (flops) of a solve on this instance -- the
  /// scheduler's sharding signal (serve/scheduler.hpp): small estimates
  /// pack onto lanes, large ones keep the full pool width.
  Index estimated_work() const;

  /// The tunable-profile shape bucket of this instance (see
  /// util::TunableProfileStore): util::ShapeBucket::of over (nnz, rows,
  /// cols), where factorized instances report (total factor nnz, ambient
  /// dim, constraint count) and the dense/LP kinds their dense equivalents.
  /// Serve entry points match this against a loaded profile at startup.
  util::ShapeBucket shape_bucket() const;

  /// Throws InvalidArgument unless exactly the pointer matching `kind` is
  /// set (normalized is required alongside covering).
  void validate() const;
};

/// Convenience constructors: wrap an instance and (for covering) perform
/// the normalization up front.
PreparedInstance prepare_packing(core::PackingInstance instance);
PreparedInstance prepare_factorized(core::FactorizedPackingInstance instance);
PreparedInstance prepare_covering(core::CoveringProblem problem);
PreparedInstance prepare_lp(core::PackingLp lp);

class ArtifactCache {
 public:
  struct Options {
    /// Prepared instances kept (LRU beyond this). Defaulted from the
    /// tunable registry (`cache_capacity`, default 32).
    std::size_t capacity =
        static_cast<std::size_t>(util::tunable_cache_capacity());
    /// Pooled SolverWorkspaces retained per entry; leases beyond the cap
    /// are served with fresh workspaces that are dropped on release.
    /// Defaulted from the tunable registry (`workspaces_per_entry`).
    std::size_t workspaces_per_entry =
        static_cast<std::size_t>(util::tunable_workspaces_per_entry());
  };

  struct Stats {
    std::uint64_t hits = 0;        ///< get() found a prepared entry
    std::uint64_t misses = 0;      ///< get() ran the builder
    std::uint64_t evictions = 0;   ///< entries displaced by the cap
    std::uint64_t workspace_reuses = 0;  ///< leases served from the pool
  };

  /// Builds the instance for a missing key.
  using Builder = std::function<PreparedInstance()>;

  /// One cached instance plus its workspace pool. Shared with jobs; safe
  /// to hold past eviction.
  class Entry {
   public:
    const PreparedInstance& instance() const { return instance_; }
    const std::string& key() const { return key_; }

   private:
    friend class ArtifactCache;
    friend class WorkspaceLease;

    std::string key_;
    PreparedInstance instance_;
    std::mutex build_mutex_;  ///< serializes the one-time build
    bool built_ = false;

    std::mutex pool_mutex_;
    std::vector<std::unique_ptr<core::SolverWorkspace>> pool_;
    std::size_t pool_cap_ = 0;
    ArtifactCache* owner_ = nullptr;  ///< for the workspace_reuses counter
  };

  // Two constructors instead of one defaulted argument: GCC cannot parse a
  // nested-aggregate default initializer inside the enclosing class.
  ArtifactCache() : ArtifactCache(Options{}) {}
  explicit ArtifactCache(Options options);

  /// The entry for `key`, building it via `build` on a miss. Concurrent
  /// calls for one key build once and share; a builder that throws leaves
  /// no entry behind (the next get() retries). Returns the entry plus
  /// whether it was served without running the builder.
  struct Resolved {
    std::shared_ptr<Entry> entry;
    bool hit = false;
  };
  Resolved get(const std::string& key, const Builder& build);

  /// The entry for `key` if prepared, nullptr otherwise (no counters).
  std::shared_ptr<Entry> find(const std::string& key);

  Stats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return options_.capacity; }

  /// Drop every entry (in-flight leases survive via their shared_ptr).
  void clear();

 private:
  friend class WorkspaceLease;

  struct Slot {
    std::shared_ptr<Entry> entry;
    std::uint64_t last_used = 0;
  };

  /// Insert under an already-held mutex_, evicting the LRU slot when at
  /// capacity (the one place eviction accounting lives).
  void insert_slot_locked(std::shared_ptr<Entry> entry);

  Options options_;
  mutable std::mutex mutex_;
  std::uint64_t tick_ = 0;
  std::vector<Slot> slots_;  ///< capacity is small; linear scans
  Stats stats_;
};

/// RAII lease of a pooled SolverWorkspace: taken per job, returned to the
/// entry's pool on destruction (dropped instead once the pool is at its
/// cap). Move-only; a default-constructed lease holds nothing and get()
/// returns nullptr (callers pass that straight to
/// DecisionOptions::workspace, whose null means "oracle-private scratch").
class WorkspaceLease {
 public:
  WorkspaceLease() = default;
  explicit WorkspaceLease(std::shared_ptr<ArtifactCache::Entry> entry);
  ~WorkspaceLease();

  WorkspaceLease(WorkspaceLease&& other) noexcept;
  WorkspaceLease& operator=(WorkspaceLease&& other) noexcept;
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  core::SolverWorkspace* get() const { return workspace_.get(); }

 private:
  void release();

  std::shared_ptr<ArtifactCache::Entry> entry_;
  std::unique_ptr<core::SolverWorkspace> workspace_;
};

}  // namespace psdp::serve
