#include "serve/artifact_cache.hpp"

#include <algorithm>
#include <utility>

namespace psdp::serve {

const char* job_kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kPackingDense:
      return "packing-dense";
    case JobKind::kPackingFactorized:
      return "packing-factorized";
    case JobKind::kCovering:
      return "covering";
    case JobKind::kPackingLp:
      return "packing-lp";
  }
  return "unknown";
}

JobKind job_kind_from_name(const std::string& name) {
  if (name == "packing-dense") return JobKind::kPackingDense;
  if (name == "packing-factorized") return JobKind::kPackingFactorized;
  if (name == "covering") return JobKind::kCovering;
  if (name == "packing-lp") return JobKind::kPackingLp;
  PSDP_CHECK(false, str("serve: unknown job kind '", name,
                        "' (packing-dense | packing-factorized | covering | "
                        "packing-lp)"));
  return JobKind::kPackingDense;  // unreachable
}

Index PreparedInstance::estimated_work() const {
  switch (kind) {
    case JobKind::kPackingDense:
      // Dense oracle refresh: O(m^3) eigensolve + n m^2 dots per iteration.
      if (!packing) return 0;
      return packing->dim() * packing->dim() *
             (packing->dim() + packing->size());
    case JobKind::kPackingFactorized: {
      // Sketched oracle: O(r k q) per iteration; r and k are eps-dependent,
      // so nnz-proportional work (times a nominal r k ~ 256) is the signal.
      if (!factorized) return 0;
      return factorized->total_nnz() * 256;
    }
    case JobKind::kCovering:
      if (!covering) return 0;
      return covering->dim() * covering->dim() *
             (covering->dim() + covering->size());
    case JobKind::kPackingLp:
      if (!lp) return 0;
      return lp->rows() * lp->size();
  }
  return 0;
}

util::ShapeBucket PreparedInstance::shape_bucket() const {
  switch (kind) {
    case JobKind::kPackingDense:
      if (!packing) return {};
      return util::ShapeBucket::of(
          packing->dim() * packing->dim() * packing->size(), packing->dim(),
          packing->size());
    case JobKind::kPackingFactorized:
      if (!factorized) return {};
      return util::ShapeBucket::of(factorized->total_nnz(),
                                   factorized->dim(), factorized->size());
    case JobKind::kCovering:
      if (!covering) return {};
      return util::ShapeBucket::of(
          covering->dim() * covering->dim() * covering->size(),
          covering->dim(), covering->size());
    case JobKind::kPackingLp:
      if (!lp) return {};
      return util::ShapeBucket::of(lp->rows() * lp->size(), lp->rows(),
                                   lp->size());
  }
  return {};
}

void PreparedInstance::validate() const {
  const int set = (packing != nullptr) + (factorized != nullptr) +
                  (covering != nullptr) + (lp != nullptr);
  PSDP_CHECK(set == 1, "serve: PreparedInstance must hold exactly one instance");
  switch (kind) {
    case JobKind::kPackingDense:
      PSDP_CHECK(packing != nullptr, "serve: kind/instance mismatch");
      break;
    case JobKind::kPackingFactorized:
      PSDP_CHECK(factorized != nullptr, "serve: kind/instance mismatch");
      break;
    case JobKind::kCovering:
      PSDP_CHECK(covering != nullptr && normalized != nullptr,
                 "serve: covering instances carry their normalization");
      break;
    case JobKind::kPackingLp:
      PSDP_CHECK(lp != nullptr, "serve: kind/instance mismatch");
      break;
  }
}

PreparedInstance prepare_packing(core::PackingInstance instance) {
  PreparedInstance prepared;
  prepared.kind = JobKind::kPackingDense;
  prepared.packing =
      std::make_shared<const core::PackingInstance>(std::move(instance));
  return prepared;
}

PreparedInstance prepare_factorized(core::FactorizedPackingInstance instance) {
  PreparedInstance prepared;
  prepared.kind = JobKind::kPackingFactorized;
  prepared.factorized = std::make_shared<const core::FactorizedPackingInstance>(
      std::move(instance));
  return prepared;
}

PreparedInstance prepare_covering(core::CoveringProblem problem) {
  PreparedInstance prepared;
  prepared.kind = JobKind::kCovering;
  prepared.covering =
      std::make_shared<const core::CoveringProblem>(std::move(problem));
  // The Appendix-A normalization (an O(m^3) eigensolve of C) is the
  // covering side's expensive per-instance artifact: do it once here, so
  // every (eps, probe) job on this problem reuses it.
  prepared.normalized = std::make_shared<const core::NormalizedProblem>(
      core::normalize(*prepared.covering));
  return prepared;
}

PreparedInstance prepare_lp(core::PackingLp lp) {
  PreparedInstance prepared;
  prepared.kind = JobKind::kPackingLp;
  prepared.lp = std::make_shared<const core::PackingLp>(std::move(lp));
  return prepared;
}

ArtifactCache::ArtifactCache(Options options)
    : options_(std::move(options)),
      plan_cache_(std::max<std::size_t>(options_.capacity * 4, 16)) {
  PSDP_CHECK(options_.capacity >= 1, "serve: cache capacity must be positive");
  slots_.reserve(options_.capacity);
}

sparse::TransposePlanOptions ArtifactCache::plan_options() {
  sparse::TransposePlanOptions plan = options_.plan;
  // The whole point of the owned memo: builders tune into this cache, not
  // the process-wide one.
  plan.autotune.plan_cache = &plan_cache_;
  return plan;
}

void ArtifactCache::insert_slot_locked(std::shared_ptr<Entry> entry) {
  if (slots_.size() >= options_.capacity) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i].last_used < slots_[victim].last_used) victim = i;
    }
    slots_[victim] = Slot{std::move(entry), ++tick_};
    ++stats_.evictions;
  } else {
    slots_.push_back(Slot{std::move(entry), ++tick_});
  }
}

ArtifactCache::Resolved ArtifactCache::get(const std::string& key,
                                           const Builder& build) {
  PSDP_CHECK(build != nullptr, "serve: ArtifactCache::get needs a builder");
  std::shared_ptr<Entry> entry;
  bool inserted = false;
  std::unique_lock<std::mutex> build_lock;
  const auto find_locked = [&]() -> std::shared_ptr<Entry> {
    for (Slot& slot : slots_) {
      if (slot.entry->key_ == key) {
        slot.last_used = ++tick_;
        return slot.entry;
      }
    }
    return nullptr;
  };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entry = find_locked();
  }
  if (!entry) {
    // A new key. The inserting lane holds the entry's build lock before
    // the entry becomes visible, so a lane that finds it always waits for
    // this build. Otherwise that lane could take the build lock first,
    // build the entry itself, and both lanes would report a miss. The
    // build lock is taken before the cache lock, the order the failed-
    // build cleanup below uses too.
    auto fresh = std::make_shared<Entry>();
    fresh->key_ = key;
    fresh->pool_cap_ = options_.workspaces_per_entry;
    fresh->owner_ = this;
    std::unique_lock<std::mutex> fresh_lock(fresh->build_mutex_);
    std::lock_guard<std::mutex> lock(mutex_);
    entry = find_locked();  // another lane may have inserted it meanwhile
    if (!entry) {
      entry = std::move(fresh);
      build_lock = std::move(fresh_lock);
      insert_slot_locked(entry);
      inserted = true;
      ++stats_.misses;
    }
  }
  // Build (or wait for the building lane) outside the cache lock: prepare
  // can run eigensolves and index builds, and other keys must not stall
  // behind it.
  if (!build_lock.owns_lock()) {
    build_lock = std::unique_lock<std::mutex>(entry->build_mutex_);
  }
  bool built_by_us = false;
  if (!entry->built_) {
    // Either we inserted the shell, or the inserting lane's builder threw
    // and we are the retry.
    built_by_us = true;
    try {
      entry->instance_ = build(plan_options());
      entry->instance_.validate();
      entry->built_ = true;
    } catch (...) {
      // Leave no half-built entry behind: a later get() must retry.
      std::lock_guard<std::mutex> lock(mutex_);
      slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                                  [&](const Slot& s) {
                                    return s.entry == entry;
                                  }),
                   slots_.end());
      throw;
    }
  }
  build_lock.unlock();
  const bool hit = !inserted && !built_by_us;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (hit) {
      ++stats_.hits;
    } else if (!inserted) {
      // We are the retry after a failed build whose catch erased the
      // slot: put the now-built entry back so later lookups hit it
      // (counted as the miss it effectively was) -- unless another lane
      // already re-populated the key with a fresh shell, in which case
      // theirs stays (two slots must never share one key; our entry
      // remains valid for this caller through its shared_ptr).
      bool key_present = false;
      for (Slot& slot : slots_) {
        if (slot.entry->key_ == key) {
          key_present = true;
          break;
        }
      }
      if (!key_present) {
        ++stats_.misses;
        insert_slot_locked(entry);
      }
    }
  }
  return Resolved{std::move(entry), hit};
}

std::shared_ptr<ArtifactCache::Entry> ArtifactCache::find(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Slot& slot : slots_) {
    if (slot.entry->key_ == key) return slot.entry;
  }
  return nullptr;
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

void ArtifactCache::clear() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.clear();
  }
  plan_cache_.clear();
}

WorkspaceLease::WorkspaceLease(std::shared_ptr<ArtifactCache::Entry> entry)
    : entry_(std::move(entry)) {
  if (!entry_) return;
  bool reused = false;
  {
    std::lock_guard<std::mutex> lock(entry_->pool_mutex_);
    if (!entry_->pool_.empty()) {
      workspace_ = std::move(entry_->pool_.back());
      entry_->pool_.pop_back();
      reused = true;
    }
  }
  if (!workspace_) {
    workspace_ = std::make_unique<core::SolverWorkspace>();
  }
  if (reused && entry_->owner_ != nullptr) {
    std::lock_guard<std::mutex> lock(entry_->owner_->mutex_);
    ++entry_->owner_->stats_.workspace_reuses;
  }
}

void WorkspaceLease::release() {
  if (!entry_ || !workspace_) {
    entry_.reset();
    workspace_.reset();
    return;
  }
  std::lock_guard<std::mutex> lock(entry_->pool_mutex_);
  if (entry_->pool_.size() < entry_->pool_cap_) {
    entry_->pool_.push_back(std::move(workspace_));
  }
  workspace_.reset();
  entry_.reset();
}

WorkspaceLease::~WorkspaceLease() { release(); }

WorkspaceLease::WorkspaceLease(WorkspaceLease&& other) noexcept
    : entry_(std::move(other.entry_)), workspace_(std::move(other.workspace_)) {
  other.entry_.reset();
  other.workspace_.reset();
}

WorkspaceLease& WorkspaceLease::operator=(WorkspaceLease&& other) noexcept {
  if (this != &other) {
    release();
    entry_ = std::move(other.entry_);
    workspace_ = std::move(other.workspace_);
    other.entry_.reset();
    other.workspace_.reset();
  }
  return *this;
}

}  // namespace psdp::serve
