#include "serve/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "par/parallel.hpp"
#include "util/timer.hpp"

namespace psdp::serve {

namespace {

double to_seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Nested preemption depth cap: an urgent job preempted by a still more
/// urgent one nests run_job frames on the lane's stack; three levels cover
/// every realistic priority/deadline ladder without unbounded recursion.
constexpr int kMaxPreemptDepth = 3;

}  // namespace

std::size_t SolveBatch::add(JobSpec job) {
  PSDP_CHECK(!job.instance.empty(), "serve: job needs an instance key");
  PSDP_CHECK(job.builder != nullptr, "serve: job needs an instance builder");
  if (job.label.empty()) {
    job.label = str(job.instance, "#", jobs_.size());
  }
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

std::size_t SolveBatch::add_packing(
    std::string key, std::shared_ptr<const core::PackingInstance> instance,
    core::OptimizeOptions options, std::string label) {
  PSDP_CHECK(instance != nullptr, "serve: null instance");
  JobSpec job;
  job.instance = std::move(key);
  job.label = std::move(label);
  job.kind = JobKind::kPackingDense;
  job.options = std::move(options);
  job.builder = [instance] {
    PreparedInstance prepared;
    prepared.kind = JobKind::kPackingDense;
    prepared.packing = instance;
    return prepared;
  };
  PreparedInstance probe;
  probe.kind = job.kind;
  probe.packing = instance;
  job.work = probe.estimated_work();
  return add(std::move(job));
}

std::size_t SolveBatch::add_factorized(
    std::string key,
    std::shared_ptr<const core::FactorizedPackingInstance> instance,
    core::OptimizeOptions options, std::string label) {
  PSDP_CHECK(instance != nullptr, "serve: null instance");
  JobSpec job;
  job.instance = std::move(key);
  job.label = std::move(label);
  job.kind = JobKind::kPackingFactorized;
  job.options = std::move(options);
  job.builder = [instance] {
    PreparedInstance prepared;
    prepared.kind = JobKind::kPackingFactorized;
    prepared.factorized = instance;
    return prepared;
  };
  PreparedInstance probe;
  probe.kind = job.kind;
  probe.factorized = instance;
  job.work = probe.estimated_work();
  return add(std::move(job));
}

std::size_t SolveBatch::add_covering(
    std::string key, std::shared_ptr<const core::CoveringProblem> problem,
    core::OptimizeOptions options, std::string label) {
  PSDP_CHECK(problem != nullptr, "serve: null instance");
  JobSpec job;
  job.instance = std::move(key);
  job.label = std::move(label);
  job.kind = JobKind::kCovering;
  job.options = std::move(options);
  job.builder = [problem] {
    PreparedInstance prepared;
    prepared.kind = JobKind::kCovering;
    prepared.covering = problem;
    prepared.normalized = std::make_shared<const core::NormalizedProblem>(
        core::normalize(*problem));
    return prepared;
  };
  PreparedInstance probe;
  probe.kind = job.kind;
  probe.covering = problem;
  job.work = probe.estimated_work();
  return add(std::move(job));
}

std::size_t SolveBatch::add_lp(std::string key,
                               std::shared_ptr<const core::PackingLp> lp,
                               core::OptimizeOptions options,
                               std::string label) {
  PSDP_CHECK(lp != nullptr, "serve: null instance");
  JobSpec job;
  job.instance = std::move(key);
  job.label = std::move(label);
  job.kind = JobKind::kPackingLp;
  job.options = std::move(options);
  job.builder = [lp] {
    PreparedInstance prepared;
    prepared.kind = JobKind::kPackingLp;
    prepared.lp = lp;
    return prepared;
  };
  PreparedInstance probe;
  probe.kind = job.kind;
  probe.lp = lp;
  job.work = probe.estimated_work();
  return add(std::move(job));
}

bool payload_bitwise_equal(const JobResult& a, const JobResult& b) {
  if (a.ok != b.ok) return false;
  if (!a.ok) return true;  // both failed: error text may name paths etc.
  if (a.kind != b.kind) return false;
  const auto vectors_equal = [](const linalg::Vector& x,
                                const linalg::Vector& y) {
    if (x.size() != y.size()) return false;
    for (Index i = 0; i < x.size(); ++i) {
      if (x[i] != y[i]) return false;
    }
    return true;
  };
  switch (a.kind) {
    case JobKind::kPackingDense:
    case JobKind::kPackingFactorized:
      return a.packing.lower == b.packing.lower &&
             a.packing.upper == b.packing.upper &&
             vectors_equal(a.packing.best_x, b.packing.best_x);
    case JobKind::kCovering:
      return a.covering.objective == b.covering.objective &&
             a.covering.lower_bound == b.covering.lower_bound &&
             a.covering.packing.lower == b.covering.packing.lower &&
             a.covering.packing.upper == b.covering.packing.upper;
    case JobKind::kPackingLp:
      return a.lp.lower == b.lp.lower && a.lp.upper == b.lp.upper &&
             vectors_equal(a.lp.best_x, b.lp.best_x);
  }
  return false;
}

/// One accepted job: its spec, its (in-place accumulated) result, and the
/// scheduling timestamps. Lives in the pointer-stable slots_ deque until the
/// job retires (result harvested into results_, callback delivered), then is
/// recycled for a later submission.
struct BatchScheduler::Slot {
  JobSpec spec;
  JobResult result;
  Clock::time_point enqueue;
  Clock::time_point deadline;  ///< valid when has_deadline
  bool has_deadline = false;
  Clock::time_point start;     ///< stamped when a lane claims the job
  bool wide = false;           ///< work >= wide_work: gang-scheduled
};

/// The per-job round-boundary check-in (yield_point.hpp). Runs on the lane
/// thread that owns the job, between oracle rounds, with no locks held:
///
///   1. demote a widened job back to inline execution if the queue refilled;
///   2. run every strictly-more-urgent waiting narrow job to completion,
///      inline, while the current solve stays parked on this stack;
///   3. promote to full pool width while the queue is empty and no wide
///      job holds the gang token.
///
/// None of this can change the parked or the borrowed job's bits: loop
/// partitioning depends only on the global par::num_threads().
class BatchScheduler::LaneYield final : public core::YieldPoint {
 public:
  LaneYield(BatchScheduler* scheduler, Slot* slot, int lane, int depth)
      : scheduler_(scheduler), slot_(slot), lane_(lane), depth_(depth) {}

  void check() override {
    BatchScheduler& s = *scheduler_;
    // Fast path: nothing waiting and nothing to demote -- at most the
    // promotion check below touches shared state, and only via atomics.
    if (promoted_ &&
        (s.waiting_count_.load(std::memory_order_relaxed) > 0 ||
         s.running_count_.load(std::memory_order_relaxed) > 1)) {
      // The queue refilled (or a peer started): hand the pool back,
      // return to one-thread inline execution.
      par::set_regions_inlined(true);
      promoted_ = false;
      std::lock_guard<std::mutex> lock(s.mutex_);
      ++s.stats_.demotions;
    }
    if (s.options_.preemption && depth_ < kMaxPreemptDepth &&
        s.waiting_count_.load(std::memory_order_relaxed) > 0) {
      while (Slot* urgent = s.claim_more_urgent(*slot_)) {
        ++slot_->result.preemptions;
        // The urgent job runs inline on this lane thread, to completion;
        // the parked solve's state waits on this stack and in its leased
        // workspace.
        par::ScopedRegionInline inline_guard(true);
        LaneYield nested(scheduler_, urgent, lane_, depth_ + 1);
        urgent->result.lane = lane_;
        s.run_job(urgent->spec, urgent->result, lane_, &nested);
        s.finish(*urgent);
      }
    }
    if (s.options_.widening && !slot_->wide && !promoted_ &&
        par::regions_inlined() &&
        s.waiting_count_.load(std::memory_order_relaxed) == 0 &&
        s.running_count_.load(std::memory_order_relaxed) == 1 &&
        !s.wide_active_hint_.load(std::memory_order_relaxed)) {
      // The queue drained and this is the sole runner: every other lane
      // is parked, so take the whole pool for the remaining rounds.
      par::set_regions_inlined(false);
      promoted_ = true;
      slot_->result.promoted = true;
      std::lock_guard<std::mutex> lock(s.mutex_);
      ++s.stats_.promotions;
    }
  }

 private:
  BatchScheduler* scheduler_;
  Slot* slot_;
  int lane_;
  int depth_;
  bool promoted_ = false;
};

BatchScheduler::BatchScheduler(SchedulerOptions options)
    : options_(std::move(options)), cache_(options_.cache) {}

BatchScheduler::~BatchScheduler() {
  // A session left open (close() never called) must not leak running
  // threads; drain and join exactly as close() would.
  if (session_open_) close();
}

bool BatchScheduler::more_urgent(const Slot& a, const Slot& b) const {
  if (options_.queue == QueuePolicy::kFifo) {
    return a.result.index < b.result.index;
  }
  if (a.spec.priority != b.spec.priority) {
    return a.spec.priority > b.spec.priority;
  }
  if (a.has_deadline != b.has_deadline) return a.has_deadline;
  if (a.has_deadline && a.deadline != b.deadline) {
    return a.deadline < b.deadline;
  }
  return a.result.index < b.result.index;
}

BatchScheduler::Slot* BatchScheduler::claim_next_locked() {
  Slot* best = nullptr;
  std::size_t best_at = 0;
  for (std::size_t i = 0; i < waiting_.size(); ++i) {
    Slot* s = waiting_[i];
    if (s->wide && wide_active_) continue;  // gang token held
    if (best == nullptr || more_urgent(*s, *best)) {
      best = s;
      best_at = i;
    }
  }
  if (best == nullptr) return nullptr;
  waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(best_at));
  waiting_count_.store(waiting_.size(), std::memory_order_relaxed);
  if (best->wide) {
    wide_active_ = true;
    wide_active_hint_.store(true, std::memory_order_relaxed);
  }
  running_count_.fetch_add(1, std::memory_order_relaxed);
  best->start = Clock::now();
  best->result.queue_seconds = to_seconds(best->start - best->enqueue);
  return best;
}

BatchScheduler::Slot* BatchScheduler::claim_more_urgent(const Slot& running) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot* best = nullptr;
  std::size_t best_at = 0;
  for (std::size_t i = 0; i < waiting_.size(); ++i) {
    Slot* s = waiting_[i];
    if (s->wide) continue;  // never borrow a lane for a wide job
    if (!more_urgent(*s, running)) continue;
    if (best == nullptr || more_urgent(*s, *best)) {
      best = s;
      best_at = i;
    }
  }
  if (best == nullptr) return nullptr;
  waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(best_at));
  waiting_count_.store(waiting_.size(), std::memory_order_relaxed);
  running_count_.fetch_add(1, std::memory_order_relaxed);
  best->start = Clock::now();
  best->result.queue_seconds = to_seconds(best->start - best->enqueue);
  ++stats_.preemptions;
  return best;
}

void BatchScheduler::run_job(const JobSpec& spec, JobResult& result, int lane,
                             core::YieldPoint* yield) {
  result.lane = lane;
  try {
    const ArtifactCache::Resolved resolved =
        cache_.get(spec.instance, spec.builder);
    result.cache_hit = resolved.hit;
    const PreparedInstance& prepared = resolved.entry->instance();
    PSDP_CHECK(prepared.kind == spec.kind,
               str("serve: job '", spec.label, "' expects ",
                   job_kind_name(spec.kind), " but instance '", spec.instance,
                   "' is prepared as ", job_kind_name(prepared.kind)));
    // The scheduler's round-boundary check-in rides into every solver
    // variant through the decision options (probe_schedule_options copies
    // it into the phased/bucketed probe configs).
    core::OptimizeOptions options = spec.options;
    options.decision.yield = yield;
    switch (spec.kind) {
      case JobKind::kPackingDense:
        result.packing = core::approx_packing(*prepared.packing, options);
        break;
      case JobKind::kPackingFactorized: {
        // The pooled workspace: recycled scratch keeps the steady state
        // allocation-free without sharing buffers between concurrent jobs.
        WorkspaceLease lease(resolved.entry);
        options.decision.workspace = lease.get();
        result.packing = core::approx_packing(*prepared.factorized, options);
        break;
      }
      case JobKind::kCovering:
        // The cached normalization: the per-instance O(m^3) eigensolve was
        // paid once at prepare time.
        result.covering =
            core::approx_covering(*prepared.normalized, options);
        break;
      case JobKind::kPackingLp:
        result.lp = core::approx_packing_lp(*prepared.lp, options);
        break;
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  } catch (...) {
    // Builders and callbacks are arbitrary user callables; even a
    // non-std exception must not escape into the lane (it would take the
    // whole lane thread down instead of this job).
    result.ok = false;
    result.error = "non-standard exception";
  }
}

void BatchScheduler::invoke_callback(Slot& slot) {
  if (!slot.spec.on_complete) return;
  try {
    slot.spec.on_complete(slot.result);
  } catch (const std::exception& e) {
    // A throwing callback cannot fail the job (its result is already
    // recorded) -- but it must not be silently swallowed either: the
    // failure is reported through callback_error.
    slot.result.callback_error = e.what();
  } catch (...) {
    slot.result.callback_error = "non-standard exception";
  }
}

void BatchScheduler::finish(Slot& slot) {
  const Clock::time_point now = Clock::now();
  slot.result.run_seconds = to_seconds(now - slot.start);
  slot.result.seconds = slot.result.run_seconds;
  if (slot.has_deadline) slot.result.deadline_met = now <= slot.deadline;
  running_count_.fetch_sub(1, std::memory_order_relaxed);
  invoke_callback(slot);
  const bool release_token = slot.wide;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.completed;
    if (slot.has_deadline && !slot.result.deadline_met) {
      ++stats_.deadline_misses;
    }
    if (release_token) {
      wide_active_ = false;
      wide_active_hint_.store(false, std::memory_order_relaxed);
    }
    retire_locked(slot);
  }
  // Lanes may be sleeping on the gang token; wake them now that it is
  // free (narrow finishes wake nobody -- a waiting lane only sleeps when
  // there is nothing it could run).
  if (release_token) work_cv_.notify_all();
}

void BatchScheduler::execute(Slot& slot, int lane) {
  LaneYield yield(this, &slot, lane, /*depth=*/0);
  if (slot.wide) {
    // Gang-scheduled: regions fan out to the shared pool at full width,
    // exactly as a solo call would; reported as lane -1.
    run_job(slot.spec, slot.result, /*lane=*/-1, &yield);
  } else {
    // Narrow: every region runs inline, so this job occupies exactly one
    // thread -- until the yield point promotes it.
    par::ScopedRegionInline inline_guard(true);
    run_job(slot.spec, slot.result, lane, &yield);
  }
}

void BatchScheduler::lane_loop(int lane) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] { return closing_ || !waiting_.empty(); });
    if (waiting_.empty()) {
      if (closing_) return;
      continue;  // spurious / raced wakeup
    }
    Slot* slot = claim_next_locked();
    if (slot == nullptr) {
      // Only wide jobs remain and the gang token is held: sleep until the
      // token frees, new work arrives, or the scheduler closes (all three
      // notify under mutex_, so no wakeup can be lost).
      work_cv_.wait(lock);
      continue;
    }
    lock.unlock();
    execute(*slot, lane);
    finish(*slot);
    lock.lock();
  }
}

void BatchScheduler::open(int lanes) {
  std::unique_lock<std::mutex> run_lock(run_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PSDP_CHECK(!session_open_, "serve: scheduler session already open");
    session_open_ = true;
    closing_ = false;
    slots_.clear();
    free_slots_.clear();
    results_.clear();
    submitted_ = 0;
    waiting_.clear();
    waiting_count_.store(0, std::memory_order_relaxed);
    running_count_.store(0, std::memory_order_relaxed);
    wide_active_ = false;
    wide_active_hint_.store(false, std::memory_order_relaxed);
  }
  const int n = lanes > 0 ? lanes : par::num_threads();
  lane_threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    lane_threads_.emplace_back([this, i] { lane_loop(i); });
  }
  run_lock_ = std::move(run_lock);
}

std::size_t BatchScheduler::submit(JobSpec job) {
  PSDP_CHECK(!job.instance.empty(), "serve: job needs an instance key");
  PSDP_CHECK(job.builder != nullptr, "serve: job needs an instance builder");
  Slot* shed_slot = nullptr;
  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PSDP_CHECK(session_open_ && !closing_,
               "serve: submit() needs an open scheduler");
    index = submitted_++;
    results_.emplace_back();  // terminal home, filled when the job retires
    Slot* reused = nullptr;
    if (!free_slots_.empty()) {
      reused = free_slots_.back();
      free_slots_.pop_back();
      *reused = Slot{};
      ++stats_.slots_recycled;
    } else {
      slots_.emplace_back();
      reused = &slots_.back();
    }
    Slot& slot = *reused;
    slot.spec = std::move(job);
    if (slot.spec.label.empty()) {
      slot.spec.label = str(slot.spec.instance, "#", index);
    }
    slot.result.index = index;
    slot.result.instance = slot.spec.instance;
    slot.result.label = slot.spec.label;
    slot.result.kind = slot.spec.kind;
    slot.result.deadline_ms = slot.spec.deadline_ms;
    slot.enqueue = Clock::now();
    // An engaged optional is a deadline, zero included: deadline-ms=0 means
    // "due immediately" (front of its priority class under EDF, and
    // deadline_met almost surely false), not "no deadline" -- the unset
    // state is the optional being empty, so an explicit 0 can no longer
    // silently disable the deadline.
    slot.has_deadline = slot.spec.deadline_ms.has_value();
    if (slot.has_deadline) {
      slot.deadline =
          slot.enqueue + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 *slot.spec.deadline_ms));
    }
    slot.wide = slot.spec.work >= options_.wide_work;

    // Admission control: the bound applies to *waiting* jobs only.
    if (options_.max_queue > 0 && waiting_.size() >= options_.max_queue) {
      if (options_.admission == AdmissionPolicy::kShedLowest) {
        // Shed the least urgent waiting job if the arrival outranks it;
        // otherwise the arrival itself is shed.
        Slot* worst = nullptr;
        std::size_t worst_at = 0;
        for (std::size_t i = 0; i < waiting_.size(); ++i) {
          if (worst == nullptr || more_urgent(*worst, *waiting_[i])) {
            worst = waiting_[i];
            worst_at = i;
          }
        }
        if (worst != nullptr && more_urgent(slot, *worst)) {
          waiting_.erase(waiting_.begin() +
                         static_cast<std::ptrdiff_t>(worst_at));
          shed_locked(*worst, "shed: displaced by a more urgent arrival");
          shed_slot = worst;
        } else {
          shed_locked(slot, "shed: queue full");
          shed_slot = &slot;
        }
      } else {
        shed_locked(slot, "rejected: queue full");
        shed_slot = &slot;
      }
    }
    if (shed_slot != &slot) {
      waiting_.push_back(&slot);
      waiting_count_.store(waiting_.size(), std::memory_order_relaxed);
      stats_.peak_queue = std::max(stats_.peak_queue, waiting_.size());
    }
  }
  work_cv_.notify_all();
  // The shed job's callback fires outside the lock (it is user code); the
  // slot retires right after -- the callback was its last use.
  if (shed_slot != nullptr) {
    invoke_callback(*shed_slot);
    std::lock_guard<std::mutex> lock(mutex_);
    retire_locked(*shed_slot);
  }
  return index;
}

void BatchScheduler::retire_locked(Slot& slot) {
  const std::size_t index = slot.result.index;
  results_[index] = std::move(slot.result);
  free_slots_.push_back(&slot);
}

void BatchScheduler::shed_locked(Slot& slot, const char* why) {
  slot.result.ok = false;
  slot.result.shed = true;
  slot.result.error = why;
  slot.result.queue_seconds = to_seconds(Clock::now() - slot.enqueue);
  if (slot.has_deadline) slot.result.deadline_met = false;
  waiting_count_.store(waiting_.size(), std::memory_order_relaxed);
  ++stats_.shed;
}

std::vector<JobResult> BatchScheduler::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PSDP_CHECK(session_open_, "serve: close() needs an open scheduler");
    closing_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : lane_threads_) t.join();
  lane_threads_.clear();

  std::vector<JobResult> results;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Every job retired at finish/shed time, so results_ is complete and
    // already in submission order.
    results = std::move(results_);
    results_.clear();
    slots_.clear();
    free_slots_.clear();
    submitted_ = 0;
    waiting_.clear();
    waiting_count_.store(0, std::memory_order_relaxed);
    session_open_ = false;
    closing_ = false;
  }
  run_lock_.unlock();
  return results;
}

std::vector<JobResult> BatchScheduler::run(const SolveBatch& batch) {
  if (batch.empty()) return {};
  const int lanes =
      options_.lanes > 0
          ? options_.lanes
          : static_cast<int>(std::min<std::size_t>(
                batch.size(), static_cast<std::size_t>(par::num_threads())));
  open(lanes);
  for (const JobSpec& job : batch.jobs()) submit(job);
  return close();
}

std::future<std::vector<JobResult>> BatchScheduler::run_async(
    SolveBatch batch) {
  // A dedicated driver thread (not a pool worker): the driver opens and
  // closes the session just as a synchronous caller would.
  return std::async(std::launch::async,
                    [this, batch = std::move(batch)] { return run(batch); });
}

SchedulerStats BatchScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SchedulerStats out = stats_;
  out.slots_live = slots_.size();
  return out;
}

}  // namespace psdp::serve
