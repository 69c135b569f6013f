// The batch solve service: many instances (or many configurations of one
// instance), scheduled latency-aware over the existing par thread pool.
//
// The repo's entry points solve exactly one instance per call; a serving
// deployment answers streams of heterogeneous jobs with deadlines.
// SolveBatch collects jobs (instance + OptimizeOptions + priority/deadline
// + optional completion callback); BatchScheduler runs them over a set of
// *lane threads* that drain a priority/EDF queue:
//
//   * NARROW jobs (work below SchedulerOptions::wide_work) run one per
//     lane with every parallel region executed inline on the lane thread
//     (par::ScopedRegionInline) -- a lane occupies exactly one thread
//     however many regions the solver opens, so pool width turns into job
//     throughput, exactly as the PR-5 static sharding did.
//   * WIDE jobs gang-schedule: one at a time (an exclusive token), with
//     regions dispatched to the shared pool at full width, exactly as a
//     solo call would.
//   * PREEMPTION: each running job carries a core::YieldPoint checked at
//     oracle-round boundaries. When a strictly more urgent narrow job is
//     waiting (higher priority, then earlier deadline), the lane parks the
//     current solve -- its state stays on this thread's stack and in its
//     leased SolverWorkspace -- runs the urgent job to completion inline,
//     and resumes. Elephants yield to mice between rounds.
//   * DYNAMIC LANE WIDENING: when the queue drains AND a narrow job is
//     the only one still running (idle lanes are parked on the condition
//     variable), it *promotes* at its next round boundary -- the inline
//     flag flips off, so subsequent regions run at full pool width (the
//     mechanism that attacks the "batch mode multiplies per-job latency
//     by the lane count" tail). The job demotes back to inline execution
//     as soon as the queue refills or another job starts; promoting while
//     peers still run would only oversubscribe the machine.
//   * ADMISSION CONTROL: with max_queue set, a full queue either rejects
//     the incoming job or sheds the least urgent waiting one
//     (AdmissionPolicy); either outcome is recorded in JobResult::shed.
//
// Determinism: all of the above reorders which job runs when and *where*
// its regions execute -- never the bits a job computes. Reductions fold
// over fixed pieces and every other loop writes disjoint outputs, so a
// job's results are bitwise identical to a solo run at any thread count,
// whether it ran inline on a lane, promoted to full width mid-solve, or
// was preempted between rounds (verified by bench_serve, bench_load and
// tests/test_serve.cpp).
//
// Artifacts are shared through the ArtifactCache (artifact_cache.hpp); a
// job that throws reports through JobResult::error and the batch always
// runs to completion.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/optimize.hpp"
#include "core/poslp.hpp"
#include "serve/artifact_cache.hpp"

namespace psdp::serve {

struct JobResult;  // declared below JobSpec, which carries its callback

/// One solve request: which prepared instance (by cache key + builder),
/// which solver configuration, how urgent it is, and how to report back.
struct JobSpec {
  /// ArtifactCache key -- jobs sharing it share every prepared artifact.
  std::string instance;
  /// Display label; defaults to "<instance>#<index>" when empty.
  std::string label;
  JobKind kind = JobKind::kPackingFactorized;
  /// Builds the instance when `instance` misses the cache. Required.
  ArtifactCache::Builder builder;
  /// Solver configuration (eps, probe_solver, decision knobs...). The
  /// factorized path's workspace pointer is overwritten with the job's
  /// pooled lease, and decision.yield with the scheduler's round-boundary
  /// check-in.
  core::OptimizeOptions options;
  /// Estimated per-iteration work; >= SchedulerOptions::wide_work runs the
  /// job at full pool width instead of inside a lane. 0 = narrow. The
  /// add_* helpers fill this from PreparedInstance::estimated_work().
  Index work = 0;
  /// Scheduling priority: higher runs first; ties broken by deadline
  /// (earlier first), then submission order.
  int priority = 0;
  /// Relative deadline in milliseconds from submission; nullopt = no
  /// deadline, 0 = due immediately (maximally urgent, and deadline_met
  /// will report whether it somehow finished in time -- an unset and a
  /// zero deadline are distinct states, not aliases). Under
  /// QueuePolicy::kEdf the queue orders by the resulting absolute
  /// deadline within a priority class; JobResult::deadline_met reports
  /// whether the job finished in time (deadlines steer scheduling, they
  /// never abort a solve).
  std::optional<double> deadline_ms;
  /// Invoked right after the job finishes (or is shed), on whichever
  /// thread ran it (lane threads included) -- keep it cheap and
  /// thread-safe. A throwing callback cannot fail the batch: its
  /// exception is recorded in JobResult::callback_error and the job still
  /// counts as succeeded.
  std::function<void(const JobResult&)> on_complete;
};

/// Everything one job produced. Exactly one of the payload fields matching
/// `kind` is meaningful when ok.
struct JobResult {
  std::size_t index = 0;  ///< position in the batch / submission order
  std::string instance;
  std::string label;
  JobKind kind = JobKind::kPackingFactorized;
  bool ok = false;
  std::string error;      ///< what() of the failure when !ok
  bool shed = false;      ///< dropped by admission control (never started)
  double seconds = 0;       ///< == run_seconds (kept for compatibility)
  double queue_seconds = 0; ///< wall clock from submission to first start
  double run_seconds = 0;   ///< wall clock from first start to finish
                            ///< (artifact resolve + solve; includes time
                            ///< parked while preempted)
  std::optional<double> deadline_ms;  ///< echo of JobSpec::deadline_ms
  bool deadline_met = true; ///< false iff a deadline was set and missed
  bool cache_hit = false; ///< artifacts served without running the builder
  int lane = -1;          ///< lane that ran it; -1 = full-width (wide) job
  int preemptions = 0;    ///< times this job yielded to a more urgent one
  bool promoted = false;  ///< widened to full pool width mid-run
  std::string callback_error;  ///< what() of a throwing on_complete
  core::PackingOptimum packing;    ///< kPackingDense / kPackingFactorized
  core::CoveringOptimum covering;  ///< kCovering
  core::LpOptimum lp;              ///< kPackingLp
};

/// True when two results of the same kind carry bitwise-identical solver
/// payloads (bounds, certificate vectors, iteration counts) -- the
/// lane-vs-solo identity predicate shared by bench_serve, bench_load and
/// the tests. Scheduling metadata (lane, timing, preemptions) is ignored.
bool payload_bitwise_equal(const JobResult& a, const JobResult& b);

/// An ordered collection of jobs submitted as one unit.
class SolveBatch {
 public:
  /// Append a fully-specified job; returns its index (== result index).
  std::size_t add(JobSpec job);

  /// Convenience adders for preloaded shared instances: the builder wraps
  /// the pointer (so a cache miss costs nothing but bookkeeping), `work`
  /// is derived from the instance, and `kind` is set for you.
  std::size_t add_packing(std::string key,
                          std::shared_ptr<const core::PackingInstance> instance,
                          core::OptimizeOptions options = {},
                          std::string label = "");
  std::size_t add_factorized(
      std::string key,
      std::shared_ptr<const core::FactorizedPackingInstance> instance,
      core::OptimizeOptions options = {}, std::string label = "");
  std::size_t add_covering(std::string key,
                           std::shared_ptr<const core::CoveringProblem> problem,
                           core::OptimizeOptions options = {},
                           std::string label = "");
  std::size_t add_lp(std::string key,
                     std::shared_ptr<const core::PackingLp> lp,
                     core::OptimizeOptions options = {},
                     std::string label = "");

  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }
  const std::vector<JobSpec>& jobs() const { return jobs_; }
  std::vector<JobSpec>& jobs() { return jobs_; }

 private:
  std::vector<JobSpec> jobs_;
};

/// Queue discipline for waiting jobs.
enum class QueuePolicy {
  kFifo,  ///< submission order (the PR-5 static-sharding baseline)
  kEdf,   ///< priority desc, then earliest absolute deadline, then FIFO
};

/// What happens to an arrival when the queue is at max_queue.
enum class AdmissionPolicy {
  kReject,      ///< the arrival is shed
  kShedLowest,  ///< the least urgent *waiting* job is shed if the arrival
                ///< is more urgent; otherwise the arrival is shed
};

struct SchedulerOptions {
  /// Concurrent lane threads draining the queue. 0 = auto: for run(),
  /// min(batch size, par::num_threads()); for open(), par::num_threads().
  /// Defaulted from the tunable registry (`lanes`, default 0).
  int lanes = static_cast<int>(util::tunable_lanes());
  /// JobSpec::work at or above this runs at full pool width, alone.
  /// Defaulted from the tunable registry (`wide_work`, default 2^26).
  Index wide_work = util::tunable_wide_work();
  /// Artifact-cache sizing and transpose-plan build options.
  ArtifactCache::Options cache;
  /// Waiting-job order. kEdf is the latency-aware default; kFifo
  /// reproduces the PR-5 baseline schedule.
  QueuePolicy queue = QueuePolicy::kEdf;
  /// Admission bound on *waiting* jobs (running jobs excluded); 0 =
  /// unbounded.
  std::size_t max_queue = 0;
  /// Applied when an arrival finds the queue at max_queue.
  AdmissionPolicy admission = AdmissionPolicy::kReject;
  /// Allow a lane to park its job at a round boundary and run a strictly
  /// more urgent waiting narrow job first.
  bool preemption = true;
  /// Allow a narrow job to widen to full pool width at a round boundary
  /// while the queue is empty (and demote when it refills).
  bool widening = true;
};

/// Scheduling counters accumulated across a scheduler's lifetime.
struct SchedulerStats {
  std::uint64_t preemptions = 0;  ///< urgent jobs run inside a parked one
  std::uint64_t promotions = 0;   ///< narrow jobs widened to full width
  std::uint64_t demotions = 0;    ///< widened jobs returned to a lane
  std::uint64_t shed = 0;         ///< jobs dropped by admission control
  std::uint64_t completed = 0;    ///< jobs finished (ok or failed)
  std::uint64_t deadline_misses = 0;  ///< finished after their deadline
  std::size_t peak_queue = 0;     ///< max waiting-job count observed
  /// Slot-recycling counters: slots_live is the slot arena's current size
  /// (bounded by concurrent jobs, not total submissions -- the 10k-job
  /// regression test asserts this), slots_recycled counts retired slots
  /// reused for later submissions.
  std::size_t slots_live = 0;
  std::uint64_t slots_recycled = 0;
};

/// The batch executor. One scheduler owns one ArtifactCache, so artifacts
/// persist across run() calls: a warm scheduler serves repeat batches with
/// zero instance preparation.
///
/// Two faces over one engine:
///   * run(batch) / run_async(batch): submit every job at once, block (or
///     future-wait) for all results -- the PR-5 interface.
///   * open() / submit(job) / close(): streaming arrivals. submit() is
///     callable from any thread while open; queue_seconds measures real
///     queueing from the submission instant. close() drains and returns
///     results in submission order.
class BatchScheduler {
 public:
  explicit BatchScheduler(SchedulerOptions options = {});
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Run every job; returns results indexed like the batch. Blocks until
  /// the batch is drained. Call from a non-worker thread. Job failures
  /// land in JobResult::error; infrastructure failures (a builder
  /// throwing) fail the affected jobs, never the batch.
  std::vector<JobResult> run(const SolveBatch& batch);

  /// run() on a detached driver thread; the future carries the results.
  /// The batch is moved into the driver. Per-job on_complete callbacks
  /// remain the streaming interface; the future is the terminal barrier.
  std::future<std::vector<JobResult>> run_async(SolveBatch batch);

  /// Start `lanes` lane threads (0 = auto) and accept submissions. Call
  /// open() and close() from the same thread (they bracket the scheduler's
  /// one-session-at-a-time lock); submit() may come from any thread.
  void open(int lanes = 0);
  /// Enqueue one job; returns its result index. The job may be shed
  /// immediately by admission control (its on_complete still fires).
  /// Requires an open scheduler.
  std::size_t submit(JobSpec job);
  /// Stop accepting, drain every queued job, join the lanes, and return
  /// all results (shed ones included) in submission order.
  std::vector<JobResult> close();

  ArtifactCache& cache() { return cache_; }
  const SchedulerOptions& options() const { return options_; }
  SchedulerStats stats() const;

 private:
  struct Slot;
  class LaneYield;
  friend class LaneYield;

  using Clock = std::chrono::steady_clock;

  void lane_loop(int lane);
  /// Most urgent runnable waiting job (skips wide jobs while the wide
  /// token is held); nullptr when none. Caller holds mutex_; the slot is
  /// removed from waiting_ and stamped as started.
  Slot* claim_next_locked();
  /// Strictly-more-urgent-than-`running` narrow waiting job, claimed and
  /// stamped; nullptr when none. Takes mutex_ internally.
  Slot* claim_more_urgent(const Slot& running);
  /// True when a is scheduled before b under options_.queue.
  bool more_urgent(const Slot& a, const Slot& b) const;
  void execute(Slot& slot, int lane);
  void run_job(const JobSpec& spec, JobResult& result, int lane,
               core::YieldPoint* yield);
  void finish(Slot& slot);
  void shed_locked(Slot& slot, const char* why);
  void invoke_callback(Slot& slot);
  /// Move the slot's result into results_ (its terminal home) and push the
  /// slot onto the free list for reuse by a later submission. Called with
  /// mutex_ held, after the callback fired -- the last use of the slot.
  void retire_locked(Slot& slot);

  SchedulerOptions options_;
  ArtifactCache cache_;
  std::mutex run_mutex_;  ///< one batch / open-close session at a time
  std::unique_lock<std::mutex> run_lock_;  ///< held while a session is open

  mutable std::mutex mutex_;            ///< queue + stats + lifecycle state
  std::condition_variable work_cv_;     ///< lanes: new work, token, closing
  /// Pointer-stable slot arena. Slots are RECYCLED: when a job retires
  /// (finished or shed, callback delivered, result moved to results_) its
  /// slot joins free_slots_ and serves a later submission, so the arena's
  /// size tracks the number of in-flight jobs -- lanes plus queue -- not
  /// the session's total submissions. A streaming session of 10k jobs
  /// keeps a handful of slots live (test_serve locks this); pointers held
  /// by waiting_/lanes stay valid because retirement strictly follows the
  /// last use.
  std::deque<Slot> slots_;
  std::vector<Slot*> free_slots_;       ///< retired slots awaiting reuse
  std::size_t submitted_ = 0;           ///< submission-order index counter
  std::vector<JobResult> results_;      ///< terminal results by index
  std::vector<Slot*> waiting_;          ///< admission-accepted, not started
  std::vector<std::thread> lane_threads_;
  bool session_open_ = false;
  bool closing_ = false;
  bool wide_active_ = false;  ///< the gang token: one wide job at a time
  SchedulerStats stats_;
  /// Lock-free hints for the per-round fast path (LaneYield::check reads
  /// these without taking mutex_).
  std::atomic<std::size_t> waiting_count_{0};
  std::atomic<int> running_count_{0};
  std::atomic<bool> wide_active_hint_{false};
};

}  // namespace psdp::serve
