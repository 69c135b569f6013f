// A fixed-size fork-join thread pool.
//
// The paper's algorithm is flat data-parallel: every iteration is a batch of
// independent matvecs and coordinate updates. A static pool with blocking
// task submission is sufficient and keeps the work/depth structure of the
// PRAM analysis visible (no work stealing, no oversubscription).
//
// Nested parallel regions execute serially on the calling worker: this keeps
// the pool deadlock-free without a full task-graph scheduler, and matches
// how the algorithms use parallelism (one level of parallel_for at a time).
//
// Submission is allocation-free in the steady state: tasks are passed as
// non-owning TaskRef (no std::function heap traffic) and batch descriptors
// are recycled from a small slot pool once no worker holds them. This is
// what lets a solver iteration run with zero heap allocations after warmup
// (see bench_variants --alloc-guard).
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/common.hpp"

namespace psdp::par {

/// Non-owning reference to a callable invoked as f(Index). The referenced
/// callable must outlive the call it is passed to -- always true for
/// run_batch, which blocks until the batch is drained. Copying a TaskRef
/// copies two pointers; nothing is allocated.
class TaskRef {
 public:
  TaskRef() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, TaskRef> &&
                std::is_invocable_v<const std::decay_t<F>&, Index>>>
  TaskRef(const F& f)  // NOLINT(google-explicit-constructor)
      : obj_(&f), invoke_([](const void* o, Index k) {
          (*static_cast<const F*>(o))(k);
        }) {}

  void operator()(Index k) const { invoke_(obj_, k); }

 private:
  const void* obj_ = nullptr;
  void (*invoke_)(const void*, Index) = nullptr;
};

/// Thread-local inline-execution override: while set, every run_batch
/// submitted from this thread executes its tasks inline (sequentially, in
/// task order) instead of dispatching to the pool -- exactly what a nested
/// region or a zero-worker pool would do. The serve scheduler's narrow
/// lanes run under this flag so a whole solve occupies one thread; clearing
/// it mid-solve (at an oracle-round boundary) re-routes subsequent regions
/// to the shared pool at full width. Results are unaffected either way:
/// reductions fold over fixed pieces and every other loop writes disjoint
/// outputs, so no bit depends on the thread count or on which thread
/// executes a chunk.
bool regions_inlined();
void set_regions_inlined(bool inlined);

/// RAII save/set/restore of the inline-execution flag.
class ScopedRegionInline {
 public:
  explicit ScopedRegionInline(bool inlined) : prev_(regions_inlined()) {
    set_regions_inlined(inlined);
  }
  ~ScopedRegionInline() { set_regions_inlined(prev_); }
  ScopedRegionInline(const ScopedRegionInline&) = delete;
  ScopedRegionInline& operator=(const ScopedRegionInline&) = delete;

 private:
  bool prev_;
};

class ThreadPool {
 public:
  /// Creates `workers` worker threads (>=0). With zero workers every task
  /// runs inline on the submitting thread, which makes single-threaded
  /// debugging deterministic.
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (not counting the submitting thread).
  int workers() const { return static_cast<int>(threads_.size()); }

  /// Runs `count` tasks, task(k) for k in [0, count): workers and the
  /// calling thread cooperatively drain the batch; returns when all tasks
  /// have finished. Exceptions thrown by tasks are captured and the first
  /// one is rethrown on the calling thread. The callable behind `task` only
  /// needs to live for the duration of this call.
  void run_batch(Index count, TaskRef task);

  /// Batches that reached the workers since construction. Batches run
  /// inline (nested, caller-inlined or zero-worker) are not counted, so
  /// this is the number of fork-joins actually paid for.
  std::uint64_t dispatched_batches() const {
    return dispatched_.load(std::memory_order_relaxed);
  }

  /// True when the current thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// True when the current thread is a worker of *any* pool (the CostMeter
  /// uses this to enforce its driving-thread-only depth convention).
  static bool current_thread_is_worker();

  /// True when a batch submitted from the current thread would run inline
  /// whatever the pool: the thread is a worker, is inside its own
  /// run_batch, or has regions_inlined() set.
  static bool current_thread_runs_inline();

 private:
  struct Batch {
    TaskRef task;
    Index count = 0;
    std::atomic<Index> next{0};  ///< next unclaimed task index
    std::atomic<Index> done{0};  ///< completed task count
    std::exception_ptr error;
    std::mutex error_mutex;
  };

  void worker_loop();
  /// Drain tasks from `batch`; returns when no unclaimed task remains.
  /// Safe to call on an already-exhausted batch.
  static void drain(Batch& batch);

  std::vector<std::thread> threads_;
  std::mutex submit_mutex_;  ///< serializes concurrent external submitters
  std::mutex mutex_;
  std::condition_variable wake_;        ///< workers: new batch or shutdown
  std::condition_variable batch_done_;  ///< submitter: all tasks completed
  std::shared_ptr<Batch> active_;
  /// Recycled batch descriptors (guarded by submit_mutex_). A slot is free
  /// once its use_count drops back to 1 -- workers only acquire references
  /// through active_, so a free slot cannot regain holders behind our back.
  std::vector<std::shared_ptr<Batch>> spare_;
  std::uint64_t epoch_ = 0;  ///< bumped per batch so workers join each once
  std::atomic<std::uint64_t> dispatched_{0};  ///< see dispatched_batches()
  bool stop_ = false;
};

}  // namespace psdp::par
