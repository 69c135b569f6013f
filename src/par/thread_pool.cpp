#include "par/thread_pool.hpp"

namespace psdp::par {

namespace {
thread_local const ThreadPool* t_owner = nullptr;
// True while this thread is inside run_batch (as the submitter). A nested
// run_batch from a task body running on the submitting thread must execute
// inline: re-submitting would self-deadlock on submit_mutex_.
thread_local bool t_submitting = false;
// Caller-requested inline execution (see regions_inlined() in the header).
thread_local bool t_regions_inlined = false;
}

bool regions_inlined() { return t_regions_inlined; }

void set_regions_inlined(bool inlined) { t_regions_inlined = inlined; }

ThreadPool::ThreadPool(int workers) {
  PSDP_CHECK(workers >= 0, "worker count must be non-negative");
  // workers + 1 batch slots cover the worst case (each worker pinning one
  // exhausted batch plus the submitter's live one); +1 more for margin.
  // run_batch therefore provably never allocates after construction.
  spare_.reserve(static_cast<std::size_t>(workers) + 2);
  for (int i = 0; i < workers + 2; ++i) {
    spare_.push_back(std::make_shared<Batch>());
  }
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::on_worker_thread() const { return t_owner == this; }

bool ThreadPool::current_thread_is_worker() { return t_owner != nullptr; }

void ThreadPool::drain(Batch& batch) {
  while (true) {
    const Index k = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (k >= batch.count) return;
    try {
      batch.task(k);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.error_mutex);
      if (!batch.error) batch.error = std::current_exception();
    }
    batch.done.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop() {
  t_owner = this;
  std::uint64_t seen_epoch = 0;
  while (true) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return stop_ || (active_ != nullptr && epoch_ != seen_epoch);
      });
      if (stop_) return;
      batch = active_;  // shared ownership keeps the batch alive
      seen_epoch = epoch_;
    }
    drain(*batch);
    if (batch->done.load(std::memory_order_acquire) >= batch->count) {
      // Lock/unlock pairs the done-store with the submitter's predicate
      // check, preventing a lost wakeup.
      { std::lock_guard<std::mutex> lock(mutex_); }
      batch_done_.notify_all();
    }
    // batch's shared_ptr dies here, releasing the slot for reuse.
  }
}

void ThreadPool::run_batch(Index count, TaskRef task) {
  if (count <= 0) return;
  // Nested region (from a worker, or from the submitting thread's own task
  // share), caller-requested inline execution, or no workers: run inline.
  if (on_worker_thread() || t_submitting || t_regions_inlined ||
      threads_.empty()) {
    for (Index k = 0; k < count; ++k) task(k);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  t_submitting = true;
  struct SubmitReset {
    ~SubmitReset() { t_submitting = false; }
  } submit_reset;
  // Reuse a spare batch descriptor if no worker still holds it (use_count
  // can only decrease once a batch is off active_, so the check is stable);
  // allocate a fresh slot only while stragglers pin every spare. This keeps
  // the steady state allocation-free.
  std::shared_ptr<Batch> batch;
  for (auto& slot : spare_) {
    if (slot.use_count() == 1) {
      // Pair with the release semantics of the last worker's refcount
      // decrement: after this fence every write that worker made to the
      // slot happens-before our re-initialization below.
      std::atomic_thread_fence(std::memory_order_acquire);
      batch = slot;
      break;
    }
  }
  if (!batch) {
    batch = std::make_shared<Batch>();
    spare_.push_back(batch);
  }
  batch->task = task;
  batch->count = count;
  batch->next.store(0, std::memory_order_relaxed);
  batch->done.store(0, std::memory_order_relaxed);
  batch->error = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PSDP_ASSERT(active_ == nullptr);  // one batch at a time by construction
    active_ = batch;
    ++epoch_;
  }
  wake_.notify_all();
  drain(*batch);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    batch_done_.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) >= batch->count;
    });
    active_.reset();
  }
  // Workers still holding the shared_ptr only see an exhausted batch: every
  // further next.fetch_add returns >= count, so the TaskRef (a reference
  // into the caller's frame) is never invoked after we return, and the slot
  // is not reused until those holders release it.
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace psdp::par
