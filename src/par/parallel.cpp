#include "par/parallel.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

namespace psdp::par {

namespace {

int default_threads() {
  // The `threads` tunable wins when set (> 0); otherwise the hardware
  // width. Resolved lazily on the first num_threads() call rather than at
  // static-init time, so PSDP_TUNE_THREADS and CLI/manifest overrides
  // applied before the first parallel loop take effect.
  const int tuned = static_cast<int>(util::tunable_threads());
  if (tuned > 0) return tuned;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

std::atomic<int> g_threads{0};  // 0 = unresolved; see num_threads()
// The pool is created on first use, possibly by several external threads
// at once (concurrent solves or transpose-index builds), so it is created,
// read and dropped under the mutex.
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

int num_threads() {
  int threads = g_threads.load();
  if (threads == 0) {
    threads = default_threads();
    g_threads.store(threads);
  }
  return threads;
}

void set_num_threads(int threads) {
  PSDP_CHECK(threads >= 1, "thread count must be at least 1");
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_threads.store(threads);
  g_pool.reset();  // lazily recreated with the new size
}

int available_width() {
  return ThreadPool::current_thread_runs_inline() ? 1 : num_threads();
}

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(num_threads() - 1);
  }
  return *g_pool;
}

}  // namespace psdp::par
