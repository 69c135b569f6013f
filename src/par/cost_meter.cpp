#include "par/cost_meter.hpp"

#include "par/thread_pool.hpp"

namespace psdp::par {

std::atomic<std::uint64_t> CostMeter::work_{0};
std::atomic<std::uint64_t> CostMeter::depth_{0};

namespace {
thread_local bool t_depth_muted = false;  ///< see CostMeter::ScopedDepthMute
/// See CostMeter::ScopedDepthCapture.
thread_local std::uint64_t* t_depth_capture = nullptr;
}  // namespace

CostMeter::ScopedDepthMute::ScopedDepthMute() : prev_(t_depth_muted) {
  t_depth_muted = true;
}

CostMeter::ScopedDepthMute::~ScopedDepthMute() { t_depth_muted = prev_; }

CostMeter::ScopedDepthCapture::ScopedDepthCapture() : prev_(t_depth_capture) {
  t_depth_capture = &depth_;
}

CostMeter::ScopedDepthCapture::~ScopedDepthCapture() {
  t_depth_capture = prev_;
}

void CostMeter::reset() {
  work_.store(0, std::memory_order_relaxed);
  depth_.store(0, std::memory_order_relaxed);
}

void CostMeter::add_work(std::uint64_t w) {
  work_.fetch_add(w, std::memory_order_relaxed);
}

void CostMeter::add_depth(std::uint64_t d) {
  // Enforce the driving-thread-only convention: kernels invoked from inside
  // a parallel region run concurrently, so their depth is not on the
  // critical path (the driving step charges it once instead). Without this
  // guard, r-way-parallel kernel fan-outs inflate depth r-fold.
  if (t_depth_muted) return;
  if (t_depth_capture != nullptr) {
    *t_depth_capture += d;
    return;
  }
  if (ThreadPool::current_thread_is_worker()) return;
  depth_.fetch_add(d, std::memory_order_relaxed);
}

CostMeter::Cost CostMeter::snapshot() {
  return {work_.load(std::memory_order_relaxed),
          depth_.load(std::memory_order_relaxed)};
}

std::uint64_t reduction_depth(Index n) {
  if (n <= 1) return 1;
  return static_cast<std::uint64_t>(ceil_log2(n)) + 1;
}

}  // namespace psdp::par
