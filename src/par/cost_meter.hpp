// Work/depth accounting in the PRAM cost model of the paper.
//
// The paper states costs as (work, depth) pairs; wall-clock alone cannot
// separate "nearly-linear work" from "good constants on this machine".
// Kernels charge their *model* cost here and benches report both.
//
//   par::CostMeter::reset();
//   ... run solver ...
//   auto cost = par::CostMeter::snapshot();   // {work, depth}
//
// Charging convention:
//  * add_work(w): total scalar operations, charged from any thread
//    (relaxed atomic; benches only read after joining).
//  * add_depth(d): critical-path length, charged by the *driving* thread
//    only, once per sequential step (e.g. a matvec charges depth
//    log2(row length), a solver iteration charges the max of its kernels).
//    Enforced: add_depth calls made from pool worker threads are dropped,
//    so kernels reused inside a parallel region do not multiply the
//    critical path by the fan-out (the driving step charges it once).
//    A driver that runs kernels inside its own region -- where the caller
//    thread takes chunks too -- mutes its thread for the region
//    (ScopedDepthMute) and charges the region's depth itself, so the
//    count never depends on the pool width.
//  * One implicit Psi application (FactorizedSet::weighted_apply,
//    weighted_apply_block and its float twin) charges depth
//      reduction_depth(m) + reduction_depth(max_r sum_i nnz(Q_i[r,:]))
//    once, from the driver, whatever the weights, panel width and thread
//    count: every factor's transpose Q_i^T V runs at once (an output of
//    Q_i^T reduces at most m entries), then every output row reduces its
//    entries across all constraints. Its work is what the composed
//    kernels charge: 4 b nnz(Q_i) per nonzero weight x_i for a b-column
//    panel (2 b nnz(Q_i) each for the transpose and the row pass).
//
// Metering is compiled in but costs one relaxed atomic add per kernel call,
// which is negligible next to the kernels themselves.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/common.hpp"

namespace psdp::par {

class CostMeter {
 public:
  struct Cost {
    std::uint64_t work = 0;
    std::uint64_t depth = 0;
  };

  /// Zero both counters.
  static void reset();

  /// Charge `w` units of work (thread-safe).
  static void add_work(std::uint64_t w);

  /// Charge `d` units of critical-path depth (call from the driving thread).
  static void add_depth(std::uint64_t d);

  /// Current counters.
  static Cost snapshot();

  /// While alive, add_depth calls from the constructing thread are
  /// dropped (see the charging convention above). Nests.
  class ScopedDepthMute {
   public:
    ScopedDepthMute();
    ~ScopedDepthMute();
    ScopedDepthMute(const ScopedDepthMute&) = delete;
    ScopedDepthMute& operator=(const ScopedDepthMute&) = delete;

   private:
    bool prev_;
  };

 private:
  static std::atomic<std::uint64_t> work_;
  static std::atomic<std::uint64_t> depth_;
};

/// Depth of a balanced-tree reduction over n elements (= ceil(log2 n) + 1).
std::uint64_t reduction_depth(Index n);

}  // namespace psdp::par
