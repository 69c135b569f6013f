// The parallel-loop facade used by every kernel in the library.
//
//   par::parallel_for(0, m, [&](Index i) { ... });          // by element
//   par::parallel_for_chunked(0, m, [&](Index b, Index e)); // by chunk
//   Real s = par::parallel_sum(0, m, [&](Index i) { return f(i); });
//
// The sparse, Taylor and per-constraint kernel loops are work-gated: they
// pass par::work_grain(elements, estimated total work) as their grain, so
// a loop fans out only once each chunk carries kMinChunkWork units of work.
// Reductions fold over fixed kDeterministicSumChunk-length pieces, so
// their summation order -- and every bit of a result -- never depends on
// the thread count.
//
// Thread count is process-global and settable at runtime (benches sweep it).
// Setting it to 1 executes everything inline with no pool interaction; the
// results are the same bits at every setting.
//
// The loops are allocation-free in the steady state: bodies reach the pool
// as non-owning TaskRef (no std::function), and reductions recycle a
// per-thread partials buffer -- a solver iteration makes thousands of these
// calls, and the zero-allocation guarantee of the sketched hot path
// (bench_variants --alloc-guard) rests on them staying off the heap.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "par/thread_pool.hpp"
#include "util/common.hpp"
#include "util/tunables.hpp"

namespace psdp::par {

/// Number of threads parallel loops may use (including the caller).
int num_threads();

/// Set the global thread budget; recreates the shared pool. Not safe to call
/// concurrently with running parallel loops.
void set_num_threads(int threads);

/// The process-wide pool backing parallel loops. Created on first use;
/// safe to call from several threads at once.
ThreadPool& global_pool();

/// Threads a region opened on this thread actually runs on: num_threads(),
/// or 1 where regions run inline (nested in another region, on a pool
/// worker, or under regions_inlined()).
int available_width();

/// Minimum number of loop iterations per chunk; below this a loop runs
/// serially. Tuned so tiny vectors do not pay fork-join overhead. This is
/// the registry default of the `grain` tunable; loops read the live value
/// through default_grain() below.
inline constexpr Index kDefaultGrain = 1024;

/// The grain parallel loops use when the caller does not pass one: the
/// `grain` tunable (default kDefaultGrain). One relaxed atomic load per
/// loop launch -- noise next to the fork-join itself. The grain moves only
/// the chunk boundaries of loops whose outputs are disjoint per element
/// (reductions fold over their own fixed pieces), so no setting of it
/// changes a bit.
inline Index default_grain() { return util::tunable_grain(); }

/// The work gate of the kernel loops: the least estimated work one chunk
/// must carry before a loop fans out, counted in multiply-adds and output
/// stores. A pool region costs ~15 us of wake-up and join -- on the order
/// of this much sparse-kernel work -- so below it the fork-join costs more
/// than it saves. A constant, not a tunable: it is applied only to
/// loops whose outputs are disjoint per element, where the partition never
/// changes a bit, so there is nothing to tune per instance.
inline constexpr Real kMinChunkWork = 32768;

/// Grain of a work-gated loop over `elements` elements that carry about
/// `total_work` units of work in all: the fewest elements whose share of
/// the work reaches kMinChunkWork, or all of them -- one chunk, run on the
/// caller -- when the loop cannot fill two chunks. That test is a compare,
/// so the small loops that dominate small solves pay no division. Every
/// element counts at least one unit (touching it).
inline Index work_grain(Index elements, Real total_work) {
  const auto n = static_cast<Real>(elements);
  const Real work = std::max(total_work, n);
  if (work < 2 * kMinChunkWork) return std::max<Index>(1, elements);
  const Real grain = std::ceil(kMinChunkWork * n / work);
  return std::max<Index>(1, static_cast<Index>(grain));
}

/// Invoke body(begin_k, end_k) over an even partition of [begin, end) into
/// roughly `num_threads()` chunks of at least `grain` elements.
template <typename Body>
void parallel_for_chunked(Index begin, Index end, Body&& body,
                          Index grain = default_grain()) {
  if (end <= begin) return;
  PSDP_CHECK(grain >= 1, "grain must be positive");
  const Index n = end - begin;
  const Index max_chunks = std::max<Index>(1, num_threads());
  // One chunk without a division: the common case of the small kernel
  // loops a small solve issues by the hundred thousand.
  if (grain >= n || max_chunks == 1) {
    body(begin, end);
    return;
  }
  const Index chunks = std::min<Index>((n + grain - 1) / grain, max_chunks);
  const Index chunk_size = (n + chunks - 1) / chunks;
  const auto task = [&](Index c) {
    const Index b = begin + c * chunk_size;
    const Index e = std::min(end, b + chunk_size);
    if (b < e) body(b, e);
  };
  global_pool().run_batch(chunks, task);
}

/// Element-wise parallel loop.
template <typename Body>
void parallel_for(Index begin, Index end, Body&& body,
                  Index grain = default_grain()) {
  parallel_for_chunked(
      begin, end,
      [&](Index b, Index e) {
        for (Index i = b; i < e; ++i) body(i);
      },
      grain);
}

/// Length of the fixed pieces every reduction folds over: long enough that
/// the serial per-piece sweeps dominate the fork-join, short enough that a
/// panel-sized range (dim x block) still fans out over the pool.
inline constexpr Index kDeterministicSumChunk = 16384;

namespace detail {
/// Reusable per-thread piece partials: nested parallel regions run inline
/// on their worker, so at most one reduction per thread uses its scratch at
/// a time; the busy flag falls back to a local buffer in the (unused today)
/// re-entrant case.
inline std::vector<Real>& reduce_scratch() {
  static thread_local std::vector<Real> scratch;
  return scratch;
}
inline bool& reduce_scratch_busy() {
  static thread_local bool busy = false;
  return busy;
}

/// Fold body(i) over [begin, end) with `combine`, starting from `init`
/// (the identity of `combine`): the range is cut into fixed
/// kDeterministicSumChunk-length pieces, each piece is folded serially in
/// index order on whichever worker picks it up, and the per-piece partials
/// are combined serially in piece order on the calling thread. The pieces
/// depend only on the range, never on num_threads(), so the result is
/// bitwise the same at every thread count.
template <typename Body, typename Combine>
Real fold_pieces(Index begin, Index end, Real init, Body& body,
                 Combine combine) {
  const auto fold = [&](Index b, Index e) {
    Real acc = init;
    for (Index i = b; i < e; ++i) acc = combine(acc, body(i));
    return acc;
  };
  const Index pieces =
      (end - begin + kDeterministicSumChunk - 1) / kDeterministicSumChunk;
  if (pieces <= 1) return fold(begin, end);
  bool& busy = reduce_scratch_busy();
  std::vector<Real> local;
  const bool use_scratch = !busy;
  std::vector<Real>& partial = use_scratch ? reduce_scratch() : local;
  if (use_scratch) busy = true;
  struct BusyReset {
    bool* flag;
    bool owned;
    ~BusyReset() {
      if (owned) *flag = false;
    }
  } busy_reset{&busy, use_scratch};
  partial.assign(static_cast<std::size_t>(pieces), init);
  parallel_for(0, pieces, [&](Index c) {
    const Index b = begin + c * kDeterministicSumChunk;
    partial[static_cast<std::size_t>(c)] =
        fold(b, std::min(end, b + kDeterministicSumChunk));
  }, /*grain=*/1);
  Real acc = init;
  for (const Real p : partial) acc = combine(acc, p);
  return acc;
}
}  // namespace detail

/// Parallel sum of body(i) over [begin, end) (0 when empty), folded over
/// fixed pieces (detail::fold_pieces): bitwise independent of the thread
/// count. Steady-state calls allocate nothing.
template <typename Body>
Real parallel_sum(Index begin, Index end, Body&& body) {
  return detail::fold_pieces(begin, end, Real{0}, body,
                             [](Real a, Real b) { return a + b; });
}

/// Parallel max of body(i) over a non-empty range, folded over the same
/// fixed pieces as parallel_sum.
template <typename Body>
Real parallel_max(Index begin, Index end, Body&& body) {
  PSDP_CHECK(end > begin, "parallel_max over empty range");
  return detail::fold_pieces(begin, end,
                             -std::numeric_limits<Real>::infinity(), body,
                             [](Real a, Real b) { return a > b ? a : b; });
}

}  // namespace psdp::par
