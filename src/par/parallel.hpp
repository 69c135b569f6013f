// The parallel-loop facade used by every kernel in the library.
//
//   par::parallel_for(0, m, [&](Index i) { ... });          // by element
//   par::parallel_for_chunked(0, m, [&](Index b, Index e)); // by chunk
//   Real s = par::parallel_reduce(0, m, 0.0,
//       [&](Index i) { return f(i); }, std::plus<>{});
//
// The sparse, Taylor and per-constraint kernel loops are work-gated: they
// pass par::work_grain(elements, estimated total work) as their grain, so
// a loop fans out only once each chunk carries kMinChunkWork units of work.
// Reductions keep their own partitions (see parallel_reduce and
// deterministic_sum): their chunk count fixes the summation order.
//
// Thread count is process-global and settable at runtime (benches sweep it).
// Setting it to 1 executes everything inline with no pool interaction, which
// is the deterministic baseline for the scaling experiments.
//
// The loops are allocation-free in the steady state: bodies reach the pool
// as non-owning TaskRef (no std::function), and reductions recycle a
// per-thread partials buffer -- a solver iteration makes thousands of these
// calls, and the zero-allocation guarantee of the sketched hot path
// (bench_variants --alloc-guard) rests on them staying off the heap.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
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

/// Minimum number of loop iterations per chunk; below this a loop runs
/// serially. Tuned so tiny vectors do not pay fork-join overhead. This is
/// the registry default of the `grain` tunable; loops read the live value
/// through default_grain() below.
inline constexpr Index kDefaultGrain = 1024;

/// The grain parallel loops use when the caller does not pass one: the
/// `grain` tunable (default kDefaultGrain). One relaxed atomic load per
/// loop launch -- noise next to the fork-join itself. Note a tuned grain
/// changes chunk boundaries and hence reduction summation order, which is
/// why `grain` is excluded from the default SPSA knob set: bit-identity
/// under untouched defaults is the guarantee, not under arbitrary tuning.
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

namespace detail {
/// Reusable per-thread partials for parallel_reduce: nested parallel regions
/// run inline on their worker, so at most one reduction per thread uses its
/// scratch at a time; the busy flag falls back to a local buffer in the
/// (unused today) re-entrant case. One buffer per value type T.
template <typename T>
std::vector<T>& reduce_scratch() {
  static thread_local std::vector<T> scratch;
  return scratch;
}
template <typename T>
bool& reduce_scratch_busy() {
  static thread_local bool busy = false;
  return busy;
}
}  // namespace detail

/// Parallel map-reduce: combines body(i) over [begin, end) with `combine`,
/// starting from `init` (which must be the identity of `combine`).
/// Deterministic for a fixed thread count: per-chunk partials are combined
/// in chunk order on the calling thread.
template <typename T, typename Body, typename Combine>
T parallel_reduce(Index begin, Index end, T init, Body&& body,
                  Combine&& combine, Index grain = default_grain()) {
  if (end <= begin) return init;
  const Index n = end - begin;
  const Index max_chunks = std::max<Index>(1, num_threads());
  const Index chunks = std::clamp<Index>((n + grain - 1) / grain, 1, max_chunks);
  if (chunks == 1) {
    T acc = init;
    for (Index i = begin; i < end; ++i) acc = combine(acc, body(i));
    return acc;
  }
  bool& busy = detail::reduce_scratch_busy<T>();
  std::vector<T> local;
  const bool use_scratch = !busy;
  std::vector<T>& partial = use_scratch ? detail::reduce_scratch<T>() : local;
  if (use_scratch) busy = true;
  struct BusyReset {
    bool* flag;
    bool owned;
    ~BusyReset() {
      if (owned) *flag = false;
    }
  } busy_reset{&busy, use_scratch};
  partial.assign(static_cast<std::size_t>(chunks), init);
  const Index chunk_size = (n + chunks - 1) / chunks;
  const auto task = [&](Index c) {
    const Index b = begin + c * chunk_size;
    const Index e = std::min(end, b + chunk_size);
    T acc = init;
    for (Index i = b; i < e; ++i) acc = combine(acc, body(i));
    partial[static_cast<std::size_t>(c)] = acc;
  };
  global_pool().run_batch(chunks, task);
  T acc = init;
  for (const T& p : partial) acc = combine(acc, p);
  return acc;
}

/// Common case: parallel sum of body(i).
template <typename Body>
Real parallel_sum(Index begin, Index end, Body&& body,
                  Index grain = default_grain()) {
  return parallel_reduce(begin, end, Real{0},
                         std::forward<Body>(body), std::plus<Real>{}, grain);
}

/// Default chunk length of deterministic_sum: long enough that the serial
/// per-chunk sweeps dominate the fork-join, short enough that a panel-sized
/// range (dim x block) still fans out over the pool.
inline constexpr Index kDeterministicSumChunk = 16384;

/// Thread-count-independent parallel sum: the range is cut into fixed
/// `chunk`-length pieces (the partition depends only on the range and the
/// chunk length, never on num_threads()), each piece is summed serially in
/// index order on whichever worker picks it up, and the per-piece partials
/// are combined serially in piece order on the calling thread. Bitwise
/// deterministic across thread counts -- the reduction the K>1 sharded
/// sweeps use where parallel_sum's num_threads()-shaped chunking would make
/// the bits a function of the pool width. Reuses parallel_reduce's
/// per-thread partials scratch, so steady-state calls allocate nothing.
template <typename Body>
Real deterministic_sum(Index begin, Index end, Body&& body,
                       Index chunk = kDeterministicSumChunk) {
  if (end <= begin) return 0;
  PSDP_CHECK(chunk >= 1, "deterministic_sum: chunk must be positive");
  const Index n = end - begin;
  const Index pieces = (n + chunk - 1) / chunk;
  if (pieces == 1) {
    Real acc = 0;
    for (Index i = begin; i < end; ++i) acc += body(i);
    return acc;
  }
  bool& busy = detail::reduce_scratch_busy<Real>();
  std::vector<Real> local;
  const bool use_scratch = !busy;
  std::vector<Real>& partial =
      use_scratch ? detail::reduce_scratch<Real>() : local;
  if (use_scratch) busy = true;
  struct BusyReset {
    bool* flag;
    bool owned;
    ~BusyReset() {
      if (owned) *flag = false;
    }
  } busy_reset{&busy, use_scratch};
  partial.assign(static_cast<std::size_t>(pieces), Real{0});
  parallel_for(0, pieces, [&](Index c) {
    const Index b = begin + c * chunk;
    const Index e = std::min(end, b + chunk);
    Real acc = 0;
    for (Index i = b; i < e; ++i) acc += body(i);
    partial[static_cast<std::size_t>(c)] = acc;
  }, /*grain=*/1);
  Real acc = 0;
  for (const Real p : partial) acc += p;
  return acc;
}

/// Parallel max of body(i) over a non-empty range.
template <typename Body>
Real parallel_max(Index begin, Index end, Body&& body,
                  Index grain = default_grain()) {
  PSDP_CHECK(end > begin, "parallel_max over empty range");
  return parallel_reduce(
      begin, end, -std::numeric_limits<Real>::infinity(),
      std::forward<Body>(body),
      [](Real a, Real b) { return a > b ? a : b; }, grain);
}

}  // namespace psdp::par
