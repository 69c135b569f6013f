// The serve layer: ArtifactCache hit/miss/evict accounting and workspace
// pooling, the BatchScheduler's lanes-vs-solo bitwise determinism contract,
// per-job failure isolation, concurrent artifact preparation from scheduler
// lanes, and the job-manifest reader.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "apps/generators.hpp"
#include "io/instance_io.hpp"
#include "par/parallel.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/manifest.hpp"
#include "serve/scheduler.hpp"
#include "sparse/csr.hpp"
#include "test_helpers.hpp"
#include "util/tunables.hpp"

namespace psdp::serve {
namespace {

using linalg::Vector;

/// RAII guard: restore the global thread count on scope exit.
struct ThreadGuard {
  int before = par::num_threads();
  ~ThreadGuard() { par::set_num_threads(before); }
};

/// A cheap prepared instance (the LP kind needs no index builds), tagged so
/// tests can tell which builder call produced it.
PreparedInstance tiny_lp_instance(Real scale = 1) {
  linalg::Matrix p(2, 3);
  p(0, 0) = scale;
  p(0, 2) = 2 * scale;
  p(1, 1) = scale;
  p(1, 2) = scale;
  return prepare_lp(core::PackingLp(std::move(p)));
}

ArtifactCache::Builder counting_builder(std::atomic<int>& builds,
                                        Real scale = 1) {
  return [&builds, scale] {
    builds.fetch_add(1);
    return tiny_lp_instance(scale);
  };
}

TEST(ArtifactCache, HitMissEvictCountersAndLru) {
  ArtifactCache::Options options;
  options.capacity = 2;
  ArtifactCache cache(options);
  std::atomic<int> builds{0};

  const auto a1 = cache.get("a", counting_builder(builds));
  EXPECT_FALSE(a1.hit);
  const auto a2 = cache.get("a", counting_builder(builds));
  EXPECT_TRUE(a2.hit);
  EXPECT_EQ(a1.entry.get(), a2.entry.get());
  EXPECT_EQ(builds.load(), 1);

  cache.get("b", counting_builder(builds));
  EXPECT_EQ(cache.size(), 2u);
  // Touch "a" so "b" is the LRU victim of the third key.
  cache.get("a", counting_builder(builds));
  cache.get("c", counting_builder(builds));
  EXPECT_EQ(cache.size(), 2u);

  ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // "b" was evicted: resolving it again rebuilds; "a" is still cached.
  EXPECT_FALSE(cache.get("b", counting_builder(builds)).hit);
  EXPECT_EQ(builds.load(), 4);

  // An evicted entry held by a job stays alive through its shared_ptr.
  EXPECT_EQ(a1.entry->instance().kind, JobKind::kPackingLp);
  EXPECT_EQ(a1.entry->key(), "a");
}

TEST(ArtifactCache, BuilderFailureLeavesNoEntryBehind) {
  ArtifactCache cache;
  std::atomic<int> builds{0};
  const ArtifactCache::Builder boom =
      []() -> PreparedInstance {
    throw NumericalError("builder exploded");
  };
  EXPECT_THROW(cache.get("k", boom), NumericalError);
  EXPECT_EQ(cache.size(), 0u);
  // The next resolve retries with a working builder.
  EXPECT_FALSE(cache.get("k", counting_builder(builds)).hit);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ArtifactCache, WaiterRebuildAfterFailedBuilderEndsUpCached) {
  // Lane A's builder throws while lane B waits on the same key: whichever
  // way the race resolves (B waited on the build mutex and rebuilt the
  // erased-but-held entry, or B re-inserted a fresh shell), the key must
  // end up cached -- a later lookup is a pure hit, not a rebuild.
  ArtifactCache cache;
  std::atomic<bool> builder_entered{false};
  std::atomic<bool> release_builder{false};
  std::atomic<int> good_builds{0};

  std::thread failing([&] {
    const ArtifactCache::Builder boom =
        [&]() -> PreparedInstance {
      builder_entered.store(true);
      while (!release_builder.load()) std::this_thread::yield();
      throw NumericalError("transient failure");
    };
    EXPECT_THROW(cache.get("k", boom), NumericalError);
  });
  while (!builder_entered.load()) std::this_thread::yield();

  std::thread waiting([&] {
    // Likely blocks on the entry's build mutex until the failure lands.
    const auto resolved = cache.get("k", counting_builder(good_builds));
    EXPECT_EQ(resolved.entry->instance().kind, JobKind::kPackingLp);
  });
  // Give the waiter a moment to reach the build mutex, then let the
  // failing builder throw (correct either way; see above).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release_builder.store(true);
  failing.join();
  waiting.join();

  EXPECT_EQ(good_builds.load(), 1);
  ASSERT_NE(cache.find("k"), nullptr)
      << "the successful rebuild must be cached";
  std::atomic<int> more_builds{0};
  EXPECT_TRUE(cache.get("k", counting_builder(more_builds)).hit);
  EXPECT_EQ(more_builds.load(), 0);
}

TEST(ArtifactCache, ConcurrentFirstLookupsCountExactlyOneMiss) {
  // Lanes resolving a new key together: one builds and reports the miss,
  // every other one waits for that build and reports a hit -- including a
  // lane that reaches the entry's build lock before the inserting lane
  // does (which once made both of them build-and-miss).
  constexpr int kLanes = 4;
  for (int round = 0; round < 300; ++round) {
    ArtifactCache cache;
    std::atomic<int> builds{0};
    std::atomic<int> ready{0};
    std::atomic<int> misses{0};
    std::vector<std::thread> lanes;
    for (int lane = 0; lane < kLanes; ++lane) {
      lanes.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < kLanes) std::this_thread::yield();
        if (!cache.get("k", counting_builder(builds)).hit) misses.fetch_add(1);
      });
    }
    for (std::thread& t : lanes) t.join();
    ASSERT_EQ(misses.load(), 1) << "round " << round;
    ASSERT_EQ(builds.load(), 1) << "round " << round;
    ASSERT_EQ(cache.stats().misses, 1u) << "round " << round;
    ASSERT_EQ(cache.stats().hits, static_cast<std::uint64_t>(kLanes - 1))
        << "round " << round;
  }
}

TEST(ArtifactCache, WorkspacePoolReusesUpToCap) {
  ArtifactCache::Options options;
  options.workspaces_per_entry = 2;
  ArtifactCache cache(options);
  std::atomic<int> builds{0};
  const auto resolved = cache.get("k", counting_builder(builds));

  core::SolverWorkspace* first = nullptr;
  {
    WorkspaceLease lease(resolved.entry);
    ASSERT_NE(lease.get(), nullptr);
    first = lease.get();
  }  // returned to the pool
  {
    WorkspaceLease lease(resolved.entry);
    EXPECT_EQ(lease.get(), first);  // same workspace, recycled
  }
  EXPECT_EQ(cache.stats().workspace_reuses, 1u);

  // Three concurrent leases against a one-deep pool: one reuse, two fresh;
  // on release only two fit the cap (the third is dropped).
  {
    WorkspaceLease a(resolved.entry), b(resolved.entry), c(resolved.entry);
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(b.get(), c.get());
  }
  // Now the pool is full (two workspaces): two of three leases reuse.
  {
    WorkspaceLease a(resolved.entry), b(resolved.entry), c(resolved.entry);
  }
  // 1 (earlier) + 1 + 2: dropped leases never count as reuses.
  EXPECT_EQ(cache.stats().workspace_reuses, 4u);

  // Moved-from leases release nothing twice.
  WorkspaceLease outer;
  {
    WorkspaceLease inner(resolved.entry);
    outer = std::move(inner);
    EXPECT_EQ(inner.get(), nullptr);
  }
  EXPECT_NE(outer.get(), nullptr);
}

TEST(ArtifactCache, CoveringPreparationCachesNormalization) {
  // A small covering problem: C = I and two diagonal constraints (PSD).
  core::CoveringProblem problem;
  problem.objective = linalg::Matrix::identity(3);
  linalg::Matrix a(3, 3);
  a(0, 0) = 2;
  a(1, 1) = 1;
  linalg::Matrix b(3, 3);
  b(2, 2) = 4;
  problem.constraints = {a, b};
  problem.rhs = Vector{1.0, 2.0};
  const PreparedInstance prepared = prepare_covering(std::move(problem));
  EXPECT_NO_THROW(prepared.validate());
  ASSERT_NE(prepared.normalized, nullptr);
  EXPECT_EQ(prepared.normalized->packing.size(), 2);
}

// ---------------------------------------------------------------------------
// Scheduler: determinism, sharding, callbacks, failure isolation.
// ---------------------------------------------------------------------------

/// A small factorized instance whose factors are tall enough to carry
/// transpose indexes (m = 64 >> rank), solved with loose eps so the whole
/// batch runs in well under a second.
std::shared_ptr<const core::FactorizedPackingInstance> small_factorized(
    std::uint64_t seed) {
  return std::make_shared<const core::FactorizedPackingInstance>(
      apps::random_factorized(
          {.n = 6, .m = 64, .rank = 2, .nnz_per_column = 4, .seed = seed}));
}

core::OptimizeOptions loose_options() {
  core::OptimizeOptions options;
  options.eps = 0.5;
  options.decision_eps = 0.3;
  options.probe_solver = core::ProbeSolver::kPhased;
  options.decision.dot_options.sketch_rows_override = 8;
  return options;
}

TEST(BatchScheduler, LaneResultsBitwiseEqualSoloRuns) {
  ThreadGuard guard;
  const auto inst_a = small_factorized(3);
  const auto inst_b = small_factorized(4);
  const core::OptimizeOptions options = loose_options();
  // Job c's 16-row panels on m = 128 fold 2048-term traces, more than a
  // pool-width-chunked sum would keep in one chunk.
  const auto inst_c = std::make_shared<const core::FactorizedPackingInstance>(
      apps::random_factorized(
          {.n = 6, .m = 128, .rank = 2, .nnz_per_column = 4, .seed = 11}));
  core::OptimizeOptions options_c = options;
  options_c.decision.dot_options.sketch_rows_override = 16;

  // Solo references at one thread; the batch runs at four.
  par::set_num_threads(1);
  const core::PackingOptimum solo_a = core::approx_packing(*inst_a, options);
  const core::PackingOptimum solo_b = core::approx_packing(*inst_b, options);
  const core::PackingOptimum solo_c =
      core::approx_packing(*inst_c, options_c);
  par::set_num_threads(4);

  SolveBatch batch;
  batch.add_factorized("a", inst_a, options);
  batch.add_factorized("b", inst_b, options);
  batch.add_factorized("a", inst_a, options, "a-again");
  batch.add_factorized("c", inst_c, options_c);

  BatchScheduler scheduler;
  const std::vector<JobResult> results = scheduler.run(batch);
  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& r : results) {
    ASSERT_TRUE(r.ok) << r.label << ": " << r.error;
    EXPECT_GE(r.lane, 0) << "small jobs must run in lanes";
  }
  const auto expect_bitwise = [](const core::PackingOptimum& got,
                                 const core::PackingOptimum& want) {
    EXPECT_EQ(got.lower, want.lower);
    EXPECT_EQ(got.upper, want.upper);
    ASSERT_EQ(got.best_x.size(), want.best_x.size());
    for (Index i = 0; i < got.best_x.size(); ++i) {
      EXPECT_EQ(got.best_x[i], want.best_x[i]);
    }
  };
  expect_bitwise(results[0].packing, solo_a);
  expect_bitwise(results[1].packing, solo_b);
  expect_bitwise(results[2].packing, solo_a);  // repeated config, cached
  expect_bitwise(results[3].packing, solo_c);

  // The two "a" jobs may resolve concurrently from different lanes:
  // exactly one runs the builder, the other shares it.
  EXPECT_NE(results[0].cache_hit, results[2].cache_hit);
  EXPECT_FALSE(results[1].cache_hit);

  // The same batch on the warm scheduler: all hits, same bits.
  const std::vector<JobResult> warm = scheduler.run(batch);
  for (const JobResult& r : warm) EXPECT_TRUE(r.cache_hit);
  expect_bitwise(warm[0].packing, solo_a);
}

TEST(BatchScheduler, WideJobsRunAtFullWidthAndMatchLanes) {
  ThreadGuard guard;
  par::set_num_threads(2);
  const auto inst = small_factorized(9);
  const core::OptimizeOptions options = loose_options();

  SolveBatch narrow_batch;
  narrow_batch.add_factorized("k", inst, options);

  SolveBatch wide_batch;
  const std::size_t at = wide_batch.add_factorized("k", inst, options);
  wide_batch.jobs()[at].work = std::numeric_limits<Index>::max() / 2;

  BatchScheduler narrow_scheduler;
  BatchScheduler wide_scheduler;
  const JobResult narrow = narrow_scheduler.run(narrow_batch)[0];
  const JobResult wide = wide_scheduler.run(wide_batch)[0];
  ASSERT_TRUE(narrow.ok && wide.ok);
  EXPECT_GE(narrow.lane, 0);
  EXPECT_EQ(wide.lane, -1);
  // Lane-inline and full-width executions agree bit for bit.
  EXPECT_EQ(narrow.packing.lower, wide.packing.lower);
  EXPECT_EQ(narrow.packing.upper, wide.packing.upper);
}

TEST(BatchScheduler, FailuresAreIsolatedAndCallbacksFire) {
  ThreadGuard guard;
  par::set_num_threads(2);

  SolveBatch batch;
  batch.add_lp("good", std::make_shared<const core::PackingLp>(
                           apps::complete_graph_matching_lp(6).lp));
  JobSpec bad;
  bad.instance = "bad";
  bad.kind = JobKind::kPackingLp;
  bad.builder = []() -> PreparedInstance {
    throw NumericalError("instance generation failed");
  };
  batch.add(std::move(bad));

  std::atomic<int> callbacks{0};
  for (auto& job : batch.jobs()) {
    job.on_complete = [&callbacks](const JobResult&) { callbacks.fetch_add(1); };
  }

  BatchScheduler scheduler;
  const std::vector<JobResult> results = scheduler.run(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("instance generation failed"),
            std::string::npos);
  EXPECT_EQ(callbacks.load(), 2);

  // A kind mismatch against a cached instance is a per-job error too.
  SolveBatch mismatched;
  JobSpec wrong;
  wrong.instance = "good";  // cached as packing-lp
  wrong.kind = JobKind::kCovering;
  wrong.builder = [] {
    return tiny_lp_instance();
  };
  mismatched.add(std::move(wrong));
  const JobResult r = scheduler.run(mismatched)[0];
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("prepared as"), std::string::npos);
}

TEST(BatchScheduler, RunAsyncDeliversSameResults) {
  ThreadGuard guard;
  par::set_num_threads(2);
  SolveBatch batch;
  batch.add_lp("lp", std::make_shared<const core::PackingLp>(
                         apps::complete_graph_matching_lp(6).lp));
  BatchScheduler scheduler;
  const JobResult sync = scheduler.run(batch)[0];
  std::future<std::vector<JobResult>> pending =
      scheduler.run_async(std::move(batch));
  const JobResult async = pending.get()[0];
  ASSERT_TRUE(sync.ok && async.ok);
  EXPECT_EQ(sync.lp.lower, async.lp.lower);
  EXPECT_EQ(sync.lp.upper, async.lp.upper);
}

TEST(BatchScheduler, ConcurrentLanesPrepareDistinctInstancesOnce) {
  ThreadGuard guard;
  par::set_num_threads(4);

  // Eight jobs over four distinct factorized instances, resolved lazily
  // inside concurrent lanes: each instance must be built exactly once, and
  // its factor transpose indexes must be built exactly at prepare time
  // (zero on the repeat jobs).
  std::atomic<int> builds{0};
  SolveBatch batch;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t seed = 11 + static_cast<std::uint64_t>(i % 4);
    JobSpec job;
    job.instance = str("inst", i % 4);
    job.kind = JobKind::kPackingFactorized;
    job.options = loose_options();
    job.builder = [seed, &builds] {
      builds.fetch_add(1);
      return prepare_factorized(apps::random_factorized(
          {.n = 4, .m = 64, .rank = 2, .nnz_per_column = 4, .seed = seed}));
    };
    batch.add(std::move(job));
  }

  BatchScheduler scheduler;
  const std::uint64_t index_builds_before = sparse::transpose_index_build_count();
  const std::vector<JobResult> results = scheduler.run(batch);
  const std::uint64_t index_builds_cold =
      sparse::transpose_index_build_count() - index_builds_before;
  for (const JobResult& r : results) {
    EXPECT_TRUE(r.ok) << r.label << ": " << r.error;
  }
  EXPECT_EQ(builds.load(), 4) << "one build per distinct instance";
  // 4 instances x 4 tall factors each.
  EXPECT_EQ(index_builds_cold, 16u);

  // Warm repeat: zero builder calls, zero index rebuilds.
  const std::uint64_t before_warm = sparse::transpose_index_build_count();
  scheduler.run(batch);
  EXPECT_EQ(builds.load(), 4);
  EXPECT_EQ(sparse::transpose_index_build_count() - before_warm, 0u);
  const ArtifactCache::Stats stats = scheduler.cache().stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 12u);  // 4 cold repeats + 8 warm
}

TEST(BatchScheduler, ThrowingCallbackIsRecordedWithoutFailingTheJob) {
  ThreadGuard guard;
  par::set_num_threads(2);
  SolveBatch batch;
  batch.add_lp("cb", std::make_shared<const core::PackingLp>(
                         apps::complete_graph_matching_lp(6).lp));
  batch.add_lp("cb", std::make_shared<const core::PackingLp>(
                         apps::complete_graph_matching_lp(6).lp),
               {}, "quiet");
  batch.jobs()[0].on_complete = [](const JobResult&) {
    throw std::runtime_error("callback boom");
  };

  BatchScheduler scheduler;
  const std::vector<JobResult> results = scheduler.run(batch);
  ASSERT_EQ(results.size(), 2u);
  // The job itself succeeded; only the callback failed, and that failure
  // is reported instead of vanishing.
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_NE(results[0].callback_error.find("callback boom"),
            std::string::npos);
  EXPECT_TRUE(results[1].ok);
  EXPECT_TRUE(results[1].callback_error.empty());
}

TEST(BatchScheduler, ThrowingCallbackCannotKillAStreamingLane) {
  // The daemon's whole delivery path is an on_complete callback running on
  // a lane thread. A throw there -- std::exception or not -- must be
  // contained to callback_error with the lane alive for the next job.
  ThreadGuard guard;
  par::set_num_threads(2);
  BatchScheduler scheduler;
  scheduler.open(1);
  std::atomic<int> fired{0};
  const auto lp_spec = [&](const std::string& key,
                           std::function<void()> boom) {
    JobSpec spec;
    spec.instance = key;
    spec.kind = JobKind::kPackingLp;
    spec.builder = [] {
      return tiny_lp_instance();
    };
    spec.on_complete = [&fired, boom = std::move(boom)](const JobResult&) {
      fired.fetch_add(1);
      boom();
    };
    return spec;
  };
  scheduler.submit(lp_spec("throws-exception", [] {
    throw std::runtime_error("streaming boom");
  }));
  scheduler.submit(lp_spec("throws-int", [] { throw 42; }));  // not a
                                                              // std::exception
  scheduler.submit(lp_spec("quiet", [] {}));

  const std::vector<JobResult> results = scheduler.close();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(fired.load(), 3);
  for (const JobResult& r : results) {
    EXPECT_TRUE(r.ok) << r.error;
  }
  EXPECT_NE(results[0].callback_error.find("streaming boom"),
            std::string::npos);
  EXPECT_FALSE(results[1].callback_error.empty());
  EXPECT_TRUE(results[2].callback_error.empty());
  EXPECT_EQ(scheduler.stats().completed, 3u);
}

TEST(BatchScheduler, SlotRecyclingBoundsArenaOverTenThousandJobs) {
  // The out-of-core serving story: a streaming session feeds jobs for hours,
  // so the slot arena must track the number of *in-flight* jobs, not the
  // session's total submissions. 10k tiny jobs with bounded backpressure
  // must leave only a handful of slots live, with everything else recycled
  // -- and close() must still return all 10k results in submission order.
  ThreadGuard guard;
  par::set_num_threads(2);
  constexpr std::size_t kJobs = 10000;
  constexpr std::size_t kInFlightCap = 64;

  BatchScheduler scheduler;
  scheduler.open(2);
  std::atomic<std::size_t> completed{0};
  for (std::size_t i = 0; i < kJobs; ++i) {
    // Backpressure: a real streaming client paces on completions; without
    // it the whole 10k would sit in waiting_ at once and the arena would
    // legitimately hold 10k live slots.
    while (i - completed.load(std::memory_order_acquire) >= kInFlightCap) {
      std::this_thread::yield();
    }
    JobSpec spec;
    spec.instance = "recycle";  // one shared artifact: builds once
    spec.kind = JobKind::kPackingLp;
    spec.options.eps = 0.9;  // the job payload is irrelevant: cheapest solve
    spec.builder = [] {
      return tiny_lp_instance();
    };
    spec.on_complete = [&completed](const JobResult&) {
      completed.fetch_add(1, std::memory_order_release);
    };
    scheduler.submit(spec);
  }

  const SchedulerStats mid = scheduler.stats();
  EXPECT_LE(mid.slots_live, kInFlightCap + 2)
      << "the arena must stay bounded by in-flight jobs, not submissions";
  EXPECT_GE(mid.slots_recycled, kJobs - kInFlightCap - 2);

  const std::vector<JobResult> results = scheduler.close();
  ASSERT_EQ(results.size(), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].label << ": " << results[i].error;
    ASSERT_EQ(results[i].index, i) << "results must stay in submission order";
  }
  EXPECT_EQ(completed.load(), kJobs);
  EXPECT_EQ(scheduler.stats().completed, kJobs);
}

TEST(BatchScheduler, QueueAndRunSecondsAreSplitAndDeadlinesEchoed) {
  ThreadGuard guard;
  par::set_num_threads(2);
  SolveBatch batch;
  for (int i = 0; i < 3; ++i) {
    batch.add_lp(str("lp", i), std::make_shared<const core::PackingLp>(
                                   apps::complete_graph_matching_lp(6).lp));
  }
  batch.jobs()[1].deadline_ms = 1e7;  // trivially met
  batch.jobs()[2].priority = 2;

  BatchScheduler scheduler;
  const std::vector<JobResult> results = scheduler.run(batch);
  for (const JobResult& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.run_seconds, 0);
    EXPECT_GE(r.queue_seconds, 0);
    EXPECT_EQ(r.seconds, r.run_seconds) << "seconds aliases run time";
  }
  EXPECT_FALSE(results[0].deadline_ms.has_value());
  EXPECT_EQ(results[1].deadline_ms, 1e7);
  EXPECT_TRUE(results[1].deadline_met);
}

// ---------------------------------------------------------------------------
// Preemption / widening determinism and admission control.
// ---------------------------------------------------------------------------

/// A builder that parks its lane inside the artifact resolve until the test
/// opens `gate` -- the deterministic way to have a job mid-claim while the
/// test stages the queue behind it.
ArtifactCache::Builder gated_factorized_builder(
    std::shared_ptr<const core::FactorizedPackingInstance> instance,
    std::atomic<bool>& started, std::atomic<bool>& gate) {
  return [instance, &started, &gate] {
    started.store(true);
    while (!gate.load()) std::this_thread::yield();
    PreparedInstance prepared;
    prepared.kind = JobKind::kPackingFactorized;
    prepared.factorized = instance;
    return prepared;
  };
}

TEST(BatchScheduler, PreemptedAndPreemptingJobsBitwiseEqualSoloRuns) {
  ThreadGuard guard;
  par::set_num_threads(4);
  const auto inst_slow = small_factorized(21);
  const auto inst_urgent = small_factorized(22);
  const core::OptimizeOptions options = loose_options();
  const core::PackingOptimum solo_slow =
      core::approx_packing(*inst_slow, options);
  const core::PackingOptimum solo_urgent =
      core::approx_packing(*inst_urgent, options);

  std::atomic<bool> started{false};
  std::atomic<bool> gate{false};
  BatchScheduler scheduler;
  scheduler.open(1);  // one lane: the urgent job can only run by borrowing it

  JobSpec slow;  // no deadline: batch work
  slow.instance = "slow";
  slow.kind = JobKind::kPackingFactorized;
  slow.options = options;
  slow.builder = gated_factorized_builder(inst_slow, started, gate);
  scheduler.submit(slow);
  while (!started.load()) std::this_thread::yield();  // lane claimed it

  JobSpec urgent;  // a deadline outranks no-deadline under EDF
  urgent.instance = "urgent";
  urgent.kind = JobKind::kPackingFactorized;
  urgent.options = options;
  urgent.deadline_ms = 60 * 1000;
  urgent.builder = [inst_urgent] {
    PreparedInstance prepared;
    prepared.kind = JobKind::kPackingFactorized;
    prepared.factorized = inst_urgent;
    return prepared;
  };
  scheduler.submit(urgent);
  gate.store(true);  // the slow solve now starts with the urgent job queued

  const std::vector<JobResult> results = scheduler.close();
  ASSERT_EQ(results.size(), 2u);
  const JobResult& r_slow = results[0];
  const JobResult& r_urgent = results[1];
  ASSERT_TRUE(r_slow.ok) << r_slow.error;
  ASSERT_TRUE(r_urgent.ok) << r_urgent.error;
  // The slow job must have yielded its lane at a round boundary.
  EXPECT_GE(r_slow.preemptions, 1);
  EXPECT_EQ(r_urgent.lane, 0);
  EXPECT_GE(scheduler.stats().preemptions, 1u);

  // Parked-and-resumed and borrowed-lane runs are bitwise solo runs.
  const auto expect_bitwise = [](const core::PackingOptimum& got,
                                 const core::PackingOptimum& want) {
    EXPECT_EQ(got.lower, want.lower);
    EXPECT_EQ(got.upper, want.upper);
    ASSERT_EQ(got.best_x.size(), want.best_x.size());
    for (Index i = 0; i < got.best_x.size(); ++i) {
      EXPECT_EQ(got.best_x[i], want.best_x[i]);
    }
  };
  expect_bitwise(r_slow.packing, solo_slow);
  expect_bitwise(r_urgent.packing, solo_urgent);
  EXPECT_TRUE(payload_bitwise_equal(r_slow, r_slow));
}

TEST(BatchScheduler, PromotedJobsWidenAndStayBitwiseEqualSoloRuns) {
  ThreadGuard guard;
  par::set_num_threads(4);
  const auto inst = small_factorized(23);
  const core::OptimizeOptions options = loose_options();
  const core::PackingOptimum solo = core::approx_packing(*inst, options);

  // A single narrow job with an empty queue behind it: the sole runner
  // promotes to full pool width at its first round boundary.
  SolveBatch batch;
  batch.add_factorized("only", inst, options);
  BatchScheduler scheduler;
  const std::vector<JobResult> results = scheduler.run(batch);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[0].promoted);
  EXPECT_GE(scheduler.stats().promotions, 1u);
  EXPECT_EQ(results[0].packing.lower, solo.lower);
  EXPECT_EQ(results[0].packing.upper, solo.upper);
  ASSERT_EQ(results[0].packing.best_x.size(), solo.best_x.size());
  for (Index i = 0; i < solo.best_x.size(); ++i) {
    EXPECT_EQ(results[0].packing.best_x[i], solo.best_x[i]);
  }

  // FIFO with preemption/widening off is the PR-5 static baseline: the
  // same job must neither promote nor preempt.
  SchedulerOptions baseline;
  baseline.queue = QueuePolicy::kFifo;
  baseline.preemption = false;
  baseline.widening = false;
  BatchScheduler static_scheduler(baseline);
  const JobResult static_run = static_scheduler.run(batch)[0];
  ASSERT_TRUE(static_run.ok);
  EXPECT_FALSE(static_run.promoted);
  EXPECT_EQ(static_run.preemptions, 0);
  EXPECT_EQ(static_run.packing.lower, solo.lower);
  EXPECT_EQ(static_run.packing.upper, solo.upper);
}

TEST(BatchScheduler, AdmissionControlRejectsWhenQueueIsFull) {
  ThreadGuard guard;
  par::set_num_threads(2);
  std::atomic<bool> started{false};
  std::atomic<bool> gate{false};
  SchedulerOptions options;
  options.max_queue = 1;
  options.admission = AdmissionPolicy::kReject;
  BatchScheduler scheduler(options);
  scheduler.open(1);

  JobSpec blocker;
  blocker.instance = "blocker";
  blocker.kind = JobKind::kPackingFactorized;
  blocker.options = loose_options();
  blocker.builder =
      gated_factorized_builder(small_factorized(31), started, gate);
  scheduler.submit(blocker);
  while (!started.load()) std::this_thread::yield();

  const auto lp_spec = [](const std::string& key) {
    JobSpec spec;
    spec.instance = key;
    spec.kind = JobKind::kPackingLp;
    spec.builder = [] {
      return tiny_lp_instance();
    };
    return spec;
  };
  scheduler.submit(lp_spec("queued"));    // fills the one queue seat
  std::atomic<int> shed_callbacks{0};
  JobSpec overflow = lp_spec("overflow");
  overflow.on_complete = [&shed_callbacks](const JobResult& r) {
    EXPECT_TRUE(r.shed);
    shed_callbacks.fetch_add(1);
  };
  scheduler.submit(overflow);             // bounced at the door
  gate.store(true);

  const std::vector<JobResult> results = scheduler.close();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_FALSE(results[2].ok);
  EXPECT_TRUE(results[2].shed);
  EXPECT_NE(results[2].error.find("queue full"), std::string::npos);
  EXPECT_EQ(shed_callbacks.load(), 1);
  EXPECT_EQ(scheduler.stats().shed, 1u);
}

TEST(BatchScheduler, AdmissionControlShedsLeastUrgentForUrgentArrival) {
  ThreadGuard guard;
  par::set_num_threads(2);
  std::atomic<bool> started{false};
  std::atomic<bool> gate{false};
  SchedulerOptions options;
  options.max_queue = 1;
  options.admission = AdmissionPolicy::kShedLowest;
  BatchScheduler scheduler(options);
  scheduler.open(1);

  JobSpec blocker;
  blocker.instance = "blocker";
  blocker.kind = JobKind::kPackingFactorized;
  blocker.options = loose_options();
  blocker.builder =
      gated_factorized_builder(small_factorized(32), started, gate);
  scheduler.submit(blocker);
  while (!started.load()) std::this_thread::yield();

  const auto lp_spec = [](const std::string& key, int priority) {
    JobSpec spec;
    spec.instance = key;
    spec.kind = JobKind::kPackingLp;
    spec.priority = priority;
    spec.builder = [] {
      return tiny_lp_instance();
    };
    return spec;
  };
  scheduler.submit(lp_spec("meek", 0));
  scheduler.submit(lp_spec("vip", 5));     // displaces "meek"
  scheduler.submit(lp_spec("lowly", -1));  // outranked: shed itself
  gate.store(true);

  const std::vector<JobResult> results = scheduler.close();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok) << results[0].error;   // blocker
  EXPECT_TRUE(results[1].shed);                     // meek, displaced
  EXPECT_NE(results[1].error.find("displaced"), std::string::npos);
  EXPECT_TRUE(results[2].ok) << results[2].error;   // vip
  EXPECT_TRUE(results[3].shed);                     // lowly, bounced
  EXPECT_EQ(scheduler.stats().shed, 2u);
}

// ---------------------------------------------------------------------------
// Manifest reader.
// ---------------------------------------------------------------------------

TEST(Manifest, ParsesKindsOptionsAndSharedIds) {
  std::stringstream manifest(
      "# heterogeneous batch\n"
      "packing-lp jobs/lp.psdp eps=0.2 label=lp-loose\n"
      "packing-lp jobs/lp.psdp eps=0.1\n"
      "packing-factorized jobs/fact.psdp probe=phased decision-eps=0.25\n"
      "covering jobs/cov.psdp wide=1 id=shared-cov\n"
      "\n");
  const SolveBatch batch = read_manifest(manifest, "test");
  ASSERT_EQ(batch.size(), 4u);
  const std::vector<JobSpec>& jobs = batch.jobs();
  EXPECT_EQ(jobs[0].kind, JobKind::kPackingLp);
  EXPECT_EQ(jobs[0].label, "lp-loose");
  EXPECT_EQ(jobs[0].options.eps, 0.2);
  // Jobs naming the same file share one artifact key.
  EXPECT_EQ(jobs[0].instance, jobs[1].instance);
  EXPECT_EQ(jobs[2].options.probe_solver, core::ProbeSolver::kPhased);
  EXPECT_EQ(jobs[2].options.decision_eps, 0.25);
  EXPECT_EQ(jobs[3].instance, "shared-cov");
  EXPECT_GT(jobs[3].work, 0) << "wide=1 must mark the job wide";
  EXPECT_EQ(jobs[1].work, 0);
}

TEST(Manifest, ParsesPriorityAndDeadlineRoundTrip) {
  std::stringstream manifest(
      "packing-lp a.psdp priority=3 deadline-ms=12.5\n"
      "packing-lp b.psdp deadline-ms=0\n"
      "packing-lp c.psdp\n");
  const SolveBatch batch = read_manifest(manifest, "test");
  ASSERT_EQ(batch.size(), 3u);
  const std::vector<JobSpec>& jobs = batch.jobs();
  EXPECT_EQ(jobs[0].priority, 3);
  EXPECT_EQ(jobs[0].deadline_ms, 12.5);
  // An explicit zero is a real (immediately-due) deadline, distinct from
  // the unset state of a line that never mentions deadline-ms.
  ASSERT_TRUE(jobs[1].deadline_ms.has_value());
  EXPECT_EQ(*jobs[1].deadline_ms, 0);
  EXPECT_EQ(jobs[2].priority, 0);
  EXPECT_FALSE(jobs[2].deadline_ms.has_value());
}

TEST(Manifest, SketchRowsOverrideParsesPerJob) {
  std::stringstream manifest(
      "packing-factorized a.psdp sketch-rows=8\n"
      "packing-factorized b.psdp sketch-rows=0\n"
      "packing-factorized c.psdp\n");
  const SolveBatch batch = read_manifest(manifest, "test");
  ASSERT_EQ(batch.size(), 3u);
  const std::vector<JobSpec>& jobs = batch.jobs();
  EXPECT_EQ(jobs[0].options.decision.dot_options.sketch_rows_override, 8);
  // sketch-rows=0 and an absent key both mean the eps-derived default,
  // and the override never leaks between lines.
  EXPECT_EQ(jobs[1].options.decision.dot_options.sketch_rows_override, 0);
  EXPECT_EQ(jobs[2].options.decision.dot_options.sketch_rows_override, 0);
}

TEST(Manifest, SketchRowsErrorsNameLineAndToken) {
  const auto message_of = [](const std::string& text) -> std::string {
    std::stringstream in(text);
    try {
      read_manifest(in, "m");
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "";
  };
  {
    const std::string what =
        message_of("packing-lp a.psdp\npacking-lp b.psdp sketch-rows=lots\n");
    EXPECT_NE(what.find("m:2"), std::string::npos) << what;
    EXPECT_NE(what.find("lots"), std::string::npos) << what;
  }
  {
    const std::string what =
        message_of("packing-lp a.psdp sketch-rows=-4\n");
    EXPECT_NE(what.find("m:1"), std::string::npos) << what;
    EXPECT_NE(what.find(">= 0"), std::string::npos) << what;
  }
}

TEST(Manifest, HashInsideValueIsDataNotComment) {
  // '#' only opens a comment at line start or after whitespace; embedded
  // in a token it is data (the old find-any-'#' rule truncated the value
  // *and* the line quoted by later error messages).
  std::stringstream manifest(
      "# full-line comment\n"
      "packing-lp a.psdp label=p99#high id=run#7 # trailing comment\n"
      "\t# indented comment\n"
      "packing-lp b.psdp eps=0.2\t# tab before comment\n");
  const SolveBatch batch = read_manifest(manifest, "test");
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.jobs()[0].label, "p99#high");
  EXPECT_EQ(batch.jobs()[0].instance, "run#7");
  EXPECT_EQ(batch.jobs()[1].options.eps, 0.2);
}

TEST(Manifest, SetLinesApplyTunableOverrides) {
  struct Restore {
    ~Restore() { util::tunables().reset(); }
  } restore;
  std::stringstream manifest(
      "set lanes=2 wide-work=1048576\n"
      "set cache_capacity=7\n"
      "packing-lp a.psdp\n");
  const SolveBatch batch = read_manifest(manifest, "test");
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(util::tunables().get(util::TunableId::k_lanes), 2);
  EXPECT_EQ(util::tunables().get(util::TunableId::k_wide_work), 1048576);
  // Options structs constructed after the manifest load (the solver_cli
  // startup order) read the overrides.
  EXPECT_EQ(SchedulerOptions{}.lanes, 2);
  EXPECT_EQ(SchedulerOptions{}.wide_work, 1048576);
  EXPECT_EQ(ArtifactCache::Options{}.capacity, 7u);
}

TEST(Manifest, SetLineErrorsNameLocationAndTunable) {
  struct Restore {
    ~Restore() { util::tunables().reset(); }
  } restore;
  const auto message_of = [](const std::string& text) -> std::string {
    std::stringstream in(text);
    try {
      read_manifest(in, "m");
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "";
  };
  {
    const std::string what = message_of("set lanes=banana\n");
    EXPECT_NE(what.find("m:1"), std::string::npos) << what;
    EXPECT_NE(what.find("lanes"), std::string::npos) << what;
  }
  {
    const std::string what = message_of("set segment_rows=1\n");  // below min
    EXPECT_NE(what.find("segment_rows"), std::string::npos) << what;
    EXPECT_NE(what.find("range"), std::string::npos) << what;
  }
  {
    const std::string what = message_of("set no_such_knob=1\n");
    EXPECT_NE(what.find("no_such_knob"), std::string::npos) << what;
  }
  {
    const std::string what = message_of("packing-lp a.psdp\nset\n");
    EXPECT_NE(what.find("m:2"), std::string::npos) << what;
    EXPECT_NE(what.find("without assignments"), std::string::npos) << what;
  }
  {
    const std::string what = message_of("set lanes\n");
    EXPECT_NE(what.find("key=value"), std::string::npos) << what;
  }
}

TEST(BatchScheduler, ZeroDeadlineIsImmediatelyDueNotUnset) {
  ThreadGuard guard;
  par::set_num_threads(2);
  SolveBatch batch;
  for (int i = 0; i < 2; ++i) {
    batch.add_lp(str("lp", i), std::make_shared<const core::PackingLp>(
                                   apps::complete_graph_matching_lp(6).lp));
  }
  // Pre-fix, deadline_ms == 0 silently meant "no deadline"; now 0 is a
  // real, immediately-due deadline and only an unset optional means none.
  batch.jobs()[0].deadline_ms = 0;

  BatchScheduler scheduler;
  const std::vector<JobResult> results = scheduler.run(batch);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  ASSERT_TRUE(results[0].deadline_ms.has_value());
  EXPECT_EQ(*results[0].deadline_ms, 0);
  EXPECT_FALSE(results[0].deadline_met)
      << "a zero deadline cannot be met by any positive service time";
  EXPECT_FALSE(results[1].deadline_ms.has_value());
  EXPECT_TRUE(results[1].deadline_met) << "no deadline set, none missed";
}

TEST(Manifest, PriorityAndDeadlineErrorsNameLineAndToken) {
  const auto message_of = [](const std::string& text) -> std::string {
    std::stringstream in(text);
    try {
      read_manifest(in, "m");
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "";
  };
  {
    const std::string what =
        message_of("packing-lp a.psdp\npacking-lp b.psdp priority=soon\n");
    EXPECT_NE(what.find("m:2"), std::string::npos) << what;
    EXPECT_NE(what.find("soon"), std::string::npos) << what;
  }
  {
    const std::string what = message_of("packing-lp a.psdp deadline-ms=-5\n");
    EXPECT_NE(what.find("m:1"), std::string::npos) << what;
    EXPECT_NE(what.find(">= 0"), std::string::npos) << what;
  }
  {
    const std::string what =
        message_of("packing-lp a.psdp deadline-ms=later\n");
    EXPECT_NE(what.find("later"), std::string::npos) << what;
  }
}

TEST(Manifest, ErrorsNameLineAndToken) {
  const auto message_of = [](const std::string& text) -> std::string {
    std::stringstream in(text);
    try {
      read_manifest(in, "m");
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "";
  };
  {
    const std::string what = message_of("packing-lp a.psdp\nwarp b.psdp\n");
    EXPECT_NE(what.find("m:2"), std::string::npos) << what;
    EXPECT_NE(what.find("warp"), std::string::npos) << what;
  }
  {
    const std::string what = message_of("packing-lp a.psdp eps=bogus\n");
    EXPECT_NE(what.find("m:1"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
  }
  {
    const std::string what = message_of("packing-lp a.psdp eps\n");
    EXPECT_NE(what.find("key=value"), std::string::npos) << what;
  }
  {
    const std::string what = message_of("packing-lp\n");
    EXPECT_NE(what.find("missing instance path"), std::string::npos) << what;
  }
  {
    const std::string what = message_of("# only comments\n\n");
    EXPECT_NE(what.find("no jobs"), std::string::npos) << what;
  }
}

TEST(Manifest, EndToEndSolvesFromFiles) {
  ThreadGuard guard;
  par::set_num_threads(2);
  const std::string dir = ::testing::TempDir();
  const std::string lp_path = dir + "/psdp_serve_test.lp.psdp";
  io::save_lp(lp_path, apps::complete_graph_matching_lp(6).lp);
  const std::string fact_path = dir + "/psdp_serve_test.fact.psdp";
  io::save_factorized(fact_path,
                      apps::random_factorized({.n = 4, .m = 64, .rank = 2,
                                               .nnz_per_column = 4,
                                               .seed = 2}));

  std::stringstream manifest;
  manifest << "packing-lp " << lp_path << " eps=0.2\n"
           << "packing-lp " << lp_path << " eps=0.1\n"
           << "packing-factorized " << fact_path
           << " eps=0.5 decision-eps=0.3 probe=phased\n";
  SolveBatch batch = read_manifest(manifest, "files");

  BatchScheduler scheduler;
  const std::vector<JobResult> results = scheduler.run(batch);
  ASSERT_EQ(results.size(), 3u);
  for (const JobResult& r : results) {
    EXPECT_TRUE(r.ok) << r.label << ": " << r.error;
  }
  // K6 fractional matching optimum is exactly 3.
  EXPECT_NEAR(results[0].lp.upper, 3.0, 3.0 * 0.25);
  // The two LP jobs share one manifest path, hence one artifact key:
  // exactly one of them built it (they may have raced from two lanes).
  EXPECT_NE(results[0].cache_hit, results[1].cache_hit);

  std::remove(lp_path.c_str());
  std::remove(fact_path.c_str());
}

}  // namespace
}  // namespace psdp::serve
