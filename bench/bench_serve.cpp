// Serve-layer throughput bench: batch scheduling vs. sequential
// one-at-a-time solves, at the same pool width, on a heterogeneous job mix
// (graph covering + beamforming + dense/factorized packing + positive LP,
// with repeated configurations per instance).
//
// Three modes over the same jobs:
//
//   sequential  today's behavior emulated faithfully: every job is solved
//               alone at full pool width by a fresh scheduler (fresh
//               ArtifactCache), so each job re-generates its instance,
//               rebuilds transpose indexes and re-normalizes -- one
//               process entry point per job.
//   batch       one BatchScheduler.run() over all jobs: narrow jobs pack
//               onto lanes, artifacts are shared through the cache.
//   warm        the same batch again on the same scheduler: every artifact
//               is cached, so this is the steady-state serve regime.
//
// The bench *asserts* (exit 1 on failure):
//   * per-job results are bitwise identical across all three modes -- the
//     lanes-vs-solo determinism contract of serve/scheduler.hpp;
//   * the warm batch performs zero transpose-index builds
//     (--assert-cache-reuse, default on);
//   * batch/sequential throughput >= --assert-speedup when set (the ISSUE
//     acceptance bar is 1.5).
//
// Results land in BENCH_serve.json (schema in docs/TUNING.md). --smoke
// shrinks every instance for CI.
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/beamforming.hpp"
#include "apps/generators.hpp"
#include "apps/graph.hpp"
#include "bench_common.hpp"
#include "par/parallel.hpp"
#include "serve/scheduler.hpp"
#include "sparse/csr.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using namespace psdp;

struct ModeStats {
  double seconds = 0;
  double jobs_per_second = 0;
};

struct JobTiming {
  std::string label;
  std::string kind;
  double sequential_seconds = 0;
  double batch_seconds = 0;
  double batch_queue_seconds = 0;
  double warm_seconds = 0;
  bool batch_cache_hit = false;
  int batch_lane = -1;
};

/// The heterogeneous workload: a few unique instances, several (eps, probe)
/// configurations each, so the batch modes can amortize artifacts.
serve::SolveBatch make_batch(bool smoke) {
  serve::SolveBatch batch;

  // Factorized packing over tall sparse factors (the Theorem 4.1 path);
  // phased probes keep per-job runtimes in check. The m here is what makes
  // the solver's parallel loops actually fork (m > the parallel grain), so
  // the sequential baseline pays real fork-join traffic per region.
  const auto add_fact = [&](const std::string& key,
                            const apps::FactorizedOptions& generator, Real eps,
                            const std::string& label) {
    core::OptimizeOptions options;
    options.eps = eps;
    options.decision_eps = 0.25;
    options.probe_solver = core::ProbeSolver::kPhased;
    // A bench-sized sketch: the JL row count for dot_eps ~ 0.125 runs to
    // hundreds of rows at these dimensions, putting single jobs at minutes
    // -- a serving workload runs its probes at modest fixed sketch sizes
    // (certificates stay measured and valid; only probe progress varies).
    options.decision.dot_options.sketch_rows_override = 16;
    serve::JobSpec job;
    job.instance = key;
    job.label = label;
    job.kind = serve::JobKind::kPackingFactorized;
    job.options = options;
    job.builder = [generator] {
      return serve::prepare_factorized(apps::random_factorized(generator));
    };
    batch.add(std::move(job));
  };
  // Tall factors above the parallel grain, so the solver's panel loops
  // really fork: these are the jobs whose solo runs spread tiny panel
  // chunks across the whole pool, and whose lane runs pack onto one thread.
  {
    apps::FactorizedOptions generator;
    generator.rank = 2;
    generator.nnz_per_column = 6;
    const Index sizes[] = {2048, 3072, 4096};
    const Index fact_instances = smoke ? 1 : 3;
    for (Index f = 0; f < fact_instances; ++f) {
      generator.m = smoke ? 512 : sizes[f];
      generator.n = 12;
      generator.seed = 5 + static_cast<std::uint64_t>(f);
      const std::string key = str("fact", f);
      add_fact(key, generator, 0.5, str(key, "/phased-loose"));
      add_fact(key, generator, 0.45, str(key, "/phased-mid"));
      if (!smoke) {
        add_fact(key, generator, 0.4, str(key, "/phased"));
        add_fact(key, generator, 0.35, str(key, "/phased-tight"));
      }
    }
  }

  // Graph covering: the edge-covering SDP of a random connected graph
  // (dense path; the cached artifact is the Appendix-A normalization).
  {
    const apps::Graph graph = apps::random_connected_graph(8, 6);
    core::CoveringProblem problem = apps::edge_covering_problem(graph);
    auto shared =
        std::make_shared<const core::CoveringProblem>(std::move(problem));
    for (const Real eps : {0.35, 0.3}) {
      core::OptimizeOptions options;
      options.eps = eps;
      batch.add_covering("graphcov", shared, options,
                         str("graphcov/eps", eps));
    }
  }

  // Beamforming covering (the paper's flagship application).
  {
    apps::BeamformingOptions beam;
    beam.users = smoke ? 4 : 6;
    beam.antennas = smoke ? 3 : 4;
    auto shared = std::make_shared<const core::CoveringProblem>(
        apps::beamforming_problem(beam));
    for (const Real eps : {0.35, 0.3}) {
      core::OptimizeOptions options;
      options.eps = eps;
      batch.add_covering("beam", shared, options, str("beam/eps", eps));
    }
  }

  // Dense packing (random ellipsoids).
  {
    auto shared = std::make_shared<const core::PackingInstance>(
        apps::random_ellipses({.n = 12, .m = 8, .rank = 2, .seed = 21}));
    for (const Real eps : {0.3, 0.25}) {
      core::OptimizeOptions options;
      options.eps = eps;
      batch.add_packing("ellipses", shared, options, str("ellipses/eps", eps));
    }
  }

  // Positive LPs: a random packing LP and the cycle-graph matching LP.
  {
    auto shared = std::make_shared<const core::PackingLp>(
        apps::random_packing_lp({.rows = 24, .cols = 48, .seed = 8}));
    for (const Real eps : {0.2, 0.15}) {
      core::OptimizeOptions options;
      options.eps = eps;
      batch.add_lp("randlp", shared, options, str("randlp/eps", eps));
    }
  }
  if (!smoke) {
    auto shared = std::make_shared<const core::PackingLp>(
        apps::cycle_graph_matching_lp(31).lp);
    for (const Real eps : {0.2, 0.1}) {
      core::OptimizeOptions options;
      options.eps = eps;
      batch.add_lp("cycle31", shared, options, str("cycle31/eps", eps));
    }
  }
  return batch;
}

/// The sequential baseline: each job on a fresh scheduler (fresh caches)
/// with wide_work = 0, so it runs alone at full pool width -- one emulated
/// process entry per job.
std::vector<serve::JobResult> run_sequential(const serve::SolveBatch& batch,
                                             double& seconds) {
  std::vector<serve::JobResult> results;
  results.reserve(batch.size());
  util::WallTimer timer;
  for (const serve::JobSpec& spec : batch.jobs()) {
    serve::SchedulerOptions options;
    options.wide_work = 0;  // everything solo at full width
    serve::BatchScheduler scheduler(options);
    serve::SolveBatch single;
    single.add(spec);
    std::vector<serve::JobResult> one = scheduler.run(single);
    results.push_back(std::move(one.front()));
  }
  seconds = timer.seconds();
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_serve",
                "Batch solve service throughput vs sequential solves");
  auto& smoke = cli.flag<bool>("smoke", false, "tiny instances for CI");
  auto& threads = cli.flag<int>("threads", 8, "pool width (0 = keep default)");
  auto& lanes = cli.flag<int>("lanes", 0, "batch lanes (0 = auto)");
  auto& out_path = cli.flag<std::string>("out", "BENCH_serve.json",
                                         "result JSON path");
  auto& assert_speedup = cli.flag<Real>(
      "assert-speedup", 0,
      "fail unless batch/sequential throughput >= this (0 = report only)");
  auto& assert_cache = cli.flag<bool>(
      "assert-cache-reuse", true,
      "fail unless the warm batch rebuilds zero transpose indexes");
  auto& lane_sweep = cli.flag<bool>(
      "lane-sweep", false, "also time warm batches at lanes = 1..threads");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  if (threads.value > 0) par::set_num_threads(threads.value);
  const int width = par::num_threads();

  bench::print_header(
      "SERVE: batch scheduling over the shared pool",
      str("N heterogeneous jobs (packing dense/factorized, covering, LP; "
          "repeated configs per instance), batch vs sequential at pool "
          "width ", width, "."));

  serve::SolveBatch batch = make_batch(smoke.value);
  {
    std::vector<std::string> keys;
    for (const serve::JobSpec& job : batch.jobs()) keys.push_back(job.instance);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::cout << batch.size() << " jobs over " << keys.size()
              << " unique instances\n\n";
  }

  // ---- sequential: one fresh full-width scheduler per job ----------------
  ModeStats sequential;
  const std::vector<serve::JobResult> seq_results =
      run_sequential(batch, sequential.seconds);

  // ---- batch: one scheduler, cold cache ----------------------------------
  serve::SchedulerOptions scheduler_options;
  scheduler_options.lanes = lanes.value;
  serve::BatchScheduler scheduler(scheduler_options);
  ModeStats cold;
  util::WallTimer timer;
  const std::vector<serve::JobResult> cold_results = scheduler.run(batch);
  cold.seconds = timer.seconds();

  // ---- warm: same scheduler, every artifact cached -----------------------
  const std::uint64_t index_builds_before_warm =
      sparse::transpose_index_build_count();
  ModeStats warm;
  timer.reset();
  const std::vector<serve::JobResult> warm_results = scheduler.run(batch);
  warm.seconds = timer.seconds();
  const std::uint64_t warm_index_builds =
      sparse::transpose_index_build_count() - index_builds_before_warm;

  const auto jobs_per_second = [&](ModeStats& mode) {
    mode.jobs_per_second =
        mode.seconds > 0 ? static_cast<double>(batch.size()) / mode.seconds : 0;
  };
  jobs_per_second(sequential);
  jobs_per_second(cold);
  jobs_per_second(warm);

  // ---- identity: every job bitwise equal across the three modes ----------
  Index mismatches = 0;
  std::vector<JobTiming> timings;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!serve::payload_bitwise_equal(seq_results[i], cold_results[i]) ||
        !serve::payload_bitwise_equal(seq_results[i], warm_results[i])) {
      ++mismatches;
      std::cout << "IDENTITY MISMATCH: " << seq_results[i].label << "\n";
    }
    JobTiming t;
    t.label = cold_results[i].label;
    t.kind = serve::job_kind_name(cold_results[i].kind);
    t.sequential_seconds = seq_results[i].seconds;
    t.batch_seconds = cold_results[i].run_seconds;
    t.batch_queue_seconds = cold_results[i].queue_seconds;
    t.warm_seconds = warm_results[i].run_seconds;
    t.batch_cache_hit = cold_results[i].cache_hit;
    t.batch_lane = cold_results[i].lane;
    timings.push_back(std::move(t));
    if (!cold_results[i].ok) {
      std::cout << "JOB FAILED: " << cold_results[i].label << ": "
                << cold_results[i].error << "\n";
      ++mismatches;  // a failing job fails the bench
    }
  }

  const double cold_speedup =
      sequential.seconds > 0 ? sequential.seconds / cold.seconds : 0;
  const double warm_speedup =
      sequential.seconds > 0 ? sequential.seconds / warm.seconds : 0;

  util::Table table({"mode", "seconds", "jobs/s", "speedup"});
  table.add_row({"sequential", util::Table::cell(sequential.seconds),
                 util::Table::cell(sequential.jobs_per_second), "1"});
  table.add_row({"batch", util::Table::cell(cold.seconds),
                 util::Table::cell(cold.jobs_per_second),
                 util::Table::cell(cold_speedup)});
  table.add_row({"warm", util::Table::cell(warm.seconds),
                 util::Table::cell(warm.jobs_per_second),
                 util::Table::cell(warm_speedup)});
  table.print();

  const serve::ArtifactCache::Stats cache = scheduler.cache().stats();
  std::cout << "cache: " << cache.hits << " hits, " << cache.misses
            << " misses, " << cache.evictions << " evictions, "
            << cache.workspace_reuses << " workspace reuses\n";
  std::cout << "warm batch: " << warm_index_builds
            << " transpose-index builds\n";

  // ---- optional lane sweep (warm batches) --------------------------------
  std::vector<std::pair<int, double>> lane_rows;
  if (lane_sweep.value) {
    for (int l = 1; l <= width; l *= 2) {
      serve::SchedulerOptions swept = scheduler_options;
      swept.lanes = l;
      serve::BatchScheduler lane_scheduler(swept);
      lane_scheduler.run(batch);  // warm its cache
      timer.reset();
      lane_scheduler.run(batch);
      lane_rows.emplace_back(l, timer.seconds());
      std::cout << "lanes=" << l << ": " << lane_rows.back().second << " s\n";
    }
  }

  // ---- JSON ---------------------------------------------------------------
  {
    std::ofstream out(out_path.value);
    out.precision(17);
    out << "{\n  \"bench\": \"serve\",\n  \"smoke\": "
        << (smoke.value ? "true" : "false") << ",\n  \"threads\": " << width
        << ",\n  \"lanes\": "
        << (lanes.value > 0 ? lanes.value : width)
        << ",\n  \"jobs\": " << batch.size() << ",\n  \"modes\": {\n"
        << "    \"sequential\": {\"seconds\": " << sequential.seconds
        << ", \"jobs_per_second\": " << sequential.jobs_per_second << "},\n"
        << "    \"batch\": {\"seconds\": " << cold.seconds
        << ", \"jobs_per_second\": " << cold.jobs_per_second
        << ", \"speedup\": " << cold_speedup << "},\n"
        << "    \"warm\": {\"seconds\": " << warm.seconds
        << ", \"jobs_per_second\": " << warm.jobs_per_second
        << ", \"speedup\": " << warm_speedup << "}\n  },\n"
        << "  \"cache\": {\"hits\": " << cache.hits
        << ", \"misses\": " << cache.misses
        << ", \"evictions\": " << cache.evictions
        << ", \"workspace_reuses\": " << cache.workspace_reuses
        << ", \"warm_index_builds\": " << warm_index_builds << "},\n"
        << "  \"identity\": {\"jobs\": " << batch.size()
        << ", \"mismatches\": " << mismatches << "},\n  \"jobs_detail\": [\n";
    for (std::size_t i = 0; i < timings.size(); ++i) {
      const JobTiming& t = timings[i];
      out << "    {\"label\": \"" << t.label << "\", \"kind\": \"" << t.kind
          << "\", \"sequential_seconds\": " << t.sequential_seconds
          << ", \"batch_seconds\": " << t.batch_seconds
          << ", \"batch_queue_seconds\": " << t.batch_queue_seconds
          << ", \"warm_seconds\": " << t.warm_seconds
          << ", \"batch_cache_hit\": " << (t.batch_cache_hit ? "true" : "false")
          << ", \"batch_lane\": " << t.batch_lane << "}"
          << (i + 1 < timings.size() ? "," : "") << "\n";
    }
    out << "  ]";
    if (!lane_rows.empty()) {
      out << ",\n  \"lane_sweep\": [\n";
      for (std::size_t i = 0; i < lane_rows.size(); ++i) {
        out << "    {\"lanes\": " << lane_rows[i].first
            << ", \"warm_seconds\": " << lane_rows[i].second << "}"
            << (i + 1 < lane_rows.size() ? "," : "") << "\n";
      }
      out << "  ]";
    }
    out << "\n}\n";
    out.flush();
    PSDP_CHECK(out.good(), str("cannot write ", out_path.value));
  }
  std::cout << "wrote " << out_path.value << "\n";

  // ---- verdicts -----------------------------------------------------------
  bool ok = true;
  if (mismatches > 0) {
    bench::print_verdict(false, str(mismatches, " job(s) diverged or failed"));
    ok = false;
  } else {
    bench::print_verdict(true,
                         "per-job results bitwise identical across "
                         "sequential, batch and warm runs");
  }
  if (assert_cache.value) {
    const bool reuse_ok = warm_index_builds == 0;
    bench::print_verdict(
        reuse_ok, str("warm batch rebuilt ", warm_index_builds,
                      " transpose indexes (target: 0)"));
    ok = ok && reuse_ok;
  }
  if (assert_speedup.value > 0) {
    const double achieved = std::max(cold_speedup, warm_speedup);
    const bool speed_ok = achieved >= assert_speedup.value;
    bench::print_verdict(
        speed_ok, str("batch throughput ", achieved,
                      "x sequential (target >= ", assert_speedup.value, "x)"));
    ok = ok && speed_ok;
  }
  return ok ? 0 : 1;
}
