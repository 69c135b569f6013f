// General-purpose solver front end: load an instance file (see
// io/instance_io.hpp for the format), solve it, verify, and report.
//
//   ./solver_cli --input=problem.psdp --kind=packing-dense  [--eps=0.1]
//   ./solver_cli --input=problem.psdp --kind=packing-factorized
//   ./solver_cli --input=problem.psdp --kind=covering
//   ./solver_cli --input=problem.psdp --kind=packing-lp
//
// Batch mode runs a whole job manifest (serve/manifest.hpp format: one
// "<kind> <path> [eps=.. probe=.. ...]" line per job) through the batch
// scheduler, sharing prepared artifacts between jobs on the same instance:
//
//   ./solver_cli --batch=jobs.txt [--lanes=4] [--threads=8]
//
// With --write-example=PATH it instead writes a sample instance of the
// requested kind to PATH, so the round trip can be exercised without any
// other tooling.
#include <iomanip>
#include <iostream>
#include <optional>

#include "apps/beamforming.hpp"
#include "apps/generators.hpp"
#include "core/certificates.hpp"
#include "core/optimize.hpp"
#include "core/poslp.hpp"
#include "io/chunked.hpp"
#include "io/instance_io.hpp"
#include "par/parallel.hpp"
#include "serve/manifest.hpp"
#include "serve/scheduler.hpp"
#include "simd/simd.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"
#include "util/tunables.hpp"

namespace {

using namespace psdp;

/// Kernel-configuration banner: which SIMD backend this process dispatches
/// to (and which were compiled in), plus the sketch-panel precision the
/// factorized solvers will request.
void print_kernel_banner(core::PanelPrecision precision) {
  std::cout << "Kernels: isa " << simd::isa_name(simd::active_isa())
            << " (compiled:";
  for (const simd::Isa isa : simd::compiled_isas()) {
    std::cout << " " << simd::isa_name(isa);
  }
  std::cout << "), sketch panels "
            << core::panel_precision_name(precision) << "\n";
}

int solve_packing_dense(const std::string& path, const core::OptimizeOptions& options) {
  const core::PackingInstance instance = io::load_packing(path);
  std::cout << "Loaded dense packing instance: n = " << instance.size()
            << ", m = " << instance.dim() << "\n";
  util::WallTimer timer;
  const core::PackingOptimum r = core::approx_packing(instance, options);
  std::cout << "OPT in [" << r.lower << ", " << r.upper << "]  ("
            << timer.seconds() << " s, " << r.decision_calls
            << " decision calls)\n";
  const core::DualCheck check = core::check_dual(instance, r.best_x);
  std::cout << "Witness verified: " << std::boolalpha << check.feasible << "\n";
  return check.feasible ? 0 : 1;
}

/// Load a factorized instance from either serialization: chunked container
/// files are sniffed by magic and loaded shard-at-a-time, everything else
/// goes through the text reader. `shards` > 0 requests that constraint
/// partition on the result (overriding a chunked file's stored cuts).
core::FactorizedPackingInstance load_factorized_any(const std::string& path,
                                                    Index shards) {
  if (io::is_chunked_instance_file(path)) {
    return io::load_factorized_chunked(path, {}, shards);
  }
  return io::load_factorized(path, shards);
}

int solve_packing_factorized(const std::string& path,
                             core::OptimizeOptions options,
                             const util::TunableProfileStore* profiles,
                             Index shards) {
  const core::FactorizedPackingInstance instance =
      load_factorized_any(path, shards);
  std::cout << "Loaded factorized packing instance: n = " << instance.size()
            << ", m = " << instance.dim() << ", q = " << instance.total_nnz()
            << ", shards = " << instance.shard_count() << "\n";
  // With --tunables-profile, apply the tuned values recorded for this
  // instance's shape bucket (if any) and re-derive the registry-backed
  // option defaults the caller captured before the profile landed.
  if (profiles != nullptr) {
    const util::ShapeBucket bucket = util::ShapeBucket::of(
        instance.total_nnz(), instance.dim(), instance.size());
    if (profiles->apply(bucket, util::tunables())) {
      std::cout << "Applied tuned profile for shape bucket (2^"
                << bucket.log2_nnz << " nnz, 2^" << bucket.log2_rows
                << " rows, 2^" << bucket.log2_cols << " cols)\n";
      const core::OptimizeOptions fresh;
      options.dot_block_size = fresh.dot_block_size;
      options.decision.dot_options.block_size =
          fresh.decision.dot_options.block_size;
    } else {
      std::cout << "No tuned profile for this shape bucket; defaults kept\n";
    }
  }
  util::WallTimer timer;
  const core::PackingOptimum r = core::approx_packing(instance, options);
  std::cout << "OPT in [" << r.lower << ", " << r.upper << "]  ("
            << timer.seconds() << " s)\n";
  // Full-precision bound echo: 17 significant digits round-trip a double
  // exactly, so diffing this line between runs is a bitwise-objective gate
  // (the CI ooc-smoke job compares shards=1 vs shards=4 with it).
  {
    std::ostringstream bits;
    bits.precision(17);
    bits << "objective-bits: " << r.lower << " " << r.upper;
    std::cout << bits.str() << "\n";
  }
  const core::DualCheck check = core::check_dual(instance, r.best_x);
  std::cout << "Witness verified: " << std::boolalpha << check.feasible << "\n";
  return check.feasible ? 0 : 1;
}

int solve_covering(const std::string& path, const core::OptimizeOptions& options) {
  const core::CoveringProblem problem = io::load_covering(path);
  std::cout << "Loaded covering problem: n = " << problem.size()
            << ", m = " << problem.dim() << "\n";
  util::WallTimer timer;
  const core::CoveringOptimum r = core::approx_covering(problem, options);
  std::cout << "C . Y = " << r.objective << " (certified OPT >= "
            << r.lower_bound << ", " << timer.seconds() << " s)\n";
  Real worst_slack = std::numeric_limits<Real>::infinity();
  for (Index i = 0; i < problem.size(); ++i) {
    worst_slack = std::min(
        worst_slack,
        linalg::frobenius_dot(problem.constraints[static_cast<std::size_t>(i)],
                              r.y) -
            problem.rhs[i]);
  }
  std::cout << "Worst constraint slack: " << worst_slack << "\n";
  return worst_slack >= -1e-6 ? 0 : 1;
}

int solve_packing_lp(const std::string& path,
                     const core::OptimizeOptions& options) {
  const core::PackingLp lp = io::load_lp(path);
  std::cout << "Loaded packing LP: " << lp.rows() << " constraints, "
            << lp.size() << " variables\n";
  util::WallTimer timer;
  const core::LpOptimum r = core::approx_packing_lp(lp, options);
  std::cout << "OPT in [" << r.lower << ", " << r.upper << "]  ("
            << timer.seconds() << " s, " << r.decision_calls
            << " decision calls)\n";
  // Exact feasibility re-check of the witness.
  const linalg::Vector px = linalg::matvec(lp.matrix(), r.best_x);
  bool feasible = true;
  for (Index j = 0; j < px.size(); ++j) feasible &= px[j] <= 1 + 1e-9;
  std::cout << "Witness verified: " << std::boolalpha << feasible << "\n";
  return feasible ? 0 : 1;
}

/// One line per finished job, streamed as the scheduler completes them.
void print_job_line(const serve::JobResult& r) {
  std::ostringstream line;
  line << "[" << (r.ok ? "ok" : "FAILED") << "] " << r.label << " ("
       << serve::job_kind_name(r.kind) << ", "
       << (r.lane >= 0 ? "lane " + std::to_string(r.lane) : std::string("wide"))
       << (r.cache_hit ? ", cached" : "") << ") "
       << std::setprecision(4) << r.run_seconds << " s run + "
       << r.queue_seconds << " s queued";
  if (r.deadline_ms.has_value()) {
    line << (r.deadline_met ? "  [deadline met]" : "  [deadline MISSED]");
  }
  if (r.preemptions > 0) line << "  [preempted x" << r.preemptions << "]";
  if (r.promoted) line << "  [widened]";
  if (r.ok) {
    switch (r.kind) {
      case serve::JobKind::kPackingDense:
      case serve::JobKind::kPackingFactorized:
        line << "  OPT in [" << r.packing.lower << ", " << r.packing.upper
             << "]";
        break;
      case serve::JobKind::kCovering:
        line << "  C.Y = " << r.covering.objective
             << " (OPT >= " << r.covering.lower_bound << ")";
        break;
      case serve::JobKind::kPackingLp:
        line << "  OPT in [" << r.lp.lower << ", " << r.lp.upper << "]";
        break;
    }
  } else {
    line << "  " << r.error;
  }
  line << "\n";
  // One insertion, newline included: job lines may arrive from
  // concurrent lanes and must not interleave.
  std::cout << line.str();
}

int run_batch(const std::string& manifest, std::optional<int> lanes) {
  // Order matters: load_manifest applies any `set key=value` tunable
  // overrides as it reads, and SchedulerOptions is constructed after, so
  // its registry-backed defaults (lanes, wide_work, cache sizing) see
  // them. An explicit --lanes flag still wins over everything.
  serve::SolveBatch batch = serve::load_manifest(manifest);
  serve::SchedulerOptions options;
  if (lanes.has_value()) options.lanes = *lanes;
  for (auto& job : batch.jobs()) job.on_complete = print_job_line;
  serve::BatchScheduler scheduler(options);

  std::cout << "Running " << batch.size() << " jobs over "
            << par::num_threads() << " threads...\n";
  util::WallTimer timer;
  const std::vector<serve::JobResult> results = scheduler.run(batch);
  const double seconds = timer.seconds();

  std::size_t failed = 0;
  for (const serve::JobResult& r : results) failed += r.ok ? 0 : 1;
  const serve::ArtifactCache::Stats stats = scheduler.cache().stats();
  std::cout << "Batch done: " << results.size() - failed << "/"
            << results.size() << " jobs in " << std::setprecision(4) << seconds
            << " s (" << static_cast<double>(results.size()) / seconds
            << " jobs/s); cache " << stats.hits << " hits / " << stats.misses
            << " misses / " << stats.evictions << " evictions, "
            << stats.workspace_reuses << " workspace reuses\n";
  const serve::SchedulerStats sched = scheduler.stats();
  std::cout << "Scheduler: " << sched.preemptions << " preemptions, "
            << sched.promotions << " promotions, " << sched.demotions
            << " demotions, " << sched.shed << " shed, peak queue "
            << sched.peak_queue << ", " << sched.deadline_misses
            << " deadline misses\n";
  return failed == 0 ? 0 : 1;
}

void write_example(const std::string& path, const std::string& kind) {
  if (kind == "packing-dense") {
    apps::EllipseOptions gen;
    gen.n = 12;
    gen.m = 6;
    io::save_packing(path, apps::random_ellipses(gen));
  } else if (kind == "packing-factorized") {
    apps::FactorizedOptions gen;
    gen.n = 12;
    gen.m = 24;
    gen.nnz_per_column = 4;
    io::save_factorized(path, apps::random_factorized(gen));
  } else if (kind == "packing-lp") {
    io::save_lp(path, apps::complete_graph_matching_lp(8).lp);
  } else if (kind == "covering") {
    apps::BeamformingOptions gen;
    gen.users = 8;
    gen.antennas = 5;
    io::save_covering(path, apps::beamforming_problem(gen));
  } else {
    throw InvalidArgument(str("unknown kind '", kind, "'"));
  }
  std::cout << "Wrote sample " << kind << " instance to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("solver_cli", "Solve a positive SDP instance from a file");
  auto& input = cli.flag<std::string>("input", "", "instance file to solve");
  auto& kind = cli.flag<std::string>(
      "kind", "packing-dense",
      "packing-dense | packing-factorized | covering | packing-lp");
  auto& eps = cli.flag<Real>("eps", 0.1, "target relative accuracy");
  auto& example = cli.flag<std::string>(
      "write-example", "", "write a sample instance here and exit");
  auto& batch = cli.flag<std::string>(
      "batch", "", "job manifest to run through the batch scheduler");
  auto& shards = cli.flag<int>(
      "shards", 0,
      "packing-factorized: constraint shard count for the out-of-core "
      "oracle sweep (0 = keep the file's partition, 1 = unsharded)");
  auto& write_chunked = cli.flag<std::string>(
      "write-chunked", "",
      "convert --input (factorized, text or chunked) to the chunked binary "
      "format at this path, cut into --shards blocks, and exit");
  auto& lanes = cli.flag<int>(
      "lanes", 0, "batch mode: concurrent job lanes (0 = auto)");
  auto& threads = cli.flag<int>(
      "threads", 0, "thread-pool width (0 = hardware default)");
  auto& panel_precision = cli.flag<std::string>(
      "panel-precision", "double",
      "sketch/Taylor panel precision: double | float32 (float32 engages "
      "only on the blocked fused path at eps above the certificate gate)");
  auto& profile_path = cli.flag<std::string>(
      "tunables-profile", "",
      "per-shape tuned profile JSON (from bench_load --profile-out); the "
      "bucket matching the loaded factorized instance is applied");
  util::add_tunable_flags(cli);  // --tune-<knob> for every registry entry
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) return 0;

  try {
    if (threads.value > 0) par::set_num_threads(threads.value);
    core::PanelPrecision precision = core::PanelPrecision::kDouble;
    if (panel_precision.value == "float32") {
      precision = core::PanelPrecision::kFloat32;
    } else {
      PSDP_CHECK(panel_precision.value == "double",
                 str("unknown --panel-precision '", panel_precision.value,
                     "' (double | float32)"));
    }
    if (!example.value.empty()) {
      write_example(example.value, kind.value);
      return 0;
    }
    if (!write_chunked.value.empty()) {
      PSDP_CHECK(!input.value.empty(), "--write-chunked needs --input");
      const core::FactorizedPackingInstance instance =
          load_factorized_any(input.value, shards.value);
      io::save_factorized_chunked(write_chunked.value, instance);
      std::cout << "Wrote chunked instance (" << instance.shard_count()
                << " shards, " << instance.total_nnz() << " nnz) to "
                << write_chunked.value << "\n";
      return 0;
    }
    std::optional<util::TunableProfileStore> profiles;
    if (!profile_path.value.empty()) {
      profiles = util::TunableProfileStore::load(profile_path.value);
      std::cout << "Loaded tuned profiles: " << profiles->size()
                << " shape buckets\n";
    }
    print_kernel_banner(precision);
    if (!batch.value.empty()) {
      return run_batch(batch.value, lanes.set
                                        ? std::optional<int>(lanes.value)
                                        : std::nullopt);
    }
    PSDP_CHECK(!input.value.empty(),
               "--input is required (or --write-example / --batch)");
    core::OptimizeOptions options;
    options.eps = eps.value;
    options.decision.dot_options.panel_precision = precision;
    if (kind.value == "packing-dense") {
      return solve_packing_dense(input.value, options);
    }
    if (kind.value == "packing-factorized") {
      return solve_packing_factorized(input.value, options,
                                      profiles ? &*profiles : nullptr,
                                      shards.value);
    }
    if (kind.value == "covering") {
      return solve_covering(input.value, options);
    }
    if (kind.value == "packing-lp") {
      return solve_packing_lp(input.value, options);
    }
    throw psdp::InvalidArgument(psdp::str("unknown kind '", kind.value, "'"));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
