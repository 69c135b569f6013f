// perfbench: the solver stack's benchmark harness.
//
//   perfbench --workload <tiny-solve|shard-rounds|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// Each workload builds its inputs from --seed, sets up eleven times (the
// median set-up is a metric of its own), measures for about --seconds, and
// checks every output. --trace 0 measures end to end; --trace 1 runs the
// same inputs through the layer probes of harness.hpp instead. The last
// stdout line is one JSON object of raw samples; perfbench/run.py reduces
// it to the named metrics of BENCHMARK.json.
#include <sched.h>

#include <cmath>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

#include "apps/beamforming.hpp"
#include "apps/generators.hpp"
#include "core/certificates.hpp"
#include "harness.hpp"
#include "io/chunked.hpp"
#include "io/instance_io.hpp"
#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "rand/jl.hpp"
#include "rand/rng.hpp"
#include "serve/manifest.hpp"
#include "simd/simd.hpp"

namespace perfbench {
namespace {

namespace apps = psdp::apps;
namespace core = psdp::core;
namespace io = psdp::io;
namespace par = psdp::par;
namespace serve = psdp::serve;
namespace sparse = psdp::sparse;
using psdp::str;

constexpr int kSetupReps = 11;
/// Share of --seconds spent at full width; the rest runs at one thread.
constexpr double kWideShare = 0.7;
/// The two widths alternate in this many blocks, so a slow spell of a
/// shared machine lands on both figures instead of on one of them.
constexpr int kWidthBlocks = 8;
/// Seed of the fixed instance sets (tiny-solve, serve-mix templates).
/// Solve work varies a lot between random small instances (3 to 8 probes),
/// far more than a run can average out, so these sets are fixed and --seed
/// varies what does not change the problem: coordinate and constraint
/// order (tiny-solve) and the arrival stream (serve-mix).
constexpr std::uint64_t kSetSeed = 20120625;

int cpus_available() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Start the pool at `width` threads (the spawn is set-up, not a solve).
void set_width(int width) {
  par::set_num_threads(width);
  par::parallel_for(0, width, [](Index) {}, /*grain=*/1);
}

/// Alternate `wide(budget)` at run.width and `narrow(budget)` at one thread
/// in kWidthBlocks blocks filling --seconds (kWideShare of it wide).
template <typename Wide, typename Narrow>
void alternate_widths(const Run& run, Wide&& wide, Narrow&& narrow) {
  const double block = run.seconds / kWidthBlocks;
  for (int b = 0; b < kWidthBlocks; ++b) {
    set_width(run.width);
    wide(kWideShare * block);
    set_width(1);
    narrow((1 - kWideShare) * block);
  }
  set_width(run.width);
}

/// Rows of the sketch a round of `setup` uses: the override, or the JL
/// count capped at m (where bigDotExp switches to the exact identity).
Index sketch_rows_of(const OracleSetup& setup) {
  const core::BigDotExpOptions& dot = setup.options.dot_options;
  if (dot.sketch_rows_override > 0) return dot.sketch_rows_override;
  const Real dot_eps = setup.options.dot_eps > 0 ? setup.options.dot_eps
                                                 : setup.options.eps / 2;
  const Index m = setup.instance->dim();
  return std::min(m, psdp::rand::jl_rows(m, dot_eps / 2, dot.delta));
}

/// Provenance of the workload's instance and round configuration; one
/// untimed round supplies the Taylor degree ("round_taylor_degree").
void record_shape(Run& run, const core::FactorizedPackingInstance& instance,
                  const OracleSetup& setup) {
  RoundRunner(run, setup, "provenance_round_s", false).run_for(0);
  run.provenance.integer("m", instance.dim())
      .integer("n", instance.size())
      .integer("nnz", instance.total_nnz())
      .integer("shards", instance.shard_count())
      .num("round_eps", setup.eps)
      .integer("sketch_rows", sketch_rows_of(setup))
      .text("transpose_plan", plan_summary(instance[0].q()));
}

// --------------------------------------------------------------- instances --

// tiny-solve: small factorized instances where the kernels take
// microseconds, so fork-join cost and probe/round counts are the solve.
constexpr Index kTinyInstances = 8;
constexpr Index kTinyM = 16;
constexpr Index kTinyN = 8;
constexpr Real kTinyEps = 0.3;

/// `base` with every coordinate r renamed rows[r] and the constraints
/// listed in `order`: the same packing program (same optimum, same spectra)
/// in another memory layout and summation order.
core::FactorizedPackingInstance permuted(
    const core::FactorizedPackingInstance& base, const std::vector<Index>& rows,
    const std::vector<Index>& order) {
  std::vector<sparse::FactorizedPsd> items;
  for (const Index i : order) {
    const sparse::Csr& q = base[i].q();
    std::vector<sparse::Triplet> entries;
    for (Index r = 0; r < q.rows(); ++r) {
      const std::span<const Index> cols = q.row_cols(r);
      const std::span<const Real> vals = q.row_vals(r);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        entries.push_back({rows[static_cast<std::size_t>(r)], cols[k], vals[k]});
      }
    }
    items.emplace_back(
        sparse::Csr::from_triplets(q.rows(), q.cols(), std::move(entries)));
  }
  return core::FactorizedPackingInstance(sparse::FactorizedSet(std::move(items)));
}

std::vector<Index> shuffled(Index n, std::mt19937_64& rng) {
  std::vector<Index> out(static_cast<std::size_t>(n));
  std::iota(out.begin(), out.end(), Index{0});
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

/// Write the tiny instance set, permuted by the run's seed, as one-shard
/// chunked files; returns the paths.
std::vector<std::string> write_tiny_instances(const Run& run) {
  std::vector<std::string> paths;
  for (Index i = 0; i < kTinyInstances; ++i) {
    apps::FactorizedOptions shape;
    shape.m = kTinyM;
    shape.n = kTinyN;
    shape.rank = 2;
    shape.nnz_per_column = 4;
    shape.seed = psdp::rand::stream_seed(kSetSeed, 100 + static_cast<std::uint64_t>(i));
    std::mt19937_64 rng(psdp::rand::stream_seed(run.seed, static_cast<std::uint64_t>(i)));
    const std::vector<Index> rows = shuffled(kTinyM, rng);
    const std::vector<Index> order = shuffled(kTinyN, rng);
    paths.push_back(str(run.work_dir, "/tiny", i, ".chk"));
    io::save_factorized_chunked(
        paths.back(), permuted(apps::random_factorized(shape), rows, order), 1);
  }
  return paths;
}

core::OptimizeOptions tiny_options() {
  core::OptimizeOptions options;
  options.eps = kTinyEps;
  options.probe_solver = core::ProbeSolver::kPhased;
  return options;
}

/// The decision eps of one probe of approx_packing at eps (its default).
Real probe_eps(Real eps) { return std::clamp<Real>(eps / 4, 0.03, 0.25); }

// ------------------------------------------------------------ serve probe --

/// Traced runs of the workloads that do not go through solverd still
/// report the serve layer: a burst of one job per tiny instance, all due at
/// once, through a warm loopback daemon, each checked against its
/// in-process solve.
void serve_probe(Run& run, const std::vector<std::string>& paths) {
  std::vector<StreamJob> jobs;
  std::map<std::string, serve::JobResult> references;
  InProcessSolver in_process;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    StreamJob job;
    job.tmpl = str("probe", i);
    job.eps = kTinyEps;
    job.line = str("packing-factorized ", paths[i], " eps=", kTinyEps,
                   " probe=phased id=", job.tmpl);
    references[job.tmpl] = in_process.solve(job.line);
    jobs.push_back(job);
  }
  DaemonSession session(run.nproc);
  for (const StreamJob& job : jobs) session.submit(job.line);
  session.wait_for(jobs.size());
  stream_jobs(run, session, jobs, references);
}

// -------------------------------------------------------------- tiny-solve --

/// Back-to-back approx_packing calls, cycling through the set from `next`,
/// for `budget` seconds (at least one). Each is checked: lower <= upper and
/// best_x dual feasible by the exact check_dual.
void solve_for(Run& run, const std::vector<core::FactorizedPackingInstance>& set,
               std::size_t& next, double budget, const std::string& label,
               bool meter) {
  const core::OptimizeOptions options = tiny_options();
  const Clock::time_point start = Clock::now();
  for (bool first = true; first || seconds_since(start) < budget; first = false) {
    const std::size_t index = next++ % set.size();
    const core::FactorizedPackingInstance& instance = set[index];
    par::CostMeter::reset();
    const Clock::time_point solve_start = Clock::now();
    const core::PackingOptimum best = core::approx_packing(instance, options);
    run.sample(label, seconds_since(solve_start));
    if (meter) {
      const par::CostMeter::Cost cost = par::CostMeter::snapshot();
      run.sample("par.cost_work", static_cast<double>(cost.work));
      run.sample("par.cost_depth", static_cast<double>(cost.depth));
      run.sample("core.probes", static_cast<double>(best.decision_calls));
      run.sample("core.rounds", static_cast<double>(best.total_iterations));
    }
    const bool feasible = core::check_dual(instance, best.best_x).feasible;
    run.check(best.lower <= best.upper && feasible,
              str(label, " solve of instance ", index, ": ",
                  feasible ? "lower > upper" : "best_x not dual feasible"));
    const double ratio = best.upper / best.lower;
    run.sample("bracket_ratio", ratio);
    run.sample("eps_miss", ratio > 1 + options.eps ? 1 : 0);
  }
}

void tiny_solve(Run& run) {
  std::vector<std::string> paths;
  std::vector<core::FactorizedPackingInstance> set;
  measure_setup(run, run.trace ? 1 : kSetupReps, [&] {
    sparse::clear_transpose_plan_cache();
    paths = write_tiny_instances(run);
    set = load_chunked(run, paths);
    set_width(1);  // warm-up solve: first-touch costs stay out of the timing
    core::approx_packing(set[0], tiny_options());
    set_width(run.width);
  });
  record_shape(run, set[0], decision_oracle(set[0], probe_eps(kTinyEps)));
  run.provenance.num("solve_eps", kTinyEps).text("probe_solver", "phased");

  if (!run.trace) {
    std::size_t next_wide = 0;
    std::size_t next_narrow = 0;
    alternate_widths(
        run,
        [&](double budget) {
          solve_for(run, set, next_wide, budget, "latency_s", false);
        },
        [&](double budget) {
          solve_for(run, set, next_narrow, budget, "latency_1t_s", false);
        });
    return;
  }
  time_par_regions(run, 2000);
  std::size_t next = 0;
  solve_for(run, set, next, 0.4 * run.seconds, "solve_s", true);
  for (const core::FactorizedPackingInstance& instance : set) {
    RoundRunner(run, decision_oracle(instance, probe_eps(kTinyEps)),
                "trace.untraced_round_s", true)
        .run_for(0.4 * run.seconds / static_cast<double>(set.size()));
  }
  serve_probe(run, paths);
}

// ------------------------------------------------------------ shard-rounds --

// shard-rounds: an instance big enough that the per-round kernels do the
// work. A full solve takes minutes, so the workload times rounds. Its
// structure is fixed and only the random entries follow --seed, so a round
// does the same work for every seed. The sketch is fixed at 128 rows: at
// the oracle's default (r = m = 2048, the exact identity) one round takes
// seconds, too few per run to be steady.
constexpr Index kShardM = 2048;
constexpr Index kShardN = 64;
constexpr Index kShardRank = 4;
constexpr Index kShardNnzPerColumn = 64;
constexpr Index kShardCount = 4;
constexpr Index kShardSketchRows = 128;
constexpr Real kShardEps = 0.1;

void shard_rounds(Run& run) {
  std::vector<core::FactorizedPackingInstance> loaded;
  measure_setup(run, run.trace ? 1 : kSetupReps, [&] {
    sparse::clear_transpose_plan_cache();
    apps::FactorizedOptions shape;
    shape.m = kShardM;
    shape.n = kShardN;
    shape.rank = kShardRank;
    shape.nnz_per_column = kShardNnzPerColumn;
    shape.seed = psdp::rand::stream_seed(run.seed, 200);
    const std::string path = str(run.work_dir, "/shard.chk");
    io::save_factorized_chunked(path, apps::random_factorized(shape),
                                kShardCount);
    loaded = load_chunked(run, {path});
    set_width(1);  // warm-up round: first-touch costs stay out of the timing
    RoundRunner(run,
                decision_oracle(loaded.front(), kShardEps, kShardSketchRows),
                "warmup_round_s", false)
        .run_for(0);
    set_width(run.width);
  });
  const core::FactorizedPackingInstance& instance = loaded.front();
  const OracleSetup setup =
      decision_oracle(instance, kShardEps, kShardSketchRows);
  record_shape(run, instance, setup);

  if (!run.trace) {
    RoundRunner wide(run, setup, "latency_s", false);
    RoundRunner narrow(run, setup, "latency_1t_s", false);
    alternate_widths(
        run, [&](double budget) { wide.run_for(budget); },
        [&](double budget) { narrow.run_for(budget); });
    return;
  }
  time_par_regions(run, 2000);
  RoundRunner traced(run, setup, "trace.untraced_round_s", true);
  traced.run_for(0.8 * run.seconds);
  run.samples["par.cost_work"] = run.samples["round_cost_work"];
  run.samples["par.cost_depth"] = run.samples["round_cost_depth"];
  run.sample("core.probes", 0);  // rounds of one decision run, no search
  run.sample("core.rounds", static_cast<double>(traced.rounds()));
  serve_probe(run, write_tiny_instances(run));
}

// --------------------------------------------------------------- serve-mix --

// serve-mix: bench_load's five job classes at reduced sizes, with its
// per-class options (phased probes, 16-row sketches), as an open-loop
// Poisson stream at a fixed rate through one connection to a solverd.
struct ServeClass {
  const char* name;
  double weight;       ///< share of arrivals
  serve::JobKind kind;
  Index m;             ///< dimension (antennas for covering)
  Index n;             ///< constraints (users for covering)
  Real eps;
  int templates;
  double deadline_ms;  ///< 0 = no deadline
};

constexpr ServeClass kServeClasses[] = {
    {"tiny", 0.60, serve::JobKind::kPackingFactorized, 128, 8, 0.5, 3, 600},
    {"medium", 0.15, serve::JobKind::kPackingFactorized, 256, 10, 0.45, 2, 2000},
    {"elephant", 0.05, serve::JobKind::kPackingFactorized, 512, 12, 0.4, 1, 0},
    {"dense", 0.10, serve::JobKind::kPackingDense, 8, 12, 0.6, 2, 0},
    {"covering", 0.10, serve::JobKind::kCovering, 6, 12, 0.5, 2, 0},
};
/// Offered load, jobs per second: the same on every machine and commit, so
/// a faster solver shows up as lower latency, not as more traffic.
constexpr double kServeRate = 8;
/// Share of --seconds the arrivals span; the rest goes to one-thread passes.
constexpr double kStreamShare = 0.5;
/// The stream comes in one segment per this many seconds of --seconds, each
/// followed by a one-thread pass over the mix (3-5 s). One solve of a small
/// job varies up to 2x between back-to-back repeats on a shared machine, so
/// the one-thread figure is a mean over whole passes: the median of 20
/// single solves moved 20-25% between runs.
constexpr double kSecondsPerSegment = 10;
constexpr Index kServeSketchRows = 16;
constexpr Real kServeDecisionEps = 0.25;

struct ServeTemplate {
  std::string key;
  std::string line;
  std::string path;
  Real eps = 0;
  std::size_t cls = 0;
};

/// Generate every template and write its instance file (factorized ones as
/// one-shard chunked files).
std::vector<ServeTemplate> write_serve_templates(const Run& run) {
  std::vector<ServeTemplate> templates;
  for (std::size_t c = 0; c < std::size(kServeClasses); ++c) {
    const ServeClass& cls = kServeClasses[c];
    for (int i = 0; i < cls.templates; ++i) {
      ServeTemplate t;
      t.key = str(cls.name, i);
      t.eps = cls.eps;
      t.cls = c;
      const std::uint64_t seed = psdp::rand::stream_seed(
          kSetSeed, 300 + 16 * c + static_cast<std::uint64_t>(i));
      if (cls.kind == serve::JobKind::kPackingFactorized) {
        apps::FactorizedOptions shape;
        shape.m = cls.m;
        shape.n = cls.n;
        shape.rank = 2;
        shape.nnz_per_column = 6;
        shape.seed = seed;
        t.path = str(run.work_dir, "/", t.key, ".chk");
        io::save_factorized_chunked(t.path, apps::random_factorized(shape), 1);
      } else if (cls.kind == serve::JobKind::kPackingDense) {
        apps::EllipseOptions shape;
        shape.m = cls.m;
        shape.n = cls.n;
        shape.rank = 3;
        shape.seed = seed;
        t.path = str(run.work_dir, "/", t.key, ".psdp");
        io::save_packing(t.path, apps::random_ellipses(shape));
      } else {
        apps::BeamformingOptions shape;
        shape.antennas = cls.m;
        shape.users = cls.n;
        shape.seed = seed;
        t.path = str(run.work_dir, "/", t.key, ".psdp");
        io::save_covering(t.path, apps::beamforming_problem(shape));
      }
      t.line = str(serve::job_kind_name(cls.kind), " ", t.path, " eps=",
                   cls.eps, " decision-eps=", kServeDecisionEps,
                   " probe=phased sketch-rows=", kServeSketchRows,
                   " id=", t.key);
      if (cls.deadline_ms > 0) t.line += str(" deadline-ms=", cls.deadline_ms);
      templates.push_back(std::move(t));
    }
  }
  return templates;
}

/// An arrival stream: exact class proportions in seeded order, templates
/// round-robin within a class, exponential gaps at kServeRate.
std::vector<StreamJob> serve_arrivals(std::uint64_t seed,
                                      const std::vector<ServeTemplate>& templates,
                                      std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> deck;
  for (std::size_t c = std::size(kServeClasses); c-- > 0;) {
    const std::size_t share = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(kServeClasses[c].weight * static_cast<double>(count))));
    for (std::size_t k = 0; k < share && deck.size() < count; ++k) {
      deck.push_back(c);
    }
  }
  while (deck.size() < count) deck.push_back(0);
  std::shuffle(deck.begin(), deck.end(), rng);
  std::exponential_distribution<double> gap(kServeRate);
  std::vector<std::size_t> next(std::size(kServeClasses), 0);
  std::vector<StreamJob> jobs;
  double clock = 0;
  for (const std::size_t c : deck) {
    std::vector<const ServeTemplate*> of_class;
    for (const ServeTemplate& t : templates) {
      if (t.cls == c) of_class.push_back(&t);
    }
    const ServeTemplate& t = *of_class[next[c]++ % of_class.size()];
    clock += gap(rng);
    jobs.push_back({t.line, t.key, t.eps, clock});
  }
  return jobs;
}

/// Daemon lanes: one per CPU but one, which the arrival generator and the
/// client's reader thread keep, so arrivals go out on time.
int serve_lanes(const Run& run) { return std::max(1, run.nproc - 1); }

struct ServeSetup {
  std::vector<ServeTemplate> templates;
  std::vector<core::FactorizedPackingInstance> factorized;
  std::unique_ptr<DaemonSession> session;
};

/// One cold serve-mix set-up, timed into samples["setup_s"]: generate and
/// write the templates, load the factorized ones, start the daemon and warm
/// its artifact cache.
ServeSetup set_up_serve(Run& run) {
  ServeSetup out;
  const Clock::time_point start = Clock::now();
  sparse::clear_transpose_plan_cache();
  set_width(run.width);
  out.templates = write_serve_templates(run);
  std::vector<std::string> chunked;
  for (const ServeTemplate& t : out.templates) {
    if (kServeClasses[t.cls].kind == serve::JobKind::kPackingFactorized) {
      chunked.push_back(t.path);
    }
  }
  out.factorized = load_chunked(run, chunked);
  out.session = std::make_unique<DaemonSession>(serve_lanes(run));
  serve::ArtifactCache& cache = out.session->daemon().scheduler().cache();
  for (const ServeTemplate& t : out.templates) {
    serve::JobSpec spec;
    serve::parse_manifest_line(t.line, "perfbench", 1, &spec);
    cache.get(spec.instance, spec.builder);
  }
  run.sample("setup_s", seconds_since(start));
  return out;
}

void serve_mix(Run& run) {
  // A set-up takes milliseconds, mostly file writes and thread starts, so a
  // slow spell of a shared machine can cover all of a run's set-ups at
  // once. Untraced, half of them run before the stream and half after it.
  const int setup_reps = run.trace ? 1 : kSetupReps;
  ServeSetup setup;
  for (int rep = 0; rep < (setup_reps + 1) / 2; ++rep) {
    setup.session.reset();  // drain the previous repetition's daemon, untimed
    setup = set_up_serve(run);
  }
  const std::vector<ServeTemplate>& templates = setup.templates;
  const std::vector<core::FactorizedPackingInstance>& factorized =
      setup.factorized;
  std::unique_ptr<DaemonSession>& session = setup.session;

  // Outside the timed window: one daemon job per template must equal an
  // in-process solve at the same pool width.
  for (const ServeTemplate& t : templates) session->submit(t.line);
  session->wait_for(templates.size());
  std::map<std::string, serve::JobResult> references;
  std::map<std::string, par::CostMeter::Cost> costs;
  InProcessSolver in_process;
  for (const ServeTemplate& t : templates) {
    // Traced: warm the cache first, so instance preparation stays out of
    // the metered work.
    if (run.trace) in_process.solve(t.line);
    par::CostMeter::reset();
    references[t.key] = in_process.solve(t.line);
    costs[t.key] = par::CostMeter::snapshot();
  }
  for (const DaemonSession::Received& got : session->received()) {
    const serve::JobResult& ref = references[got.wire.result.instance];
    run.check(got.wire.result.ok && !got.backpressure &&
                  serve::payload_bitwise_equal(got.wire.result, ref),
              str("warm-up job ", got.wire.result.instance,
                  " differs from its in-process solve"));
  }

  const OracleSetup largest = decision_oracle(
      factorized.back(), kServeDecisionEps, kServeSketchRows);
  record_shape(run, factorized.back(), largest);
  run.provenance.num("rate_per_s", kServeRate).integer("lanes", serve_lanes(run));

  // The stream runs in segments. Untraced, one one-thread pass follows each:
  // the mix one job at a time in-process at one thread (warm cache), service
  // time with no queue, no wire and no fork-join. The mix is one fixed
  // 20-job sequence with the stream's class proportions, so every pass
  // times the same work; "latency_1t_s" takes one sample per pass, its
  // mean job time.
  const std::size_t count = static_cast<std::size_t>(std::max(
      100.0, std::round(kServeRate * kStreamShare * run.seconds)));
  const std::vector<StreamJob> jobs = serve_arrivals(run.seed, templates, count);
  const std::vector<StreamJob> mix = serve_arrivals(kSetSeed, templates, 20);
  const std::size_t segments = static_cast<std::size_t>(
      std::max(2.0, std::round(run.seconds / kSecondsPerSegment)));
  run.provenance.integer("arrivals", static_cast<long long>(jobs.size()))
      .integer("segments", static_cast<long long>(segments));
  for (std::size_t s = 0; s < segments; ++s) {
    const std::size_t first = s * jobs.size() / segments;
    const std::size_t last = (s + 1) * jobs.size() / segments;
    std::vector<StreamJob> segment(jobs.begin() + static_cast<std::ptrdiff_t>(first),
                                   jobs.begin() + static_cast<std::ptrdiff_t>(last));
    const double offset = first > 0 ? jobs[first - 1].due : 0;
    for (StreamJob& job : segment) job.due -= offset;
    stream_jobs(run, *session, segment, references);
    if (run.trace) continue;
    set_width(1);
    double pass_s = 0;
    for (const StreamJob& job : mix) {
      const Clock::time_point solve_start = Clock::now();
      const serve::JobResult result = in_process.solve(job.line);
      const double solve_s = seconds_since(solve_start);
      run.sample("job_1t_s", solve_s);
      pass_s += solve_s;
      run.check(result.ok, str("one-thread job ", job.tmpl, " failed: ",
                               result.error));
    }
    run.sample("latency_1t_s", pass_s / static_cast<double>(mix.size()));
    set_width(run.width);
  }
  session.reset();
  if (!run.trace) {
    run.samples["latency_s"] = run.samples["job_latency_s"];
    for (int rep = (setup_reps + 1) / 2; rep < setup_reps; ++rep) {
      set_up_serve(run);
    }
    return;
  }
  // Per-job work/depth and probe/round counts, weighted like the stream.
  for (const StreamJob& job : jobs) {
    const serve::JobResult& ref = references[job.tmpl];
    const core::PackingOptimum& best =
        ref.kind == serve::JobKind::kCovering ? ref.covering.packing : ref.packing;
    run.sample("par.cost_work", static_cast<double>(costs[job.tmpl].work));
    run.sample("par.cost_depth", static_cast<double>(costs[job.tmpl].depth));
    run.sample("core.probes", static_cast<double>(best.decision_calls));
    run.sample("core.rounds", static_cast<double>(best.total_iterations));
  }
  time_par_regions(run, 2000);
  for (const core::FactorizedPackingInstance& instance : factorized) {
    RoundRunner(run,
                decision_oracle(instance, kServeDecisionEps, kServeSketchRows),
                "trace.untraced_round_s", true)
        .run_for(0.2 * run.seconds / static_cast<double>(factorized.size()));
  }
}

// -------------------------------------------------------------------- main --

double parse_number(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const double value = std::stod(text, &used);
  if (used != text.size() || !std::isfinite(value)) {
    throw std::invalid_argument(str(flag, ": not a number: '", text, "'"));
  }
  return value;
}

Run parse_args(int argc, char** argv) {
  Run run;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(str(flag, " needs a value"));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      run.workload = value;
    } else if (flag == "--seed") {
      run.seed = static_cast<std::uint64_t>(parse_number(flag, value));
    } else if (flag == "--seconds") {
      run.seconds = parse_number(flag, value);
    } else if (flag == "--trace") {
      run.trace = parse_number(flag, value) != 0;
    } else if (flag == "--work-dir") {
      run.work_dir = value;
    } else {
      throw std::invalid_argument(str("unknown flag ", flag));
    }
  }
  if (run.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  if (!(run.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return run;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    Run run = parse_args(argc, argv);
    run.nproc = cpus_available();
    // A fork-join region waits for its slowest thread. At every CPU of a
    // shared virtual machine that is whichever vCPU the host has just
    // descheduled: a 4-thread tiny solve on 4 vCPUs took 1.2 s to 4.1 s
    // from run to run, at 2 threads 0.30-0.35 s. So the pool spans half the
    // CPUs. serve-mix lanes run their narrow jobs inline, with no fork-join,
    // and have a count of their own (serve_lanes).
    run.width = std::max(1, run.nproc / 2);
    std::filesystem::create_directories(run.work_dir);
    if (run.workload == "tiny-solve") {
      tiny_solve(run);
    } else if (run.workload == "shard-rounds") {
      shard_rounds(run);
    } else if (run.workload == "serve-mix") {
      serve_mix(run);
    } else {
      throw std::invalid_argument(str("unknown workload '", run.workload, "'"));
    }
    std::filesystem::remove_all(run.work_dir);
    run.sample("peak_rss_mb", run.peak_rss_mb());
    run.provenance.text("isa", psdp::simd::isa_name(psdp::simd::active_isa()))
        .integer("nproc", run.nproc)
        .integer("pool_width", run.width);
    Json samples;
    for (const auto& [name, values] : run.samples) samples.nums(name, values);
    Json out;
    out.text("workload", run.workload)
        .integer("seed", static_cast<long long>(run.seed))
        .flag("trace", run.trace)
        .num("seconds", run.seconds)
        .object("provenance", run.provenance)
        .object("samples", samples)
        .integer("attempted", run.attempted)
        .texts("failures", run.failures);
    std::cout << out.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
