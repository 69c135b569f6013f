// Serve-layer latency bench: an open-loop Poisson arrival stream over a
// heavy-tailed instance mix, replayed twice through the batch scheduler --
//
//   baseline   the PR-5 static regime: FIFO queue, no preemption, no
//              widening (a lane that picks up an elephant keeps it, and
//              every tiny job behind it waits);
//   aware      the latency-aware regime: EDF queue ordered by deadline,
//              oracle-round preemption (an urgent arrival borrows a busy
//              lane between rounds), and dynamic widening (the last jobs
//              of a burst take the whole pool).
//
// The mix is 60% tiny / 15% medium / 5% elephant factorized-packing jobs
// plus 10% dense-packing and 10% covering jobs (so the SPSA profile pass
// below records tuned entries for every serve job kind, not only
// factorized); tiny and medium jobs carry relative deadlines calibrated
// from per-class solo runs, the rest are batch work with no deadline. The
// arrival rate is self-calibrated to a target
// utilization from the same solo runs, so the bench exercises comparable
// queueing pressure on any machine.
//
// Reported per run and per class: p50/p99 queue, run and total latency,
// jobs/s over the makespan, deadline-hit rate, and the scheduler's
// preemption/promotion/demotion counters. Every completed job is compared
// bitwise against its solo reference -- preempted, parked and promoted
// solves must not change a single bit (the serve/scheduler.hpp contract).
//
// Results are spliced into BENCH_serve.json as a "latency" section
// (replacing any previous one; the rest of the file is preserved).
//
// Gates (exit 1 on failure):
//   * always: zero identity mismatches across both runs;
//   * --smoke: aware tiny-class p99 total latency < solo tiny time x lanes
//     (i.e. an interactive job never waits out a whole static shard);
//   * --assert-improvement=X: baseline/aware tiny p99 >= X at >= 95% of
//     baseline throughput (the ISSUE acceptance bar is 2).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/beamforming.hpp"
#include "apps/generators.hpp"
#include "bench_common.hpp"
#include "io/instance_io.hpp"
#include "par/parallel.hpp"
#include "serve/scheduler.hpp"
#include "serve/solverd.hpp"
#include "util/cli.hpp"
#include "util/spsa.hpp"
#include "util/timer.hpp"

namespace {

using namespace psdp;

/// One reusable job configuration: a cache key, a deterministic builder,
/// and solver options. Arrivals instantiate these round-robin per class.
/// `kind` selects which generator member is live (the others stay at their
/// defaults, unused).
struct JobTemplate {
  std::string instance;
  std::string label;
  serve::JobKind kind = serve::JobKind::kPackingFactorized;
  apps::FactorizedOptions generator;        ///< kPackingFactorized
  apps::EllipseOptions dense_generator;     ///< kPackingDense
  apps::BeamformingOptions covering_generator;  ///< kCovering
  core::OptimizeOptions options;
};

struct JobClass {
  std::string name;
  double weight = 0;            ///< mix fraction
  bool deadline = false;        ///< latency-sensitive class
  std::vector<JobTemplate> templates;
  // Filled by the solo pass:
  double solo_seconds = 0;      ///< mean solo run time over templates
  double deadline_ms = 0;       ///< calibrated relative deadline
};

core::OptimizeOptions load_options(Real eps) {
  core::OptimizeOptions options;
  options.eps = eps;
  options.decision_eps = 0.25;
  options.probe_solver = core::ProbeSolver::kPhased;
  // Modest fixed sketch, as a serving deployment would run its probes
  // (certificates stay measured and valid; only probe progress varies).
  options.decision.dot_options.sketch_rows_override = 16;
  return options;
}

/// The heavy-tailed mix. Elephants are ~2 orders of magnitude more work
/// than tiny jobs, so a FIFO lane that picks one up blocks its queue for
/// many tiny-job service times -- exactly the p99 regime the aware
/// scheduler is built for.
std::vector<JobClass> make_classes(bool smoke) {
  const auto fill = [](JobClass& cls, Index m, Index n, Real eps, int count,
                       std::uint64_t seed0) {
    for (int i = 0; i < count; ++i) {
      JobTemplate t;
      t.instance = str(cls.name, i);
      t.label = t.instance;
      t.generator.m = m;
      t.generator.n = n;
      t.generator.rank = 2;
      t.generator.nnz_per_column = 6;
      t.generator.seed = seed0 + static_cast<std::uint64_t>(i);
      t.options = load_options(eps);
      cls.templates.push_back(std::move(t));
    }
  };
  std::vector<JobClass> classes(5);
  classes[0].name = "tiny";
  classes[0].weight = 0.60;
  classes[0].deadline = true;
  fill(classes[0], smoke ? 128 : 256, 8, 0.5, 3, 100);
  classes[1].name = "medium";
  classes[1].weight = 0.15;
  classes[1].deadline = true;
  fill(classes[1], smoke ? 256 : 1024, 10, 0.45, 2, 200);
  classes[2].name = "elephant";
  classes[2].weight = 0.05;
  classes[2].deadline = false;
  fill(classes[2], smoke ? 512 : 4096, 12, 0.4, 1, 300);
  // Dense-packing and covering classes: small interactive-sized jobs whose
  // sole structural purpose is exercising the non-factorized solve paths in
  // the same stream -- and feeding their shape buckets into --profile-out.
  classes[3].name = "dense";
  classes[3].weight = 0.10;
  classes[3].deadline = false;
  for (int i = 0; i < 2; ++i) {
    JobTemplate t;
    t.instance = str("dense", i);
    t.label = t.instance;
    t.kind = serve::JobKind::kPackingDense;
    // The dense oracle pays an O(m^3) eigensolve every round: keep the
    // dimension small so this class stays interactive-sized (comparable to
    // tiny/medium), not a second elephant.
    t.dense_generator.m = smoke ? 8 : 12;
    t.dense_generator.n = smoke ? 12 : 24;
    t.dense_generator.rank = 3;
    t.dense_generator.seed = 400 + static_cast<std::uint64_t>(i);
    t.options = load_options(0.6);
    classes[3].templates.push_back(std::move(t));
  }
  classes[4].name = "covering";
  classes[4].weight = 0.10;
  classes[4].deadline = false;
  for (int i = 0; i < 2; ++i) {
    JobTemplate t;
    t.instance = str("covering", i);
    t.label = t.instance;
    t.kind = serve::JobKind::kCovering;
    t.covering_generator.users = smoke ? 12 : 24;
    t.covering_generator.antennas = smoke ? 6 : 10;
    t.covering_generator.seed = 500 + static_cast<std::uint64_t>(i);
    t.options = load_options(0.5);
    classes[4].templates.push_back(std::move(t));
  }
  return classes;
}

/// Build one template's prepared instance, the single source of truth for
/// both the submit-time builder and the profile shape-bucket key.
serve::PreparedInstance build_template_instance(const JobTemplate& t) {
  switch (t.kind) {
    case serve::JobKind::kPackingDense:
      return serve::prepare_packing(apps::random_ellipses(t.dense_generator));
    case serve::JobKind::kCovering:
      return serve::prepare_covering(
          apps::beamforming_problem(t.covering_generator));
    default:
      return serve::prepare_factorized(apps::random_factorized(t.generator));
  }
}

serve::JobSpec make_spec(const JobTemplate& t,
                         std::optional<double> deadline_ms) {
  serve::JobSpec spec;
  spec.instance = t.instance;
  spec.label = t.label;
  spec.kind = t.kind;
  spec.options = t.options;
  // Re-derive the registry-backed solver knobs at submit time: the
  // template's options were constructed before any profile load or SPSA
  // perturbation, and under untouched defaults this re-read is the same
  // bits, so the identity gates are unaffected.
  spec.options.dot_block_size = util::tunable_dot_block_size();
  spec.options.decision.dot_options.block_size = util::tunable_block_size();
  spec.deadline_ms = deadline_ms;
  spec.builder = [t] { return build_template_instance(t); };
  return spec;
}

/// One pre-sampled arrival of the open-loop stream.
struct Arrival {
  double at_seconds = 0;   ///< offset from stream start
  int cls = 0;             ///< index into classes
  int tmpl = 0;            ///< index into classes[cls].templates
};

struct Percentiles {
  double p50 = 0;
  double p99 = 0;
};

Percentiles percentiles(std::vector<double> v) {
  Percentiles p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const std::size_t i = static_cast<std::size_t>(
        std::min<double>(std::ceil(q * static_cast<double>(v.size())) - 1,
                         static_cast<double>(v.size() - 1)));
    return v[std::max<std::size_t>(i, 0)];
  };
  p.p50 = at(0.50);
  p.p99 = at(0.99);
  return p;
}

struct ClassLatency {
  std::size_t jobs = 0;
  Percentiles queue, run, total;
};

struct RunReport {
  std::vector<serve::JobResult> results;
  double makespan_seconds = 0;
  double jobs_per_second = 0;
  double deadline_hit_rate = 1;
  serve::SchedulerStats stats;
  std::vector<ClassLatency> classes;
};

/// Replay the arrival stream through one scheduler configuration with real
/// wall-clock sleeps (open-loop: late service never slows arrivals down).
RunReport replay(const std::vector<JobClass>& classes,
                 const std::vector<Arrival>& arrivals,
                 const serve::SchedulerOptions& options, int lanes) {
  serve::BatchScheduler scheduler(options);
  scheduler.open(lanes);
  util::WallTimer timer;
  const auto start = std::chrono::steady_clock::now();
  for (const Arrival& a : arrivals) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(a.at_seconds)));
    const JobClass& cls = classes[static_cast<std::size_t>(a.cls)];
    scheduler.submit(make_spec(
        cls.templates[static_cast<std::size_t>(a.tmpl)],
        cls.deadline ? std::optional<double>(cls.deadline_ms)
                     : std::nullopt));
  }
  RunReport report;
  report.results = scheduler.close();
  report.makespan_seconds = timer.seconds();
  report.jobs_per_second =
      report.makespan_seconds > 0
          ? static_cast<double>(report.results.size()) / report.makespan_seconds
          : 0;
  report.stats = scheduler.stats();

  std::size_t with_deadline = 0, met = 0;
  report.classes.resize(classes.size());
  std::vector<std::vector<double>> queue(classes.size()), run(classes.size()),
      total(classes.size());
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const serve::JobResult& r = report.results[i];
    const std::size_t c = static_cast<std::size_t>(arrivals[i].cls);
    if (r.shed) continue;  // shed jobs have no run latency
    queue[c].push_back(r.queue_seconds);
    run[c].push_back(r.run_seconds);
    total[c].push_back(r.queue_seconds + r.run_seconds);
    if (r.deadline_ms.has_value()) {
      ++with_deadline;
      met += r.deadline_met ? 1 : 0;
    }
  }
  for (std::size_t c = 0; c < classes.size(); ++c) {
    report.classes[c].jobs = total[c].size();
    report.classes[c].queue = percentiles(queue[c]);
    report.classes[c].run = percentiles(run[c]);
    report.classes[c].total = percentiles(total[c]);
  }
  report.deadline_hit_rate =
      with_deadline > 0
          ? static_cast<double>(met) / static_cast<double>(with_deadline)
          : 1;
  return report;
}

/// BENCH_serve.json splice: the "latency" and "daemon" sections coexist.
void splice_section(const std::string& path, const std::string& name,
                    const std::string& section) {
  bench::splice_json_section(path, "serve", name, section);
}

// ---------------------------------------------------------- endpoint mode --

/// Replay the arrival stream against a solverd daemon instead of the
/// in-process schedulers. "loopback" runs an in-process daemon over the
/// loopback transport (deterministic, no sockets); anything else is dialed
/// as a socket endpoint (unix:/path, tcp:host:port) -- the daemon there
/// must run at this bench's pool width, or the bitwise identity gate
/// rightly fails.
///
/// Each template's instance is persisted to a .psdp file first (io round
/// trips are bit-exact), submit lines reference the files with the exact
/// solver options of the in-process path, and every decoded result payload
/// is gated bitwise against the template's solo reference. Latency is
/// reported per class: queue/run as the daemon measured them, total as the
/// client observed it (result frame arrival minus scheduled arrival).
/// The report lands in BENCH_serve.json as a "daemon" section.
int replay_daemon(const std::string& endpoint,
                  const std::vector<JobClass>& classes,
                  const std::vector<Arrival>& arrivals,
                  const std::vector<std::vector<serve::JobResult>>& solo,
                  int lanes, int width, const std::string& out_path) {
  std::vector<std::vector<std::string>> paths(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (const JobTemplate& t : classes[c].templates) {
      std::string path = str("bench_load_", t.instance, ".psdp");
      switch (t.kind) {
        case serve::JobKind::kPackingDense:
          io::save_packing(path, apps::random_ellipses(t.dense_generator));
          break;
        case serve::JobKind::kCovering:
          io::save_covering(path,
                            apps::beamforming_problem(t.covering_generator));
          break;
        default:
          io::save_factorized(path, apps::random_factorized(t.generator));
          break;
      }
      paths[c].push_back(std::move(path));
    }
  }

  std::optional<serve::LoopbackListener> loopback;
  std::optional<serve::Solverd> daemon;
  std::thread server;
  std::unique_ptr<serve::Connection> connection;
  if (endpoint == "loopback") {
    loopback.emplace();
    serve::SolverdOptions options;
    options.lanes = lanes;
    options.max_connections = 1;  // serve() returns once our session drains
    daemon.emplace(*loopback, options);
    connection = loopback->connect();
    server = std::thread([&] { daemon->serve(); });
  } else {
    connection = serve::socket_connect(endpoint);
  }
  serve::SolverdClient client(std::move(connection));

  struct Observed {
    serve::WireResult wire;
    double at_seconds = 0;  ///< client clock when the result frame landed
    bool backpressure = false;
  };
  // Reader-thread state; the main thread touches it only after join().
  std::vector<Observed> observed;
  std::vector<std::string> wire_errors;
  bool done = false;

  util::WallTimer timer;
  const auto start = std::chrono::steady_clock::now();
  std::thread reader([&] {
    try {
      while (std::optional<serve::Frame> frame = client.read()) {
        const double at =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (frame->type == serve::FrameType::kDone) {
          done = true;
          break;
        }
        if (frame->type == serve::FrameType::kError) {
          wire_errors.push_back(frame->payload);
          continue;
        }
        if (frame->type != serve::FrameType::kResult &&
            frame->type != serve::FrameType::kBackpressure) {
          continue;
        }
        Observed o;
        o.wire = serve::decode_result_line(frame->payload);
        o.at_seconds = at;
        o.backpressure = frame->type == serve::FrameType::kBackpressure;
        observed.push_back(std::move(o));
      }
    } catch (const std::exception& e) {
      wire_errors.push_back(str("client read failed: ", e.what()));
    }
  });

  std::vector<std::string> submit_errors;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(a.at_seconds)));
    const JobClass& cls = classes[static_cast<std::size_t>(a.cls)];
    const JobTemplate& t = cls.templates[static_cast<std::size_t>(a.tmpl)];
    std::ostringstream line;
    line.precision(17);  // doubles must re-parse to the identical bits
    line << serve::job_kind_name(t.kind) << " "
         << paths[static_cast<std::size_t>(a.cls)]
                 [static_cast<std::size_t>(a.tmpl)]
         << " eps=" << t.options.eps
         << " decision-eps=" << t.options.decision_eps
         << " probe=phased sketch-rows="
         << t.options.decision.dot_options.sketch_rows_override
         << " label=" << i << " id=" << t.instance;
    if (cls.deadline) line << " deadline-ms=" << cls.deadline_ms;
    if (!client.submit(line.str())) {
      submit_errors.push_back(str("submit failed at arrival ", i,
                                  ": daemon gone"));
      break;
    }
  }
  client.goodbye();
  reader.join();
  const double makespan = timer.seconds();
  if (daemon.has_value()) server.join();
  for (std::string& e : submit_errors) wire_errors.push_back(std::move(e));
  for (const std::string& e : wire_errors) {
    std::cout << "WIRE ERROR: " << e << "\n";
  }

  // ---- identity + latency ------------------------------------------------
  Index mismatches = 0;
  std::size_t delivered = 0, shed = 0;
  std::vector<std::vector<double>> queue(classes.size()), run(classes.size()),
      total(classes.size());
  for (const Observed& o : observed) {
    PSDP_CHECK(o.wire.id >= 1 && o.wire.id <= arrivals.size(),
               str("daemon echoed unknown job id ", o.wire.id));
    const Arrival& a = arrivals[o.wire.id - 1];
    const serve::JobResult& r = o.wire.result;
    if (r.shed || o.backpressure) {
      ++shed;
      continue;
    }
    ++delivered;
    const std::size_t c = static_cast<std::size_t>(a.cls);
    const serve::JobResult& ref =
        solo[c][static_cast<std::size_t>(a.tmpl)];
    if (!r.ok || !serve::payload_bitwise_equal(r, ref)) {
      ++mismatches;
      std::cout << "IDENTITY MISMATCH: job " << o.wire.id - 1 << " ("
                << r.label << ")"
                << (!r.ok ? str(": ", r.error) : std::string()) << "\n";
    }
    queue[c].push_back(r.queue_seconds);
    run[c].push_back(r.run_seconds);
    total[c].push_back(o.at_seconds - a.at_seconds);
  }
  const std::size_t missing = arrivals.size() - observed.size();

  util::Table table(
      {"class", "p50 queue", "p99 queue", "p99 total(client)", "jobs"});
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const Percentiles q = percentiles(queue[c]);
    const Percentiles t = percentiles(total[c]);
    table.add_row({classes[c].name, util::Table::cell(q.p50),
                   util::Table::cell(q.p99), util::Table::cell(t.p99),
                   util::Table::cell(static_cast<double>(total[c].size()))});
  }
  table.print();
  std::cout << "daemon replay: " << delivered << " results, " << shed
            << " backpressure, " << missing << " missing, "
            << wire_errors.size() << " wire errors over " << makespan
            << " s\n";

  // ---- JSON --------------------------------------------------------------
  {
    std::ostringstream section;
    section.precision(17);
    section << "{\n    \"endpoint\": \"" << endpoint
            << "\", \"threads\": " << width << ", \"lanes\": " << lanes
            << ", \"jobs\": " << arrivals.size() << ",\n    \"results\": "
            << delivered << ", \"backpressure\": " << shed
            << ", \"missing\": " << missing
            << ", \"wire_errors\": " << wire_errors.size()
            << ", \"identity_mismatches\": " << mismatches
            << ", \"clean_done\": " << (done ? "true" : "false")
            << ",\n    \"makespan_seconds\": " << makespan
            << ", \"jobs_per_second\": "
            << (makespan > 0 ? static_cast<double>(delivered) / makespan : 0)
            << ",\n    \"classes\": {";
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const Percentiles q = percentiles(queue[c]);
      const Percentiles r = percentiles(run[c]);
      const Percentiles t = percentiles(total[c]);
      section << (c > 0 ? ", " : "") << "\"" << classes[c].name
              << "\": {\"jobs\": " << total[c].size()
              << ", \"p50_queue\": " << q.p50 << ", \"p99_queue\": " << q.p99
              << ", \"p50_run\": " << r.p50 << ", \"p99_run\": " << r.p99
              << ", \"p50_total\": " << t.p50 << ", \"p99_total\": " << t.p99
              << "}";
    }
    section << "}\n  }";
    splice_section(out_path, "daemon", section.str());
  }
  std::cout << "spliced daemon section into " << out_path << "\n";

  // ---- verdicts ----------------------------------------------------------
  bool ok = true;
  bench::print_verdict(mismatches == 0,
                       mismatches == 0
                           ? std::string("daemon payloads bitwise identical "
                                         "to in-process solo runs")
                           : str(mismatches, " daemon job(s) diverged"));
  ok = ok && mismatches == 0;
  const bool drained = done && missing == 0;
  bench::print_verdict(
      drained, done ? str(missing, " of ", arrivals.size(),
                          " results missing at clean drain")
                    : std::string("stream ended without a done frame"));
  ok = ok && drained;
  return ok ? 0 : 1;
}

std::string class_json(const RunReport& report,
                       const std::vector<JobClass>& classes) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const ClassLatency& l = report.classes[c];
    out << (c > 0 ? ", " : "") << "\"" << classes[c].name
        << "\": {\"jobs\": " << l.jobs << ", \"p50_queue\": " << l.queue.p50
        << ", \"p99_queue\": " << l.queue.p99
        << ", \"p50_run\": " << l.run.p50 << ", \"p99_run\": " << l.run.p99
        << ", \"p50_total\": " << l.total.p50
        << ", \"p99_total\": " << l.total.p99 << "}";
  }
  out << "}";
  return out.str();
}

std::string run_json(const RunReport& report,
                     const std::vector<JobClass>& classes) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"makespan_seconds\": " << report.makespan_seconds
      << ", \"jobs_per_second\": " << report.jobs_per_second
      << ", \"deadline_hit_rate\": " << report.deadline_hit_rate
      << ", \"preemptions\": " << report.stats.preemptions
      << ", \"promotions\": " << report.stats.promotions
      << ", \"demotions\": " << report.stats.demotions
      << ", \"shed\": " << report.stats.shed
      << ", \"peak_queue\": " << report.stats.peak_queue
      << ", \"classes\": " << class_json(report, classes) << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_load",
                "Poisson load latency: EDF + preemption vs static FIFO lanes");
  auto& smoke = cli.flag<bool>("smoke", false, "tiny instances for CI");
  auto& threads = cli.flag<int>("threads", 8, "pool width (0 = keep default)");
  auto& lanes_flag = cli.flag<int>("lanes", 0, "lanes (0 = pool width)");
  auto& jobs_flag = cli.flag<int>("jobs", 0, "arrivals (0 = auto by mode)");
  auto& utilization = cli.flag<Real>(
      "utilization", 0.75, "target offered load as a fraction of capacity");
  auto& seed = cli.flag<int>("seed", 42, "arrival-stream RNG seed");
  auto& out_path = cli.flag<std::string>(
      "out", "BENCH_serve.json", "JSON file to splice the latency section into");
  auto& endpoint = cli.flag<std::string>(
      "endpoint", "",
      "replay against a solverd daemon instead of the in-process schedulers: "
      "'loopback' (in-process daemon over the loopback transport) or a "
      "socket endpoint (unix:/path | tcp:host:port). A socket daemon must "
      "run at this bench's --threads width or the identity gate fails. "
      "Splices a 'daemon' section instead of 'latency'");
  auto& assert_improvement = cli.flag<Real>(
      "assert-improvement", 0,
      "fail unless baseline/aware tiny p99 >= this at >= 95% of baseline "
      "throughput (0 = report only)");
  auto& spsa_iters = cli.flag<int>(
      "spsa-iters", 0, "SPSA tuning iterations after the main runs (0 = off)");
  auto& spsa_jobs = cli.flag<int>(
      "spsa-jobs", 12, "arrivals replayed per SPSA objective evaluation");
  auto& spsa_seed =
      cli.flag<int>("spsa-seed", 7, "SPSA Rademacher-direction seed");
  auto& profile_in = cli.flag<std::string>(
      "profile-in", "",
      "tuned-profile JSON applied at startup (shape-bucket matched)");
  auto& profile_out = cli.flag<std::string>(
      "profile-out", "",
      "persist the SPSA-tuned per-shape-bucket profile to this JSON file");
  util::add_tunable_flags(cli);
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) return 0;

  if (threads.value > 0) par::set_num_threads(threads.value);
  const int width = par::num_threads();
  const int lanes = lanes_flag.value > 0 ? lanes_flag.value : width;
  const int n_jobs = jobs_flag.value > 0 ? jobs_flag.value
                                         : (smoke.value ? 32 : 100);

  bench::print_header(
      "LOAD: open-loop Poisson arrivals over a heavy-tailed job mix",
      str("Static FIFO lanes (the PR-5 regime) vs EDF + oracle-round "
          "preemption + dynamic widening, ", lanes, " lanes over ", width,
          " threads, target utilization ", utilization.value, "."));

  std::vector<JobClass> classes = make_classes(smoke.value);

  // The profile key of one class: the shape bucket of its (deterministic)
  // generated instance, exactly as the ArtifactCache computes it at resolve
  // time -- so a later solver_cli/manifest run on the same shapes matches
  // the persisted entry, whatever the job kind.
  const auto class_bucket = [](const JobClass& cls) {
    return build_template_instance(cls.templates.front())
        .shape_bucket();
  };

  // ---- tuned profile, applied before anything solves ---------------------
  // Startup-order contract (mirrors solver_cli): the profile lands before
  // the solo calibration, so solo references, both replays and the identity
  // gates all run under one consistent knob set.
  if (!profile_in.value.empty()) {
    const util::TunableProfileStore profiles =
        util::TunableProfileStore::load(profile_in.value);
    bool applied = false;
    for (const JobClass& cls : classes) {
      const util::ShapeBucket bucket = class_bucket(cls);
      if (profiles.apply(bucket, util::tunables())) {
        std::cout << "applied tuned profile for " << cls.name
                  << " shape bucket (2^" << bucket.log2_nnz << " nnz, 2^"
                  << bucket.log2_rows << " rows, 2^" << bucket.log2_cols
                  << " cols)\n";
        applied = true;
      }
    }
    if (!applied) {
      std::cout << "no tuned profile matched this workload's shape buckets\n";
    }
  }

  // ---- solo references: per-template ground truth + calibration ----------
  // Each template runs alone as a narrow lane job (regions inline) on a
  // fresh scheduler; the payload is the identity reference for every
  // instantiation of that template (narrow, wide and promoted runs are all
  // bitwise identical), and the warm run time is the *inline* service time
  // a lane actually pays -- the honest unit for rate and deadline
  // calibration.
  std::vector<std::vector<serve::JobResult>> solo(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    double sum = 0;
    for (const JobTemplate& t : classes[c].templates) {
      serve::SchedulerOptions options;
      options.widening = false;  // measure the un-promoted inline regime
      serve::BatchScheduler scheduler(options);
      serve::SolveBatch cold;
      cold.add(make_spec(t, std::nullopt));
      scheduler.run(cold);  // pays the one-time instance build
      serve::SolveBatch warm;
      warm.add(make_spec(t, std::nullopt));
      std::vector<serve::JobResult> result = scheduler.run(warm);
      PSDP_CHECK(result.front().ok, str("solo run failed for ", t.label, ": ",
                                        result.front().error));
      sum += result.front().run_seconds;
      solo[c].push_back(std::move(result.front()));
    }
    classes[c].solo_seconds =
        sum / static_cast<double>(classes[c].templates.size());
    // Deadline: a small multiple of the class's own service time plus a
    // queueing allowance; hittable under EDF+preemption, routinely blown
    // when the job sits behind an elephant on a FIFO lane.
    classes[c].deadline_ms = 1e3 * (4 * classes[c].solo_seconds) + 25;
    std::cout << "solo " << classes[c].name << ": "
              << classes[c].solo_seconds << " s/job, deadline "
              << (classes[c].deadline ? str(classes[c].deadline_ms, " ms")
                                      : std::string("none"))
              << "\n";
  }

  // ---- arrival stream (shared verbatim by both runs) ---------------------
  // Capacity is bounded by physical cores, not by lane count: lanes beyond
  // the core count time-slice rather than add service rate.
  const int effective_lanes = std::min(
      lanes, std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  double mean_work = 0;
  for (const JobClass& c : classes) mean_work += c.weight * c.solo_seconds;
  const double rate =
      utilization.value * static_cast<double>(effective_lanes) / mean_work;
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed.value));
  std::exponential_distribution<double> interarrival(rate);
  // Exact-proportion deck rather than iid draws: a short smoke stream must
  // still contain its elephants, or there is no tail to measure.
  std::vector<int> deck;
  for (std::size_t r = classes.size(); r-- > 0;) {  // rarest classes first
    const int count = std::max<int>(
        1, static_cast<int>(std::lround(classes[r].weight * n_jobs)));
    for (int i = 0; i < count && static_cast<int>(deck.size()) < n_jobs; ++i) {
      deck.push_back(static_cast<int>(r));
    }
  }
  while (static_cast<int>(deck.size()) < n_jobs) deck.push_back(0);
  std::shuffle(deck.begin(), deck.end(), rng);
  std::vector<Arrival> arrivals(static_cast<std::size_t>(n_jobs));
  std::vector<int> round_robin(classes.size(), 0);
  double clock = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Arrival& a = arrivals[i];
    clock += interarrival(rng);
    a.at_seconds = clock;
    a.cls = deck[i];
    auto& next = round_robin[static_cast<std::size_t>(a.cls)];
    a.tmpl = next;
    next = (next + 1) %
           static_cast<int>(classes[static_cast<std::size_t>(a.cls)]
                                .templates.size());
  }
  std::cout << n_jobs << " arrivals at " << rate << " jobs/s over ~"
            << clock << " s\n\n";

  // ---- daemon endpoint mode ----------------------------------------------
  // Same solo references, same arrival stream -- but the jobs travel as
  // framed manifest lines through a solverd daemon, and the payloads come
  // back over the wire. Replaces the baseline/aware comparison entirely.
  if (!endpoint.value.empty()) {
    return replay_daemon(endpoint.value, classes, arrivals, solo, lanes,
                         width, out_path.value);
  }

  // ---- baseline: the PR-5 static regime ----------------------------------
  serve::SchedulerOptions baseline_options;
  baseline_options.queue = serve::QueuePolicy::kFifo;
  baseline_options.preemption = false;
  baseline_options.widening = false;
  std::cout << "baseline (FIFO, static lanes)...\n";
  const RunReport baseline = replay(classes, arrivals, baseline_options, lanes);

  // ---- aware: EDF + preemption + widening --------------------------------
  serve::SchedulerOptions aware_options;
  aware_options.queue = serve::QueuePolicy::kEdf;
  aware_options.preemption = true;
  aware_options.widening = true;
  std::cout << "aware (EDF, preemption, widening)...\n";
  const RunReport aware = replay(classes, arrivals, aware_options, lanes);

  // ---- identity: every completed job bitwise equal to its solo run -------
  Index mismatches = 0;
  for (const RunReport* report : {&baseline, &aware}) {
    for (std::size_t i = 0; i < report->results.size(); ++i) {
      const serve::JobResult& r = report->results[i];
      if (r.shed) continue;
      const serve::JobResult& ref =
          solo[static_cast<std::size_t>(arrivals[i].cls)]
              [static_cast<std::size_t>(arrivals[i].tmpl)];
      if (!r.ok || !serve::payload_bitwise_equal(r, ref)) {
        ++mismatches;
        std::cout << "IDENTITY MISMATCH: job " << i << " (" << r.label
                  << (r.preemptions > 0 ? ", preempted" : "")
                  << (r.promoted ? ", promoted" : "") << ")"
                  << (!r.ok ? str(": ", r.error) : std::string()) << "\n";
      }
    }
  }

  // ---- report -------------------------------------------------------------
  util::Table table({"run", "class", "p50 queue", "p99 queue", "p99 total",
                     "jobs"});
  const auto add_rows = [&](const char* name, const RunReport& report) {
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const ClassLatency& l = report.classes[c];
      table.add_row({name, classes[c].name, util::Table::cell(l.queue.p50),
                     util::Table::cell(l.queue.p99),
                     util::Table::cell(l.total.p99),
                     util::Table::cell(static_cast<double>(l.jobs))});
    }
  };
  add_rows("baseline", baseline);
  add_rows("aware", aware);
  table.print();
  const auto summarize = [&](const char* name, const RunReport& report) {
    std::cout << name << ": " << report.jobs_per_second << " jobs/s, "
              << 100 * report.deadline_hit_rate << "% deadlines met, "
              << report.stats.preemptions << " preemptions, "
              << report.stats.promotions << " promotions, "
              << report.stats.demotions << " demotions\n";
  };
  summarize("baseline", baseline);
  summarize("aware", aware);

  const double tiny_p99_baseline = baseline.classes[0].total.p99;
  const double tiny_p99_aware = aware.classes[0].total.p99;
  const double improvement =
      tiny_p99_aware > 0 ? tiny_p99_baseline / tiny_p99_aware : 0;
  std::cout << "tiny p99 total: " << tiny_p99_baseline << " s -> "
            << tiny_p99_aware << " s (" << improvement << "x)\n";

  // ---- SPSA autotuning over replayed traffic ------------------------------
  // Runs after the identity gates (which lock the default-knob bits), so
  // perturbed evaluations are free to change solver bits. The objective is
  // the mean total latency of a short prefix of the same arrival stream
  // replayed through the aware configuration, with the scheduler options
  // re-derived from the registry inside every evaluation so the perturbed
  // knobs actually reach the scheduler and the solves.
  std::optional<util::SpsaResult> spsa;
  int spsa_eval_jobs = 0;
  bool profile_round_trip_ok = true;
  if (spsa_iters.value > 0) {
    spsa_eval_jobs = std::max(1, std::min(spsa_jobs.value, n_jobs));
    const std::vector<Arrival> eval_arrivals(
        arrivals.begin(), arrivals.begin() + spsa_eval_jobs);
    const auto objective = [&]() {
      serve::SchedulerOptions options;  // registry-backed wide_work / caches
      options.queue = serve::QueuePolicy::kEdf;
      options.preemption = true;
      options.widening = true;
      const int tuned_lanes = static_cast<int>(util::tunable_lanes());
      const RunReport r = replay(classes, eval_arrivals, options,
                                 tuned_lanes > 0 ? tuned_lanes : lanes);
      double sum = 0;
      std::size_t done = 0;
      for (const serve::JobResult& res : r.results) {
        if (res.shed) continue;
        if (!res.ok) return 1e9;  // a failing candidate is maximally bad
        sum += res.queue_seconds + res.run_seconds;
        ++done;
      }
      return done > 0 ? sum / static_cast<double>(done) : 1e9;
    };
    util::SpsaOptions options;
    // grain/threads stay out deliberately: tuning them re-chunks parallel
    // reductions and would break the bitwise-reproducibility contract for
    // anyone who loads the resulting profile.
    options.knobs = {
        util::TunableId::k_dot_block_size, util::TunableId::k_block_size,
        util::TunableId::k_lanes, util::TunableId::k_wide_work};
    options.iterations = spsa_iters.value;
    options.seed = static_cast<std::uint64_t>(spsa_seed.value);
    std::cout << "\nspsa: tuning {dot_block_size, block_size, lanes, "
                 "wide_work} over "
              << spsa_eval_jobs << " replayed arrivals, " << spsa_iters.value
              << " iterations...\n";
    spsa = util::spsa_minimize(util::tunables(), options, objective);
    std::cout << "spsa: mean total latency " << spsa->initial_objective
              << " s -> " << spsa->best_objective << " s over "
              << spsa->evaluations << " evaluations\n";
    for (const auto& [name, value] : spsa->tuned) {
      std::cout << "spsa: tuned " << name << " = " << value << "\n";
    }

    if (!profile_out.value.empty()) {
      util::TunableProfileStore store;
      for (const JobClass& cls : classes) {
        // One entry per workload shape: the tuned point was selected on the
        // full mix, so every class bucket records it.
        store.put(class_bucket(cls), spsa->tuned);
      }
      store.save(profile_out.value);
      const util::TunableProfileStore reloaded =
          util::TunableProfileStore::load(profile_out.value);
      profile_round_trip_ok = reloaded.to_json() == store.to_json();
      if (profile_round_trip_ok) {
        std::cout << "[PROFILE OK] " << store.size()
                  << " shape-bucket profile(s) round-trip through "
                  << profile_out.value << "\n";
      } else {
        std::cout << "[PROFILE FAIL] reloaded profile JSON differs from the "
                     "persisted one\n";
      }
    }
  }

  // ---- JSON ---------------------------------------------------------------
  {
    std::ostringstream section;
    section.precision(17);
    section << "{\n    \"smoke\": " << (smoke.value ? "true" : "false")
            << ", \"threads\": " << width << ", \"lanes\": " << lanes
            << ", \"jobs\": " << n_jobs << ", \"seed\": " << seed.value
            << ",\n    \"utilization\": " << utilization.value
            << ", \"arrival_rate_per_s\": " << rate << ",\n    \"solo\": {";
    for (std::size_t c = 0; c < classes.size(); ++c) {
      section << (c > 0 ? ", " : "") << "\"" << classes[c].name
              << "\": " << classes[c].solo_seconds;
    }
    section << "},\n    \"baseline\": " << run_json(baseline, classes)
            << ",\n    \"aware\": " << run_json(aware, classes)
            << ",\n    \"identity_mismatches\": " << mismatches
            << ",\n    \"tiny_p99_improvement\": " << improvement;
    if (spsa) {
      const double spsa_improvement =
          spsa->best_objective > 0
              ? spsa->initial_objective / spsa->best_objective
              : 0;
      section << ",\n    \"spsa\": {\"iterations\": " << spsa_iters.value
              << ", \"evaluations\": " << spsa->evaluations
              << ", \"seed\": " << spsa_seed.value
              << ", \"eval_jobs\": " << spsa_eval_jobs
              << ",\n      \"initial_mean_total_s\": "
              << spsa->initial_objective
              << ", \"tuned_mean_total_s\": " << spsa->best_objective
              << ", \"mean_total_improvement\": " << spsa_improvement
              << ",\n      \"tuned\": {";
      for (std::size_t i = 0; i < spsa->tuned.size(); ++i) {
        section << (i > 0 ? ", " : "") << "\"" << spsa->tuned[i].first
                << "\": " << spsa->tuned[i].second;
      }
      section << "}}";
    }
    section << "\n  }";
    splice_section(out_path.value, "latency", section.str());
  }
  std::cout << "spliced latency section into " << out_path.value << "\n";

  // ---- verdicts -----------------------------------------------------------
  bool ok = true;
  bench::print_verdict(mismatches == 0,
                       mismatches == 0
                           ? std::string("preempted/parked/promoted results "
                                         "bitwise identical to solo runs")
                           : str(mismatches, " job(s) diverged from solo"));
  ok = ok && mismatches == 0;
  if (smoke.value) {
    // The static worst case for an interactive job is waiting out a full
    // shard of elephants: solo x lanes. The aware scheduler must beat it.
    const double bound = classes[0].solo_seconds * lanes;
    const bool latency_ok = tiny_p99_aware < bound;
    bench::print_verdict(latency_ok,
                         str("aware tiny p99 ", tiny_p99_aware,
                             " s vs static-shard bound ", bound, " s"));
    ok = ok && latency_ok;
  }
  if (spsa) {
    // Best-seen tracking guarantees <=; a strict improvement is the normal
    // outcome (some perturbed evaluation beats the baseline evaluation).
    const bool not_worse = spsa->best_objective <= spsa->initial_objective;
    bench::print_verdict(
        not_worse, str("spsa tuned mean total ", spsa->best_objective,
                       " s vs initial ", spsa->initial_objective, " s"));
    ok = ok && not_worse;
    if (!profile_out.value.empty()) {
      bench::print_verdict(profile_round_trip_ok,
                           "tuned profile JSON round-trips");
      ok = ok && profile_round_trip_ok;
    }
  }
  if (assert_improvement.value > 0) {
    const bool faster = improvement >= assert_improvement.value;
    const bool throughput_held =
        aware.jobs_per_second >= 0.95 * baseline.jobs_per_second;
    bench::print_verdict(faster, str("tiny p99 improved ", improvement,
                                     "x (target >= ",
                                     assert_improvement.value, "x)"));
    bench::print_verdict(throughput_held,
                         str("aware throughput ", aware.jobs_per_second,
                             " jobs/s vs baseline ",
                             baseline.jobs_per_second, " jobs/s"));
    ok = ok && faster && throughput_held;
  }
  return ok ? 0 : 1;
}
