#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/bigdotexp.hpp"
#include "core/decision.hpp"
#include "core/solver_engine.hpp"
#include "io/chunked.hpp"
#include "linalg/taylor.hpp"
#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "rand/jl.hpp"
#include "rand/rng.hpp"
#include "serve/manifest.hpp"

namespace perfbench {

namespace core = psdp::core;
namespace linalg = psdp::linalg;
namespace par = psdp::par;
namespace serve = psdp::serve;
namespace sparse = psdp::sparse;

// ------------------------------------------------------------------ memory --

long long status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t key_length = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_length, key) == 0 && line.size() > key_length &&
        line[key_length] == ':') {
      std::istringstream fields(line.substr(key_length + 1));
      long long kb = -1;
      fields >> kb;
      return kb;
    }
  }
  return -1;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out.is_open()) return false;
  out << "5";
  out.flush();
  return out.good();
}

// -------------------------------------------------------------------- json --

namespace {

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[32];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

}  // namespace

Json& Json::num(const std::string& key, double value) {
  fields_.emplace_back(key, number(value));
  return *this;
}

Json& Json::integer(const std::string& key, long long value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::text(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, quote(value));
  return *this;
}

Json& Json::flag(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

Json& Json::nums(const std::string& key, const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + number(values[i]);
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

Json& Json::texts(const std::string& key,
                  const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + quote(values[i]);
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

Json& Json::object(const std::string& key, const Json& value) {
  fields_.emplace_back(key, value.dump());
  return *this;
}

std::string Json::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += (i > 0 ? ", " : "") + quote(fields_[i].first) + ": " +
           fields_[i].second;
  }
  return out + "}";
}

// ---------------------------------------------------------------------- io --

std::vector<core::FactorizedPackingInstance> load_chunked(
    Run& run, const std::vector<std::string>& paths) {
  std::vector<core::FactorizedPackingInstance> instances;
  const long long rss_before = status_kb("VmRSS");
  const bool peak_reset = run.reset_peak();
  const Clock::time_point start = Clock::now();
  for (const std::string& path : paths) {
    const psdp::io::ChunkedInstanceReader reader(path);
    instances.push_back(reader.load_all());
  }
  run.sample("io.load_s", seconds_since(start));
  if (peak_reset && rss_before >= 0) {
    run.sample("io.load_peak_rss_mb",
               static_cast<double>(status_kb("VmHWM") - rss_before) / 1024);
  }
  return instances;
}

// ------------------------------------------------------------------ rounds --

OracleSetup decision_oracle(const core::FactorizedPackingInstance& instance,
                            Real eps, Index sketch_rows_override) {
  OracleSetup setup;
  setup.instance = &instance;
  setup.eps = eps;
  setup.options.eps = eps;
  setup.options.kappa_cap =
      core::algorithm_constants(instance.size(), eps).spectrum_bound;
  setup.options.dot_options.sketch_rows_override = sketch_rows_override;
  return setup;
}

namespace {

/// The implicit Psi panel operator at weights x, as SketchedTaylorOracle
/// builds it, wrapped with a timer and a call counter.
struct TimedPsi {
  const sparse::FactorizedSet* set = nullptr;
  const linalg::Vector* x = nullptr;
  sparse::FactorizedSet::BlockWorkspace* workspace = nullptr;
  double seconds = 0;
  Index calls = 0;

  linalg::BlockOp op() {
    return [this](const linalg::Matrix& v, linalg::Matrix& y) {
      const Clock::time_point start = Clock::now();
      set->weighted_apply_block(*x, v, y, *workspace);
      seconds += seconds_since(start);
      ++calls;
    };
  }
};

bool dots_sane(const linalg::Vector& dots, Real trace) {
  if (!(std::isfinite(trace) && trace > 0)) return false;
  for (Index i = 0; i < dots.size(); ++i) {
    if (!(std::isfinite(dots[i]) && dots[i] >= 0)) return false;
  }
  return true;
}

bool bitwise_equal(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(Real)) == 0;
}

/// Replay round `round` of `oracle` (which has just computed `batch` at
/// weights `before.x`) through the public sharded big_dot_exp overload with
/// a timed Psi operator, on `workspace` (kept across rounds, as the oracle
/// keeps its own), then time the round's sketch, Taylor and per-factor
/// kernels directly on panels of the same shape.
void trace_round(Run& run, const OracleSetup& setup,
                 const core::SketchedTaylorOracle& oracle,
                 core::SolverWorkspace& workspace, core::SolverState before,
                 const core::PenaltyBatch& batch,
                 const core::SolverState& after, std::uint64_t round,
                 Real alpha, const std::string& label) {
  const core::FactorizedPackingInstance& instance = *setup.instance;
  const sparse::FactorizedSet& set = instance.set();
  const linalg::Vector x = before.x;
  core::BigDotExpResult result;
  TimedPsi psi{&set, &x, &workspace.factor};
  const linalg::BlockOp psi_block = psi.op();
  const linalg::SymmetricOp psi_vec = [&set, &x](const linalg::Vector& v,
                                                linalg::Vector& y) {
    set.weighted_apply(x, v, y);
  };

  // The traced round: the oracle's kappa and per-round seed, the
  // big_dot_exp span (Psi calls its child), then the update span.
  const Clock::time_point round_start = Clock::now();
  const Real kappa_runtime = std::max<Real>(
      0, std::min(oracle.tracked_trace(), oracle.tracked_lambda_bound()));
  const Real cap = setup.options.kappa_cap;
  const Real kappa = cap > 0 ? std::min(cap, kappa_runtime) : kappa_runtime;
  core::BigDotExpOptions options = setup.options.dot_options;
  options.eps = setup.options.dot_eps > 0 ? setup.options.dot_eps
                                          : setup.options.eps / 2;
  options.seed = psdp::rand::stream_seed(setup.options.dot_options.seed, round);
  const Clock::time_point dot_start = Clock::now();
  core::big_dot_exp(psi_vec, psi_block, instance.dim(), kappa,
                    instance.sharded(), options, workspace, result);
  const double dot_seconds = seconds_since(dot_start);
  core::PenaltyBatch replayed;
  std::swap(replayed.dots, result.dots);
  replayed.trace = result.trace_exp;
  const Clock::time_point update_start = Clock::now();
  core::apply_update(before, replayed, setup.eps, alpha);
  const double update_seconds = seconds_since(update_start);
  const double round_seconds = seconds_since(round_start);

  run.sample("trace.round_s", round_seconds);
  run.sample("trace.unattributed_s",
             round_seconds - dot_seconds - update_seconds);
  run.sample("core.bigdotexp_self_s", dot_seconds - psi.seconds);
  run.sample("sparse.psi_apply_s", psi.seconds);
  run.sample("sparse.psi_apply_calls", static_cast<double>(psi.calls));
  run.sample("core.taylor_degree", static_cast<double>(result.taylor_degree));
  run.sample("core.sketch_rows", static_cast<double>(result.sketch_rows));
  run.check(bitwise_equal(replayed.dots, batch.dots) &&
                replayed.trace == batch.trace &&
                bitwise_equal(before.x, after.x),
            psdp::str(label, " round ", round,
                      ": traced replay differs from the untraced oracle"));

  // Direct kernel timings on the round's panel shape: r sketch rows in
  // panels of b, Taylor degree k, Psi at this round's weights.
  const Index m = instance.dim();
  const Index r = result.sketch_rows;
  const Index b = std::max<Index>(1, result.block_size);
  const psdp::rand::GaussianSketch sketch =
      psdp::rand::GaussianSketch::deferred(r, m, options.seed);
  std::vector<linalg::Matrix> panels;
  const Clock::time_point fill_start = Clock::now();
  for (Index first = 0; first < r; first += b) {
    panels.emplace_back(m, std::min(b, r - first));
    sketch.fill_block(first, std::min(b, r - first), panels.back());
  }
  run.sample("rand.fill_s", seconds_since(fill_start));

  linalg::TaylorBlockWorkspace taylor;
  linalg::Matrix y;
  psi.seconds = 0;
  const Clock::time_point taylor_start = Clock::now();
  for (const linalg::Matrix& panel : panels) {
    linalg::apply_exp_taylor_block(psi_block, result.taylor_degree, panel, y,
                                   taylor, 0.5);
  }
  run.sample("linalg.taylor_self_s",
             seconds_since(taylor_start) - psi.seconds);

  const linalg::Matrix& panel = panels.front();
  std::vector<linalg::Matrix> projected(static_cast<std::size_t>(set.size()));
  std::vector<Real> partial;
  const Clock::time_point transpose_start = Clock::now();
  for (Index i = 0; i < set.size(); ++i) {
    set[i].q().apply_transpose_block(panel, projected[static_cast<std::size_t>(i)],
                                     partial);
  }
  run.sample("sparse.transpose_s", seconds_since(transpose_start));
  const Clock::time_point spmm_start = Clock::now();
  for (Index i = 0; i < set.size(); ++i) {
    set[i].q().apply_block(projected[static_cast<std::size_t>(i)], y);
  }
  run.sample("sparse.spmm_s", seconds_since(spmm_start));
}

}  // namespace

RoundRunner::RoundRunner(Run& run, const OracleSetup& setup, std::string label,
                         bool replay)
    : run_(run),
      setup_(setup),
      label_(std::move(label)),
      replay_(replay),
      oracle_(*setup.instance, setup.options),
      alpha_(core::algorithm_constants(setup.instance->size(), setup.eps).alpha),
      state_(core::initial_state(oracle_, "perfbench")) {}

Index RoundRunner::run_for(double budget_seconds) {
  const Clock::time_point start = Clock::now();
  Index rounds = 0;
  while (rounds == 0 || seconds_since(start) < budget_seconds) {
    ++rounds;
    const std::uint64_t round = static_cast<std::uint64_t>(++rounds_);
    core::SolverState before;
    if (replay_) before = state_;
    par::CostMeter::reset();
    const Clock::time_point compute_start = Clock::now();
    oracle_.compute(state_.x, round, batch_);
    const double compute_seconds = seconds_since(compute_start);
    const Clock::time_point update_start = Clock::now();
    core::apply_update(state_, batch_, setup_.eps, alpha_);
    const double update_seconds = seconds_since(update_start);
    const par::CostMeter::Cost cost = par::CostMeter::snapshot();
    run_.sample(label_, compute_seconds + update_seconds);
    run_.sample("round_taylor_degree",
                static_cast<double>(oracle_.last_taylor_degree()));
    run_.check(dots_sane(batch_.dots, batch_.trace),
               psdp::str(label_, " round ", round,
                         ": dots or trace not finite and non-negative"));
    if (replay_) {
      run_.sample("core.oracle_s", compute_seconds);
      run_.sample("core.update_s", update_seconds);
      run_.sample("round_cost_work", static_cast<double>(cost.work));
      run_.sample("round_cost_depth", static_cast<double>(cost.depth));
      trace_round(run_, setup_, oracle_, replay_workspace_, std::move(before),
                  batch_, state_, round, alpha_, label_);
    }
  }
  return rounds;
}

void time_par_regions(Run& run, int regions) {
  // The bodies rendezvous: an empty body lets the submitting thread drain
  // every task before a worker wakes, which would time no fork-join at all.
  // Each body holds its thread until every task has one (bounded at 1 ms,
  // should the pool ever run a region on fewer threads).
  const Index width = par::num_threads();
  for (int i = 0; i < regions; ++i) {
    std::atomic<Index> started{0};
    const Clock::time_point start = Clock::now();
    par::parallel_for(0, width, [&](Index) {
      started.fetch_add(1);
      const Clock::time_point wait_start = Clock::now();
      while (started.load() < width && seconds_since(wait_start) < 1e-3) {
      }
    }, /*grain=*/1);
    run.sample("par.region_us", 1e6 * seconds_since(start));
  }
}

// ------------------------------------------------------------------ daemon --

DaemonSession::DaemonSession(int lanes) : start_(Clock::now()) {
  serve::SolverdOptions options;
  options.lanes = lanes;
  options.max_connections = 1;  // serve() returns once our session drains
  daemon_ = std::make_unique<serve::Solverd>(listener_, options);
  client_ = std::make_unique<serve::SolverdClient>(listener_.connect());
  server_ = std::thread([this] {
    try {
      daemon_->serve();
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mutex_);
      errors_.push_back(psdp::str("daemon: ", e.what()));
    }
  });
  reader_ = std::thread([this] { read_loop(); });
}

DaemonSession::~DaemonSession() {
  client_->goodbye();
  reader_.join();
  daemon_->stop();
  server_.join();
}

void DaemonSession::read_loop() {
  try {
    while (std::optional<serve::Frame> frame = client_->read()) {
      const double at = now();
      if (frame->type == serve::FrameType::kDone) break;
      const std::lock_guard<std::mutex> lock(mutex_);
      if (frame->type == serve::FrameType::kError) {
        errors_.push_back(frame->payload);
      } else if (frame->type == serve::FrameType::kResult ||
                 frame->type == serve::FrameType::kBackpressure) {
        received_.push_back(
            {serve::decode_result_line(frame->payload), at,
             frame->type == serve::FrameType::kBackpressure});
        arrived_.notify_all();
      }
    }
  } catch (const std::exception& e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    errors_.push_back(psdp::str("client read: ", e.what()));
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ended_ = true;
  arrived_.notify_all();
}

std::uint64_t DaemonSession::submit(const std::string& line) {
  if (!client_->submit(line)) return 0;
  return ++submitted_;
}

void DaemonSession::wait_for(std::size_t count) {
  std::unique_lock<std::mutex> lock(mutex_);
  arrived_.wait(lock, [&] { return received_.size() >= count || ended_; });
}

std::vector<DaemonSession::Received> DaemonSession::received() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return received_;
}

std::vector<std::string> DaemonSession::errors() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return errors_;
}

// ------------------------------------------------------------------ stream --

namespace {

/// upper/lower of a job's bracket (0 when it carries none).
double bracket_ratio(const serve::JobResult& r) {
  const core::PackingOptimum& p =
      r.kind == serve::JobKind::kCovering ? r.covering.packing : r.packing;
  return p.lower > 0 ? p.upper / p.lower : 0;
}

}  // namespace

void stream_jobs(Run& run, DaemonSession& session,
                 const std::vector<StreamJob>& jobs,
                 const std::map<std::string, serve::JobResult>& references) {
  const std::size_t already = session.received().size();
  const std::size_t errors_before = session.errors().size();
  const serve::SchedulerStats sched_before = session.daemon().scheduler().stats();
  const serve::ArtifactCache::Stats cache_before =
      session.daemon().scheduler().cache().stats();

  std::map<std::uint64_t, std::size_t> job_of_id;
  std::vector<double> submitted_at(jobs.size(), 0);
  const double stream_start = session.now();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(jobs[i].due)));
    run.sample("serve.arrival_lag_s", seconds_since(start) - jobs[i].due);
    submitted_at[i] = session.now();
    const std::uint64_t id = session.submit(jobs[i].line);
    if (id == 0) break;
    job_of_id[id] = i;
  }
  session.wait_for(already + job_of_id.size());
  const std::vector<DaemonSession::Received> received = session.received();

  const serve::SchedulerStats sched = session.daemon().scheduler().stats();
  const serve::ArtifactCache::Stats cache =
      session.daemon().scheduler().cache().stats();
  run.sample("serve.preemptions",
             static_cast<double>(sched.preemptions - sched_before.preemptions));
  run.sample("serve.promotions",
             static_cast<double>(sched.promotions - sched_before.promotions));
  run.sample("serve.shed", static_cast<double>(sched.shed - sched_before.shed));
  run.sample("serve.cache_hits",
             static_cast<double>(cache.hits - cache_before.hits));
  run.sample("serve.cache_misses",
             static_cast<double>(cache.misses - cache_before.misses));

  std::vector<bool> answered(jobs.size(), false);
  double last_at = stream_start;
  double completed = 0;
  for (std::size_t k = already; k < received.size(); ++k) {
    const DaemonSession::Received& got = received[k];
    const auto found = job_of_id.find(got.wire.id);
    if (found == job_of_id.end()) continue;
    const std::size_t i = found->second;
    const StreamJob& job = jobs[i];
    const serve::JobResult& r = got.wire.result;
    answered[i] = true;
    last_at = std::max(last_at, got.at);
    if (r.deadline_ms.has_value()) {
      run.sample("deadline_met",
                 (r.deadline_met && !r.shed && !got.backpressure) ? 1 : 0);
    }
    if (r.shed || got.backpressure) {
      run.check(false, psdp::str("job ", i, " (", job.tmpl, ") was shed"));
      continue;
    }
    const auto ref = references.find(job.tmpl);
    run.check(r.ok && (ref == references.end() ||
                       serve::payload_bitwise_equal(r, ref->second)),
              psdp::str("job ", i, " (", job.tmpl, ") ",
                        r.ok ? "differs from its in-process solve"
                             : psdp::str("failed: ", r.error)));
    if (!r.ok) continue;
    ++completed;
    const double latency = got.at - (stream_start + job.due);
    run.sample("job_latency_s", latency);
    run.sample("serve.queue_s", r.queue_seconds);
    run.sample("serve.run_s", r.run_seconds);
    run.sample("serve.wire_s", got.at - submitted_at[i] - r.queue_seconds -
                                   r.run_seconds);
    const double ratio = bracket_ratio(r);
    run.sample("bracket_ratio", ratio);
    run.sample("eps_miss", ratio > 1 + job.eps ? 1 : 0);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!answered[i]) {
      run.check(false, psdp::str("job ", i, " (", jobs[i].tmpl,
                                 ") got no answer"));
    }
  }
  run.sample("completed_jobs", completed);
  run.sample("stream_wall_s", last_at - stream_start);
  const std::vector<std::string> errors = session.errors();
  for (std::size_t k = errors_before; k < errors.size(); ++k) {
    run.check(false, psdp::str("wire: ", errors[k]));
  }
}

namespace {

serve::SchedulerOptions inline_options() {
  serve::SchedulerOptions options;
  options.widening = false;
  return options;
}

}  // namespace

InProcessSolver::InProcessSolver() : scheduler_(inline_options()) {}

serve::JobResult InProcessSolver::solve(const std::string& line) {
  serve::JobSpec spec;
  const serve::ManifestLineKind kind =
      serve::parse_manifest_line(line, "perfbench", 1, &spec);
  PSDP_CHECK(kind == serve::ManifestLineKind::kJob,
             psdp::str("not a job line: ", line));
  serve::SolveBatch batch;
  batch.add(std::move(spec));
  return scheduler_.run(batch).front();
}

std::string plan_summary(const sparse::Csr& factor) {
  const sparse::KernelPlan& plan = factor.kernel_plan();
  std::string out;
  for (const sparse::KernelPlanEntry& entry : plan.entries()) {
    out += psdp::str(out.empty() ? "" : ",", entry.width, ":",
                     sparse::kernel_name(entry.choice));
  }
  if (out.empty()) out = "none";
  return psdp::str(out, plan.measured() ? " (measured" : " (heuristic",
                   ", isa ", psdp::simd::isa_name(plan.isa()), ")");
}

}  // namespace perfbench
