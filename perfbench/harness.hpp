// Shared pieces of the perfbench harness: the run context, a minimal JSON
// writer for the raw report, clocks and process-memory probes, and the
// layer probes that every workload runs in its traced mode.
//
// The harness only measures. It prints one JSON object of raw samples,
// counts, checks and provenance on its last stdout line; perfbench/run.py
// turns the samples into the named metrics (medians, tails, shares).
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/optimize.hpp"
#include "core/penalty_oracle.hpp"
#include "core/solver_engine.hpp"
#include "serve/solverd.hpp"

namespace perfbench {

using psdp::Index;
using psdp::Real;

// ------------------------------------------------------------------ clocks --

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------------ memory --

/// One "Vm...:  123 kB" field of /proc/self/status in kB; -1 if unavailable.
long long status_kb(const char* key);

/// Reset the peak-RSS watermark to the current RSS (Linux >= 4.0). Returns
/// false where unsupported.
bool reset_peak_rss();

// -------------------------------------------------------------------- json --

/// Ordered JSON object built field by field. Doubles print with 17
/// significant digits so no measured digit is lost on the way to run.py.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& integer(const std::string& key, long long value);
  Json& text(const std::string& key, const std::string& value);
  Json& flag(const std::string& key, bool value);
  Json& nums(const std::string& key, const std::vector<double>& values);
  Json& texts(const std::string& key, const std::vector<std::string>& values);
  Json& object(const std::string& key, const Json& value);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ------------------------------------------------------------- run context --

/// Everything one run shares: its arguments, the machine width, where it may
/// write files, and what it has measured and checked so far.
struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int nproc = 1;         ///< CPUs this process may run on
  int width = 1;         ///< pool width of the full-width figures
  std::string work_dir;  ///< scratch directory for instance files

  /// Raw samples by name (seconds unless the name says otherwise).
  std::map<std::string, std::vector<double>> samples;
  /// Output checks: every operation attempted, and a name for each failure.
  long long attempted = 0;
  std::vector<std::string> failures;
  Json provenance;
  /// Process RSS high-water mark seen before the last peak reset, in kB.
  long long peak_kb = 0;

  void sample(const std::string& name, double value) {
    samples[name].push_back(value);
  }
  /// Restart the peak-RSS watermark (for one load's peak) without losing
  /// the process high-water mark seen so far.
  bool reset_peak() {
    peak_kb = std::max(peak_kb, status_kb("VmHWM"));
    return reset_peak_rss();
  }
  double peak_rss_mb() const {
    return static_cast<double>(std::max(peak_kb, status_kb("VmHWM"))) / 1024;
  }
  /// Count one checked operation; records `what` as a failure unless ok.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

/// Time `setup` `reps` times into samples["setup_s"] (each repetition does
/// the whole set-up again, so the median is a set-up, not a warm re-run).
template <typename Setup>
void measure_setup(Run& run, int reps, Setup&& setup) {
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    setup();
    run.sample("setup_s", seconds_since(start));
  }
}

// ----------------------------------------------------------- layer probes --

/// Load chunked instance files through io::ChunkedInstanceReader, recording
/// the load's wall time ("io.load_s") and its RSS high-water over the RSS
/// before it ("io.load_peak_rss_mb").
std::vector<psdp::core::FactorizedPackingInstance> load_chunked(
    Run& run, const std::vector<std::string>& paths);

/// The configuration of one decision oracle: the instance, the oracle knobs
/// and the update step, exactly as a decision solve would build them.
struct OracleSetup {
  const psdp::core::FactorizedPackingInstance* instance = nullptr;
  psdp::core::SketchedOracleOptions options;
  Real eps = 0.1;  ///< the decision eps of apply_update
};

/// The oracle a decision solve at `eps` would run on `instance`:
/// SketchedOracleOptions at eps with the Lemma 3.2 kappa cap.
OracleSetup decision_oracle(const psdp::core::FactorizedPackingInstance& instance,
                            Real eps, Index sketch_rows_override = 0);

/// One decision trajectory (oracle compute + apply_update per round) from
/// the initial weights, resumable across calls. Each round's time goes to
/// samples[label], and its dots and trace are checked finite and
/// non-negative. With `replay`, every round is also replayed through a
/// traced copy of the oracle's big_dot_exp call, checked bitwise against
/// the untraced result, and split into layer samples.
class RoundRunner {
 public:
  RoundRunner(Run& run, const OracleSetup& setup, std::string label,
              bool replay);
  RoundRunner(const RoundRunner&) = delete;
  RoundRunner& operator=(const RoundRunner&) = delete;

  /// Run rounds for `budget_seconds` (at least one); returns how many.
  Index run_for(double budget_seconds);
  Index rounds() const { return rounds_; }

 private:
  Run& run_;
  OracleSetup setup_;
  std::string label_;
  bool replay_;
  psdp::core::SketchedTaylorOracle oracle_;
  Real alpha_;
  psdp::core::SolverState state_;
  psdp::core::PenaltyBatch batch_;
  psdp::core::SolverWorkspace replay_workspace_;
  Index rounds_ = 0;
};

/// Time `regions` fork-join regions at the current pool width, one task per
/// thread, bodies doing nothing but meet: samples["par.region_us"].
void time_par_regions(Run& run, int regions);

/// One job line for solverd, with the time it is due relative to the start
/// of the stream.
struct StreamJob {
  std::string line;  ///< manifest job line
  std::string tmpl;  ///< template key, for the payload reference
  Real eps = 0.1;    ///< the job's target accuracy (for eps misses)
  double due = 0;    ///< seconds after stream start
};

/// A solverd daemon over the in-process loopback transport with one client
/// connection and a reader thread collecting results as they stream back.
class DaemonSession {
 public:
  struct Received {
    psdp::serve::WireResult wire;
    double at = 0;  ///< session clock when the frame arrived
    bool backpressure = false;
  };

  explicit DaemonSession(int lanes);
  ~DaemonSession();
  DaemonSession(const DaemonSession&) = delete;
  DaemonSession& operator=(const DaemonSession&) = delete;

  /// Seconds since the session started.
  double now() const { return seconds_since(start_); }
  /// Submit one job line; returns the id the daemon will echo (job lines
  /// count from 1 per connection), or 0 if the daemon is gone.
  std::uint64_t submit(const std::string& line);
  /// Block until `count` result or backpressure frames have arrived in
  /// total, or the stream ended.
  void wait_for(std::size_t count);
  /// Everything received so far, in arrival order.
  std::vector<Received> received();
  std::vector<std::string> errors();
  psdp::serve::Solverd& daemon() { return *daemon_; }

 private:
  void read_loop();

  Clock::time_point start_;
  psdp::serve::LoopbackListener listener_;
  std::unique_ptr<psdp::serve::Solverd> daemon_;
  std::unique_ptr<psdp::serve::SolverdClient> client_;
  std::uint64_t submitted_ = 0;  ///< job lines sent (submitting thread only)
  std::mutex mutex_;  ///< guards received_, errors_, ended_
  std::condition_variable arrived_;
  std::vector<Received> received_;
  std::vector<std::string> errors_;
  bool ended_ = false;
  std::thread server_;
  std::thread reader_;
};

/// Send `jobs` through `session` at their due times (open loop) and wait
/// for every result. Records per-job latency from the due time
/// ("job_latency_s"), the generator's lateness ("serve.arrival_lag_s"), the
/// daemon's queue/run split, the client-side remainder ("serve.wire_s"),
/// scheduler and cache counters over the stream, brackets, eps misses,
/// deadline outcomes ("deadline_met"; a shed job misses), and the jobs
/// completed over the stream's span (first due to last result). Every job must
/// come back ok and, when `references` holds its template, bitwise equal to
/// that in-process result.
void stream_jobs(Run& run, DaemonSession& session,
                 const std::vector<StreamJob>& jobs,
                 const std::map<std::string, psdp::serve::JobResult>& references);

/// In-process solves of manifest job lines, one at a time: each line runs
/// as a one-job batch on a scheduler whose jobs stay inline on their lane
/// (no widening), so its bits equal a solo run at the current pool width --
/// the reference a daemon result must match. The artifact cache persists
/// across calls.
class InProcessSolver {
 public:
  InProcessSolver();
  psdp::serve::JobResult solve(const std::string& line);

 private:
  psdp::serve::BatchScheduler scheduler_;
};

/// Per-width-bucket transpose kernel of a factor's KernelPlan, as
/// "1:gather,2:gather,...", plus its ISA.
std::string plan_summary(const psdp::sparse::Csr& factor);

}  // namespace perfbench
