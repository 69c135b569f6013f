// solverd: the persistent daemon front end over BatchScheduler.
//
// One Solverd owns one scheduler (so one warm ArtifactCache across every
// connection) and serves any Listener (serve/transport.hpp): Unix-domain or
// TCP sockets in production, the in-process loopback in tests. Per
// connection, a session thread reads frames:
//
//   * kSubmit payloads are manifest lines ('\n'-separated, the exact
//     serve/manifest.hpp format including `set` and priority=/deadline-ms=
//     keys). Each job line is submitted through BatchScheduler::submit and
//     streams back one kResult frame from its on_complete callback -- out
//     of submission order, as the scheduler finishes them. A job shed by
//     admission control comes back as kBackpressure instead, so a client
//     sees overload per job, immediately, not as a dropped connection.
//   * A malformed line answers with a kError frame (scope=frame, carrying
//     the manifest parser's "source:line: ..." message) and poisons
//     nothing: later lines in the same payload still submit.
//   * kGoodbye (or a clean EOF) starts the drain: the session waits for
//     every outstanding result to flush, answers kDone, and closes.
//   * A framing violation (ProtocolError) answers kError scope=connection,
//     then drains and closes -- fatal to that connection, invisible to
//     every other one and to the lanes.
//
// Result lines cross the wire with every Real as its 16-hex-digit IEEE-754
// bit pattern (util/wire.hpp), so a decoded JobResult compares bitwise
// equal (payload_bitwise_equal) to an in-process solve of the same
// instance at any thread count -- the identity gate bench_load --endpoint
// enforces against the daemon.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/scheduler.hpp"
#include "serve/transport.hpp"

namespace psdp::serve {

// ----------------------------------------------------------- result codec --

/// One streamed result: the client-chosen per-connection job id (the
/// `id=N` echoed back; ids count submitted job lines per connection from
/// 1) plus the decoded JobResult.
struct WireResult {
  std::uint64_t id = 0;
  JobResult result;
};

/// Encode one JobResult as a single space-separated key=value line.
/// Reals travel as hex bit patterns; free text (label, instance, error) is
/// escaped token-safe. Exactly the payload of a kResult / kBackpressure
/// frame.
std::string encode_result_line(std::uint64_t id, const JobResult& result);

/// Inverse of encode_result_line: reconstructs the id and every field
/// payload_bitwise_equal inspects (plus the scheduling metadata). Throws
/// InvalidArgument on malformed lines.
WireResult decode_result_line(const std::string& line);

// ----------------------------------------------------------------- daemon --

struct SolverdOptions {
  /// Scheduler configuration (lanes, queue policy, admission control,
  /// cache sizing). SolverdOptions::lanes overrides scheduler.lanes so a
  /// front end can pass one number through.
  SchedulerOptions scheduler;
  /// Lane threads for the scheduler session; 0 = auto.
  int lanes = 0;
  /// Frame payload limit applied to inbound frames.
  std::size_t max_frame_bytes = FrameLimits{}.max_payload;
  /// Accept exactly this many connections, then stop accepting and drain
  /// (serve() returns once they finish). 0 = serve until stop(). CI smoke
  /// runs use --connections=1 for a deterministic daemon exit.
  int max_connections = 0;
  /// Honor `set key=value` manifest lines from clients (they mutate the
  /// process-wide tunable registry). Off refuses them with a kError frame
  /// -- a multi-tenant daemon should not let one client retune another's
  /// jobs.
  bool apply_set_lines = true;
};

/// Daemon counters (monotone across the daemon's lifetime).
struct SolverdStats {
  std::uint64_t connections = 0;     ///< sessions accepted
  std::uint64_t jobs = 0;            ///< job lines submitted to the scheduler
  std::uint64_t results = 0;         ///< kResult frames delivered
  std::uint64_t backpressure = 0;    ///< kBackpressure frames delivered
  std::uint64_t parse_errors = 0;    ///< malformed lines answered kError
  std::uint64_t protocol_errors = 0; ///< framing violations (fatal per conn)
  std::uint64_t write_failures = 0;  ///< frames dropped: peer disconnected
};

class Solverd {
 public:
  /// The listener is borrowed and must outlive the daemon. The scheduler
  /// session opens inside serve(), not here.
  Solverd(Listener& listener, SolverdOptions options = {});
  ~Solverd();

  Solverd(const Solverd&) = delete;
  Solverd& operator=(const Solverd&) = delete;

  /// Accept and serve connections until stop() (or until max_connections
  /// sessions finished). Blocks; returns after every session drained and
  /// the scheduler closed. Call from one thread at a time.
  void serve();

  /// Stop serving: unblock the accept loop, half-close every live session
  /// (their pending reads return EOF; their queued results still flush,
  /// then each answers kDone). Idempotent, callable from any thread and
  /// from signal-ish contexts (a flag, a listener shutdown, and reader
  /// half-closes -- no locks held while calling into the transport).
  void stop();

  /// The scheduler (its cache/stats) -- valid whether or not serving.
  BatchScheduler& scheduler() { return scheduler_; }
  const SolverdOptions& options() const { return options_; }
  SolverdStats stats() const;

 private:
  struct Session;

  void session_loop(const std::shared_ptr<Session>& session);
  void handle_submit(const std::shared_ptr<Session>& session,
                     const std::string& payload);
  void deliver(const std::shared_ptr<Session>& session, std::uint64_t id,
               const JobResult& result);

  Listener& listener_;
  SolverdOptions options_;
  BatchScheduler scheduler_;

  std::atomic<bool> stopping_{false};
  std::mutex sessions_mutex_;  ///< guards sessions_ and session_threads_
  std::vector<std::weak_ptr<Session>> sessions_;
  std::vector<std::thread> session_threads_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::uint64_t> results_{0};
  std::atomic<std::uint64_t> backpressure_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> write_failures_{0};
};

// ----------------------------------------------------------------- client --

/// Thin client over any Connection: frame the requests, decode the result
/// stream. Shared by bench_load --endpoint and the loopback tests; a
/// non-C++ client only needs docs/SOLVERD.md.
class SolverdClient {
 public:
  explicit SolverdClient(std::unique_ptr<Connection> connection,
                         FrameLimits limits = {});

  /// Send one kSubmit frame of manifest lines ('\n'-separated). Returns
  /// false when the daemon is gone.
  bool submit(std::string_view manifest_lines);

  /// Send kGoodbye: no more submissions, drain and close.
  bool goodbye();

  /// Read the next raw frame (nullopt on clean EOF). Throws ProtocolError
  /// on a torn stream.
  std::optional<Frame> read();

  /// Everything the daemon streams until kDone or EOF, decoded.
  struct Drain {
    std::vector<WireResult> results;       ///< kResult frames, arrival order
    std::vector<WireResult> backpressure;  ///< kBackpressure frames
    std::vector<std::string> errors;       ///< kError payloads
    bool done = false;  ///< a kDone frame arrived (clean drain)
  };

  /// goodbye(), then read until kDone/EOF.
  Drain drain();

  Connection& connection() { return *connection_; }

 private:
  std::unique_ptr<Connection> connection_;
  FrameLimits limits_;
};

}  // namespace psdp::serve
