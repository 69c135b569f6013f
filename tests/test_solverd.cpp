// The solverd daemon over the loopback transport: frame codec round trips
// and fault injection (torn frames, bad magic, oversized payloads), the
// hex-bits wire codec's bitwise identity, request -> streamed-result flow,
// per-job failure isolation, malformed-line errors with source:line names,
// backpressure frames from admission control, graceful drain with a
// mid-solve (preempted) job, and client disconnects mid-stream. Every
// daemon behavior here runs with no OS sockets, so the suite is
// deterministic and ASan/UBSan-clean by construction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "apps/generators.hpp"
#include "core/optimize.hpp"
#include "io/instance_io.hpp"
#include "linalg/vector.hpp"
#include "par/parallel.hpp"
#include "serve/manifest.hpp"
#include "serve/solverd.hpp"
#include "serve/transport.hpp"
#include "util/tunables.hpp"
#include "util/wire.hpp"

namespace psdp::serve {
namespace {

/// RAII guard: restore the global thread count on scope exit.
struct ThreadGuard {
  int before = par::num_threads();
  ~ThreadGuard() { par::set_num_threads(before); }
};

bool wait_until(const std::function<bool()>& done, double seconds = 20) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::yield();
  }
  return done();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "psdp_solverd_" + name;
}

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

/// The manifest options matching loose_options(), as a wire line suffix.
constexpr const char* kLooseKeys =
    " eps=0.5 decision-eps=0.3 probe=phased sketch-rows=8";

/// Save a small factorized instance and return its path; the manifest line
/// "packing-factorized <path><kLooseKeys>" then solves bitwise like
/// core::approx_packing(*small_factorized(seed), loose_options()).
std::string save_factorized(const std::string& name, std::uint64_t seed) {
  const std::string path = temp_path(name);
  io::save_factorized(path, *small_factorized(seed));
  return path;
}

std::string save_lp(const std::string& name) {
  const std::string path = temp_path(name);
  io::save_lp(path, apps::complete_graph_matching_lp(6).lp);
  return path;
}

JobResult packing_reference(std::uint64_t seed) {
  JobResult ref;
  ref.ok = true;
  ref.kind = JobKind::kPackingFactorized;
  ref.packing = core::approx_packing(*small_factorized(seed), loose_options());
  return ref;
}

// ---------------------------------------------------------------------------
// Frame codec over a raw loopback pair.
// ---------------------------------------------------------------------------

TEST(Transport, FrameRoundTripAndCleanEofAtBoundary) {
  auto [client, server] = loopback_pair();
  EXPECT_TRUE(write_frame(*client, FrameType::kSubmit, "packing-lp a.psdp"));
  EXPECT_TRUE(write_frame(*client, FrameType::kGoodbye, ""));
  EXPECT_TRUE(write_frame(*client, FrameType::kResult, std::string(1000, 'x')));
  client->close();

  std::optional<Frame> frame = read_frame(*server);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kSubmit);
  EXPECT_EQ(frame->payload, "packing-lp a.psdp");
  frame = read_frame(*server);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kGoodbye);
  EXPECT_TRUE(frame->payload.empty());
  frame = read_frame(*server);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.size(), 1000u);
  // EOF exactly at a frame boundary is a clean end of stream.
  EXPECT_FALSE(read_frame(*server).has_value());
}

TEST(Transport, ByteAtATimeDeliveryStillFrames) {
  auto [client, server] = loopback_pair();
  std::string bytes;
  {
    // Render one frame into a buffer by writing it through a scratch pair.
    auto [w, r] = loopback_pair();
    write_frame(*w, FrameType::kSubmit, "torn-but-complete");
    char chunk[64];
    std::size_t n = 0;
    w->close();
    while ((n = r->read_some(chunk, sizeof chunk)) > 0) bytes.append(chunk, n);
  }
  std::thread dripper([&] {
    for (const char byte : bytes) {
      ASSERT_TRUE(client->write_all(&byte, 1));
      std::this_thread::yield();
    }
  });
  const std::optional<Frame> frame = read_frame(*server);
  dripper.join();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "torn-but-complete");
}

TEST(Transport, TornHeaderThrowsProtocolError) {
  auto [client, server] = loopback_pair();
  const char half[4] = {'P', 's', 'S', 0};  // 4 of 8 header bytes
  EXPECT_TRUE(client->write_all(half, sizeof half));
  client->close();
  EXPECT_THROW(read_frame(*server), ProtocolError);
}

TEST(Transport, TornPayloadThrowsProtocolError) {
  auto [client, server] = loopback_pair();
  // A valid header promising 10 payload bytes, then only 3 and EOF.
  const unsigned char header[8] = {'P', 's', 'S', 0, 10, 0, 0, 0};
  EXPECT_TRUE(
      client->write_all(reinterpret_cast<const char*>(header), sizeof header));
  EXPECT_TRUE(client->write_all("abc", 3));
  client->close();
  EXPECT_THROW(read_frame(*server), ProtocolError);
}

TEST(Transport, BadMagicAndUnknownTypeThrow) {
  {
    auto [client, server] = loopback_pair();
    const unsigned char header[8] = {'X', 'Y', 'S', 0, 0, 0, 0, 0};
    client->write_all(reinterpret_cast<const char*>(header), sizeof header);
    EXPECT_THROW(read_frame(*server), ProtocolError);
  }
  {
    auto [client, server] = loopback_pair();
    const unsigned char header[8] = {'P', 's', 'z', 0, 0, 0, 0, 0};
    client->write_all(reinterpret_cast<const char*>(header), sizeof header);
    EXPECT_THROW(read_frame(*server), ProtocolError);
  }
}

TEST(Transport, OversizedPayloadRefusedBeforeAnyPayloadRead) {
  auto [client, server] = loopback_pair();
  // Length 2^24 against a 64-byte limit: must throw on the header alone.
  const unsigned char header[8] = {'P', 's', 'S', 0, 0, 0, 0, 1};
  client->write_all(reinterpret_cast<const char*>(header), sizeof header);
  FrameLimits limits;
  limits.max_payload = 64;
  EXPECT_THROW(read_frame(*server, limits), ProtocolError);
}

TEST(Transport, WriteToClosedPeerFailsWithoutThrowing) {
  auto [client, server] = loopback_pair();
  server->close();
  EXPECT_FALSE(write_frame(*client, FrameType::kSubmit, "anyone there?"));
}

TEST(Transport, ListenerShutdownUnblocksAcceptAndRefusesConnect) {
  LoopbackListener listener;
  std::thread acceptor([&] { EXPECT_EQ(listener.accept(), nullptr); });
  listener.shutdown();
  acceptor.join();
  EXPECT_THROW(listener.connect(), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Wire scalar codec: bit-exact doubles, token-safe text.
// ---------------------------------------------------------------------------

TEST(WireCodec, HexBitsRoundTripsEveryBitPattern) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0 / 3.0,
                          0.1,
                          -1e308,
                          5e-324,  // smallest denormal
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (const double v : cases) {
    const double back = util::from_hex_bits(util::hex_bits(v), "t");
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0)
        << v << " -> " << util::hex_bits(v);
  }
  EXPECT_EQ(util::hex_bits(0.0), "0000000000000000");
  EXPECT_THROW(util::from_hex_bits("123", "t"), InvalidArgument);
  EXPECT_THROW(util::from_hex_bits("123456789abcdefg", "t"), InvalidArgument);
}

TEST(WireCodec, EscapeMakesTokensAndRoundTrips) {
  const std::string nasty = "a b\\c\nline2\rend s\\n";
  const std::string escaped = util::escape_line(nasty);
  EXPECT_EQ(escaped.find(' '), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(util::unescape_line(escaped), nasty);
}

TEST(Solverd, ResultLineCodecRoundTripsEveryKind) {
  JobResult packing;
  packing.ok = true;
  packing.kind = JobKind::kPackingFactorized;
  packing.instance = "my instance";
  packing.label = "tiny #3";
  packing.cache_hit = true;
  packing.lane = 2;
  packing.preemptions = 1;
  packing.promoted = true;
  packing.queue_seconds = 0.25;
  packing.run_seconds = 1.0 / 3.0;
  packing.deadline_ms = 12.5;
  packing.deadline_met = false;
  packing.packing.lower = 0.1;
  packing.packing.upper = 0.30000000000000004;
  packing.packing.best_x = linalg::Vector{1.0 / 7.0, -0.0, 5e-324};

  const WireResult decoded = decode_result_line(encode_result_line(7, packing));
  EXPECT_EQ(decoded.id, 7u);
  const JobResult& r = decoded.result;
  EXPECT_TRUE(payload_bitwise_equal(r, packing));
  EXPECT_EQ(r.instance, "my instance");
  EXPECT_EQ(r.label, "tiny #3");
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(r.lane, 2);
  EXPECT_EQ(r.preemptions, 1);
  EXPECT_TRUE(r.promoted);
  EXPECT_EQ(r.queue_seconds, 0.25);
  EXPECT_EQ(r.run_seconds, 1.0 / 3.0);
  EXPECT_EQ(r.seconds, r.run_seconds);
  EXPECT_EQ(r.deadline_ms, 12.5);
  EXPECT_FALSE(r.deadline_met);

  JobResult covering;
  covering.ok = true;
  covering.kind = JobKind::kCovering;
  covering.covering.objective = 2.5;
  covering.covering.lower_bound = 2.25;
  covering.covering.packing.lower = 0.9;
  covering.covering.packing.upper = 1.1;
  EXPECT_TRUE(payload_bitwise_equal(
      decode_result_line(encode_result_line(1, covering)).result, covering));

  JobResult failed;  // failures carry the error text, escaped
  failed.kind = JobKind::kPackingLp;
  failed.ok = false;
  failed.error = "io: cannot open 'no such.psdp'\nsecond line";
  const JobResult back = decode_result_line(encode_result_line(2, failed)).result;
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, failed.error);

  JobResult empty_x;  // an empty witness vector survives the round trip
  empty_x.ok = true;
  empty_x.kind = JobKind::kPackingLp;
  empty_x.lp.lower = 1;
  empty_x.lp.upper = 2;
  EXPECT_TRUE(payload_bitwise_equal(
      decode_result_line(encode_result_line(3, empty_x)).result, empty_x));

  EXPECT_THROW(decode_result_line("kind=packing-lp ok=1"), InvalidArgument);
  EXPECT_THROW(decode_result_line("id=1 kind=packing-lp ok=maybe"),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// The daemon over loopback.
// ---------------------------------------------------------------------------

/// One in-process daemon on its own thread, stopped and joined on scope
/// exit whatever the test body did.
struct DaemonHarness {
  LoopbackListener listener;
  Solverd daemon;
  std::thread thread;

  explicit DaemonHarness(SolverdOptions options = {})
      : daemon(listener, std::move(options)),
        thread([this] { daemon.serve(); }) {}

  SolverdClient connect() { return SolverdClient(listener.connect()); }

  ~DaemonHarness() {
    daemon.stop();
    thread.join();
  }
};

TEST(Solverd, SubmitStreamsBitwiseIdenticalResultsAndDrainsClean) {
  ThreadGuard guard;
  par::set_num_threads(2);
  const std::string path = save_factorized("stream.psdp", 3);
  const JobResult ref = packing_reference(3);

  DaemonHarness harness;
  SolverdClient client = harness.connect();
  // Two jobs sharing one cache key plus a distinct label: the daemon runs
  // the exact manifest format, so every key works over the wire.
  ASSERT_TRUE(client.submit(str("packing-factorized ", path, kLooseKeys,
                                " id=shared label=first\n",
                                "packing-factorized ", path, kLooseKeys,
                                " id=shared label=second priority=1\n")));
  const SolverdClient::Drain drain = client.drain();
  EXPECT_TRUE(drain.done);
  EXPECT_TRUE(drain.errors.empty());
  ASSERT_EQ(drain.results.size(), 2u);
  EXPECT_TRUE(drain.backpressure.empty());

  std::vector<bool> seen(2, false);
  for (const WireResult& wire : drain.results) {
    ASSERT_GE(wire.id, 1u);
    ASSERT_LE(wire.id, 2u);
    seen[wire.id - 1] = true;
    ASSERT_TRUE(wire.result.ok) << wire.result.error;
    EXPECT_EQ(wire.result.instance, "shared");
    EXPECT_EQ(wire.result.label, wire.id == 1 ? "first" : "second");
    // The daemon solved a file-loaded instance inside a lane; the client
    // decoded hex bit patterns. Identical bits to an in-process solo run.
    EXPECT_TRUE(payload_bitwise_equal(wire.result, ref))
        << "wire payload diverged for id " << wire.id;
  }
  EXPECT_TRUE(seen[0] && seen[1]);

  const SolverdStats stats = harness.daemon.stats();
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_EQ(stats.results, 2u);
  EXPECT_EQ(stats.parse_errors, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(Solverd, EachSubmitStreamsItsResultBeforeTheNext) {
  ThreadGuard guard;
  par::set_num_threads(2);
  const std::string path = save_lp("order.psdp");
  DaemonHarness harness;
  SolverdClient client = harness.connect();
  // Strict request -> response alternation: each frame's single job must
  // come back before the next frame is even sent.
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.submit(str("packing-lp ", path, " eps=0.3")));
    const std::optional<Frame> frame = client.read();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kResult);
    const WireResult wire = decode_result_line(frame->payload);
    EXPECT_EQ(wire.id, static_cast<std::uint64_t>(i));
    EXPECT_TRUE(wire.result.ok) << wire.result.error;
    EXPECT_EQ(wire.result.kind, JobKind::kPackingLp);
  }
  const SolverdClient::Drain drain = client.drain();
  EXPECT_TRUE(drain.done);
  EXPECT_TRUE(drain.results.empty());  // everything was read inline
}

TEST(Solverd, PerJobFailureIsIsolatedFromTheRestOfTheFrame) {
  ThreadGuard guard;
  par::set_num_threads(2);
  const std::string good = save_lp("isolate.psdp");
  DaemonHarness harness;
  SolverdClient client = harness.connect();
  // Job 2's instance file does not exist: its *solve* fails (manifest
  // paths resolve lazily), the other two jobs are untouched, and the
  // failure comes back as a result frame, not a dropped connection.
  ASSERT_TRUE(client.submit(str("packing-lp ", good, " eps=0.3\n",
                                "packing-lp /no/such/file.psdp eps=0.3\n",
                                "packing-lp ", good, " eps=0.3\n")));
  const SolverdClient::Drain drain = client.drain();
  EXPECT_TRUE(drain.done);
  ASSERT_EQ(drain.results.size(), 3u);
  int ok_count = 0, failed_count = 0;
  for (const WireResult& wire : drain.results) {
    if (wire.result.ok) {
      ++ok_count;
    } else {
      ++failed_count;
      EXPECT_EQ(wire.id, 2u);
      EXPECT_NE(wire.result.error.find("/no/such/file.psdp"),
                std::string::npos)
          << wire.result.error;
    }
  }
  EXPECT_EQ(ok_count, 2);
  EXPECT_EQ(failed_count, 1);
}

TEST(Solverd, MalformedLinesAnswerNamedErrorsWithoutPoisoningTheSession) {
  ThreadGuard guard;
  par::set_num_threads(2);
  const std::string good = save_lp("malformed.psdp");
  DaemonHarness harness;
  SolverdClient client = harness.connect();
  // Lines 1 and 3 are malformed; 2 and 4 are fine. Errors must name the
  // per-connection source and line, exactly like a file manifest names
  // path:line -- and later lines still submit.
  ASSERT_TRUE(client.submit(str("warp-drive ", good, "\n",
                                "packing-lp ", good, " eps=0.3\n",
                                "packing-lp ", good, " eps=bogus\n",
                                "packing-lp ", good, " eps=0.3\n")));
  SolverdClient::Drain drain = client.drain();
  EXPECT_TRUE(drain.done);
  EXPECT_EQ(drain.results.size(), 2u);
  ASSERT_EQ(drain.errors.size(), 2u);
  EXPECT_NE(drain.errors[0].find("scope=frame"), std::string::npos);
  EXPECT_NE(drain.errors[0].find("conn1:1:"), std::string::npos)
      << drain.errors[0];
  EXPECT_NE(drain.errors[0].find("warp-drive"), std::string::npos);
  EXPECT_NE(drain.errors[1].find("conn1:3:"), std::string::npos)
      << drain.errors[1];
  EXPECT_NE(drain.errors[1].find("bogus"), std::string::npos);
  EXPECT_EQ(harness.daemon.stats().parse_errors, 2u);
  EXPECT_EQ(harness.daemon.stats().protocol_errors, 0u);

  // Line numbers keep counting across frames of one connection.
  SolverdClient again = harness.connect();
  ASSERT_TRUE(again.submit(str("packing-lp ", good, " eps=0.3\n")));
  ASSERT_TRUE(again.submit("set\n"));
  const SolverdClient::Drain drain2 = again.drain();
  ASSERT_EQ(drain2.errors.size(), 1u);
  EXPECT_NE(drain2.errors[0].find("conn2:2:"), std::string::npos)
      << drain2.errors[0];
}

TEST(Solverd, SetLinesApplyToTheRegistryAndCanBeDisabled) {
  ThreadGuard guard;
  par::set_num_threads(2);
  struct Restore {
    ~Restore() { util::tunables().reset(); }
  } restore;
  const std::string good = save_lp("setlines.psdp");
  {
    DaemonHarness harness;  // default: set lines honored
    SolverdClient client = harness.connect();
    ASSERT_TRUE(client.submit(str("set wide_work=1048576\n",
                                  "packing-lp ", good, " eps=0.3\n")));
    const SolverdClient::Drain drain = client.drain();
    EXPECT_TRUE(drain.done);
    EXPECT_TRUE(drain.errors.empty());
    EXPECT_EQ(drain.results.size(), 1u);
    // Loopback shares the process: the override is observable right here.
    EXPECT_EQ(util::tunables().get(util::TunableId::k_wide_work), 1048576);
  }
  util::tunables().reset();
  {
    SolverdOptions options;
    options.apply_set_lines = false;
    DaemonHarness harness(options);
    SolverdClient client = harness.connect();
    ASSERT_TRUE(client.submit(str("set wide_work=1048576\n",
                                  "packing-lp ", good, " eps=0.3\n")));
    const SolverdClient::Drain drain = client.drain();
    EXPECT_TRUE(drain.done);
    ASSERT_EQ(drain.errors.size(), 1u);
    EXPECT_NE(drain.errors[0].find("disabled"), std::string::npos)
        << drain.errors[0];
    EXPECT_EQ(drain.results.size(), 1u);  // the job line still ran
    EXPECT_NE(util::tunables().get(util::TunableId::k_wide_work), 1048576);
  }
}

TEST(Solverd, AdmissionControlSurfacesAsBackpressureFrames) {
  ThreadGuard guard;
  par::set_num_threads(2);
  const std::string path = save_lp("pressure.psdp");
  SolverdOptions options;
  options.lanes = 1;
  options.scheduler.max_queue = 1;
  options.scheduler.admission = AdmissionPolicy::kReject;
  DaemonHarness harness(options);
  SolverdClient client = harness.connect();
  // Six jobs in one frame against one lane and one queue seat: whatever
  // the claim race does, at least one arrival finds the seat taken and is
  // bounced -- and the bounce arrives as a kBackpressure frame naming the
  // full queue, not as silence.
  std::string lines;
  for (int i = 0; i < 6; ++i) {
    lines += str("packing-lp ", path, " eps=0.3 label=j", i, "\n");
  }
  ASSERT_TRUE(client.submit(lines));
  const SolverdClient::Drain drain = client.drain();
  EXPECT_TRUE(drain.done);
  EXPECT_EQ(drain.results.size() + drain.backpressure.size(), 6u);
  ASSERT_GE(drain.backpressure.size(), 1u);
  for (const WireResult& wire : drain.backpressure) {
    EXPECT_TRUE(wire.result.shed);
    EXPECT_FALSE(wire.result.ok);
    EXPECT_NE(wire.result.error.find("queue full"), std::string::npos)
        << wire.result.error;
  }
  const SolverdStats stats = harness.daemon.stats();
  EXPECT_EQ(stats.backpressure, drain.backpressure.size());
  EXPECT_EQ(stats.results, drain.results.size());
}

TEST(Solverd, GracefulStopDrainsAMidSolvePreemptedJob) {
  ThreadGuard guard;
  par::set_num_threads(4);
  const std::string path = save_factorized("drain.psdp", 22);
  const JobResult ref = packing_reference(22);

  SolverdOptions options;
  options.lanes = 1;  // the wire job can only run by borrowing the lane
  DaemonHarness harness(options);
  SolverdClient client = harness.connect();

  // A warm-up round trip: once its result is back, serve() has provably
  // opened the scheduler, so direct submission below cannot race it.
  const std::string warm = save_lp("drain_warm.psdp");
  ASSERT_TRUE(client.submit(str("packing-lp ", warm, " eps=0.3\n")));
  {
    const std::optional<Frame> frame = client.read();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kResult);
  }

  // A gated no-deadline job parked mid-claim on the daemon's own
  // scheduler: deterministic staging for "stop() while a solve is
  // mid-flight". (Direct submission is the same scheduler the sessions
  // use; only the transport differs.)
  std::atomic<bool> started{false};
  std::atomic<bool> gate{false};
  const auto slow_instance = small_factorized(21);
  std::atomic<bool> slow_done{false};
  std::atomic<int> slow_preemptions{0};
  JobSpec slow;
  slow.instance = "slow";
  slow.kind = JobKind::kPackingFactorized;
  slow.options = loose_options();
  slow.builder = [slow_instance, &started, &gate] {
    started.store(true);
    while (!gate.load()) std::this_thread::yield();
    PreparedInstance prepared;
    prepared.kind = JobKind::kPackingFactorized;
    prepared.factorized = slow_instance;
    return prepared;
  };
  slow.on_complete = [&](const JobResult& r) {
    slow_preemptions.store(r.preemptions);
    slow_done.store(true);
  };
  harness.daemon.scheduler().submit(slow);
  ASSERT_TRUE(wait_until([&] { return started.load(); }));

  // An urgent wire job behind it (a deadline outranks none under EDF).
  ASSERT_TRUE(client.submit(str("packing-factorized ", path, kLooseKeys,
                                " deadline-ms=60000\n")));
  ASSERT_TRUE(
      wait_until([&] { return harness.daemon.stats().jobs == 2; }));

  // Open the gate and stop the daemon while the slow solve is mid-run:
  // the urgent job preempts it at a round boundary, its result must still
  // stream out, and the session must still end with a clean kDone.
  gate.store(true);
  harness.daemon.stop();

  const SolverdClient::Drain drain = client.drain();
  EXPECT_TRUE(drain.done);
  ASSERT_EQ(drain.results.size(), 1u);
  EXPECT_TRUE(drain.results[0].result.ok) << drain.results[0].result.error;
  EXPECT_TRUE(payload_bitwise_equal(drain.results[0].result, ref));

  ASSERT_TRUE(wait_until([&] { return slow_done.load(); }));
  EXPECT_GE(slow_preemptions.load(), 1)
      << "the wire job should have borrowed the busy lane";
  EXPECT_GE(harness.daemon.scheduler().stats().preemptions, 1u);
}

TEST(Solverd, ClientDisconnectMidStreamNeverWedgesALane) {
  ThreadGuard guard;
  par::set_num_threads(2);
  const std::string path = save_lp("vanish.psdp");
  SolverdOptions options;
  options.lanes = 1;
  DaemonHarness harness(options);

  {
    SolverdClient rude = harness.connect();
    std::string lines;
    for (int i = 0; i < 3; ++i) {
      lines += str("packing-lp ", path, " eps=0.3\n");
    }
    ASSERT_TRUE(rude.submit(lines));
    ASSERT_TRUE(wait_until([&] { return harness.daemon.stats().jobs == 3; }));
    rude.connection().close();  // walk away without reading a single result
  }
  // Every job still completes; deliveries against the dead peer are
  // counted, never thrown, and the lane moves on.
  ASSERT_TRUE(wait_until([&] {
    const SolverdStats s = harness.daemon.stats();
    return s.results + s.write_failures == 3;
  }));
  EXPECT_GE(harness.daemon.stats().write_failures, 1u);

  // A fresh connection gets full service from the same (unwedged) lane.
  SolverdClient polite = harness.connect();
  ASSERT_TRUE(polite.submit(str("packing-lp ", path, " eps=0.3\n")));
  const SolverdClient::Drain drain = polite.drain();
  EXPECT_TRUE(drain.done);
  ASSERT_EQ(drain.results.size(), 1u);
  EXPECT_TRUE(drain.results[0].result.ok) << drain.results[0].result.error;
}

TEST(Solverd, OversizedFrameIsFatalToTheConnectionNotTheDaemon) {
  ThreadGuard guard;
  par::set_num_threads(2);
  const std::string path = save_lp("oversize.psdp");
  SolverdOptions options;
  options.max_frame_bytes = 64;
  DaemonHarness harness(options);

  SolverdClient big = harness.connect();
  ASSERT_TRUE(big.submit(std::string(200, '#')));  // over the 64-byte limit
  const SolverdClient::Drain drain = big.drain();
  EXPECT_TRUE(drain.done);  // the daemon still drains and says goodbye
  ASSERT_EQ(drain.errors.size(), 1u);
  EXPECT_NE(drain.errors[0].find("scope=connection"), std::string::npos)
      << drain.errors[0];
  EXPECT_EQ(harness.daemon.stats().protocol_errors, 1u);

  SolverdClient ok = harness.connect();
  ASSERT_TRUE(ok.submit(str("packing-lp ", path, " eps=0.3\n")));
  EXPECT_EQ(ok.drain().results.size(), 1u);
}

TEST(Solverd, GarbageAndBackwardsFramesAreRefusedPerConnection) {
  ThreadGuard guard;
  par::set_num_threads(2);
  const std::string path = save_lp("garbage.psdp");
  DaemonHarness harness;
  {
    SolverdClient garbage = harness.connect();
    // Raw bytes that are not a frame: bad magic, fatal to this connection.
    ASSERT_TRUE(garbage.connection().write_all("GARBAGEGARBAGE", 14));
    const SolverdClient::Drain drain = garbage.drain();
    EXPECT_TRUE(drain.done);
    ASSERT_EQ(drain.errors.size(), 1u);
    EXPECT_NE(drain.errors[0].find("scope=connection"), std::string::npos);
  }
  {
    // A well-formed frame of a server->client type: syntactically valid,
    // semantically refused.
    SolverdClient backwards = harness.connect();
    ASSERT_TRUE(write_frame(backwards.connection(), FrameType::kResult,
                            "id=1 kind=packing-lp"));
    const SolverdClient::Drain drain = backwards.drain();
    EXPECT_TRUE(drain.done);
    ASSERT_EQ(drain.errors.size(), 1u);
    EXPECT_NE(drain.errors[0].find("unexpected"), std::string::npos)
        << drain.errors[0];
  }
  EXPECT_EQ(harness.daemon.stats().protocol_errors, 2u);

  SolverdClient fine = harness.connect();
  ASSERT_TRUE(fine.submit(str("packing-lp ", path, " eps=0.3\n")));
  EXPECT_EQ(fine.drain().results.size(), 1u);
}

TEST(Solverd, ConnectionsShareOneWarmArtifactCache) {
  ThreadGuard guard;
  par::set_num_threads(2);
  const std::string path = save_factorized("warm.psdp", 5);
  DaemonHarness harness;
  {
    SolverdClient first = harness.connect();
    ASSERT_TRUE(first.submit(
        str("packing-factorized ", path, kLooseKeys, " id=warmkey\n")));
    const SolverdClient::Drain drain = first.drain();
    ASSERT_EQ(drain.results.size(), 1u);
    EXPECT_FALSE(drain.results[0].result.cache_hit);
  }
  {
    SolverdClient second = harness.connect();
    ASSERT_TRUE(second.submit(
        str("packing-factorized ", path, kLooseKeys, " id=warmkey\n")));
    const SolverdClient::Drain drain = second.drain();
    ASSERT_EQ(drain.results.size(), 1u);
    ASSERT_TRUE(drain.results[0].result.ok) << drain.results[0].result.error;
    // The second connection's job resolved its artifacts from the first
    // connection's build: one daemon, one cache, every session warm.
    EXPECT_TRUE(drain.results[0].result.cache_hit);
  }
}

}  // namespace
}  // namespace psdp::serve
