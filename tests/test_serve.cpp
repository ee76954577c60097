// The dtpm serve protocol and server, driven entirely in-process through
// stringstream NDJSON sessions: submit/status/cancel/shutdown happy paths,
// every S-code error reply, the bounded queue's backpressure semantics, and
// the restart-determinism guarantee -- the same fleet spec submitted to two
// fresh Server instances (and across fleet worker counts) produces
// byte-identical aggregate JSON -- and, over a real Unix socket, that every
// job's ack reaches the client before its result.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/job_queue.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/diagnostics.hpp"
#include "util/json.hpp"

namespace dtpm::serve {
namespace {

/// A quick single-run submit payload (seconds of simulated time).
const char* kRunConfig =
    R"({"benchmark":"crc32","policy":"reactive","engine":"propagator",)"
    R"("warmup_s":0.5,"max_sim_time_s":2.0})";

/// A small but multi-wave fleet submit payload.
const char* kFleetSpec =
    R"({"device_count":30,"seed":3,"wave_size":10,)"
    R"("base":{"policy":"reactive","engine":"propagator",)"
    R"("warmup_s":0.5,"max_sim_time_s":2.0},)"
    R"("platforms":["odroid-xu-e","dragon"],)"
    R"("families":["bursty","periodic-square"],)"
    R"("ambient_c":{"lo":22.0,"hi":30.0},)"
    R"("scenario_nominal_duration_s":2.0})";

struct Session {
  ServeStatus status = ServeStatus::kEof;
  std::vector<util::JsonValue> replies;
};

/// Feeds one NDJSON session through Server::serve and parses every reply.
Session run_session(Server& server, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  Session session;
  session.status = server.serve(in, out);
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) session.replies.push_back(util::json_parse(line));
  }
  return session;
}

std::string reply_kind(const util::JsonValue& reply) {
  const util::JsonValue* kind = reply.find("reply");
  return kind != nullptr && kind->is_string() ? kind->as_string() : "";
}

std::string reply_job(const util::JsonValue& reply) {
  const util::JsonValue* job = reply.find("job");
  return job != nullptr && job->is_string() ? job->as_string() : "";
}

/// First reply of `kind` (optionally for a specific job id), else null.
const util::JsonValue* find_reply(const Session& session,
                                  const std::string& kind,
                                  const std::string& job = "") {
  for (const util::JsonValue& reply : session.replies) {
    if (reply_kind(reply) != kind) continue;
    if (!job.empty() && reply_job(reply) != job) continue;
    return &reply;
  }
  return nullptr;
}

std::string error_code(const util::JsonValue& reply) {
  const util::JsonValue* code = reply.find("code");
  return code != nullptr && code->is_string() ? code->as_string() : "";
}

/// The aggregate block of a fleet job's result reply, serialized.
std::string aggregate_json(const Session& session, const std::string& job) {
  const util::JsonValue* result = find_reply(session, "result", job);
  if (result == nullptr) return "<no result reply>";
  const util::JsonValue* aggregate = result->find("aggregate");
  if (aggregate == nullptr) return "<no aggregate>";
  return util::json_write(*aggregate);
}

ServeOptions quiet_options() {
  ServeOptions options;
  options.progress_every_waves = 0;  // keep sessions deterministic line-wise
  return options;
}

TEST(ServeProtocol, SubmitRunAcksAndCompletes) {
  Server server(quiet_options());
  const Session session = run_session(
      server,
      std::string(R"({"op":"submit","job":"r1","run":)") + kRunConfig +
          "}\n");
  EXPECT_EQ(ServeStatus::kEof, session.status);

  const util::JsonValue* ack = find_reply(session, "ack", "r1");
  ASSERT_NE(nullptr, ack);

  const util::JsonValue* result = find_reply(session, "result", "r1");
  ASSERT_NE(nullptr, result);
  const util::JsonValue* state = result->find("state");
  ASSERT_NE(nullptr, state);
  EXPECT_EQ("done", state->as_string());
  const util::JsonValue* run = result->find("run");
  ASSERT_NE(nullptr, run);  // single-run summary block
  EXPECT_NE(nullptr, run->find("execution_time_s"));
}

TEST(ServeProtocol, ShutdownDrainsAndByeIsLast) {
  Server server(quiet_options());
  const Session session = run_session(
      server,
      std::string(R"({"op":"submit","job":"r1","run":)") + kRunConfig +
          "}\n" + R"({"op":"shutdown"})" + "\n");
  EXPECT_EQ(ServeStatus::kShutdown, session.status);
  ASSERT_FALSE(session.replies.empty());
  // The result must already be out when "bye" closes the stream.
  EXPECT_EQ("bye", reply_kind(session.replies.back()));
  EXPECT_NE(nullptr, find_reply(session, "result", "r1"));

  const util::JsonValue* bye = &session.replies.back();
  const util::JsonValue* telemetry = bye->find("telemetry");
  ASSERT_NE(nullptr, telemetry);
  EXPECT_EQ(1, telemetry->find("jobs_submitted")->as_integer());
  EXPECT_EQ(1, telemetry->find("jobs_completed")->as_integer());
}

TEST(ServeProtocol, MalformedLineIsS001) {
  Server server(quiet_options());
  const Session session = run_session(server, "this is not json\n");
  const util::JsonValue* error = find_reply(session, "error");
  ASSERT_NE(nullptr, error);
  EXPECT_EQ(kCodeSyntax, error_code(*error));
}

TEST(ServeProtocol, UnknownOpIsS003WithSuggestion) {
  Server server(quiet_options());
  const Session session = run_session(server, R"({"op":"submot"})" "\n");
  const util::JsonValue* error = find_reply(session, "error");
  ASSERT_NE(nullptr, error);
  EXPECT_EQ(kCodeUnknownOp, error_code(*error));
  const util::JsonValue* message = error->find("message");
  ASSERT_NE(nullptr, message);
  EXPECT_NE(std::string::npos, message->as_string().find("submit"));
}

TEST(ServeProtocol, SubmitWithoutPayloadIsShapeError) {
  Server server(quiet_options());
  const Session session =
      run_session(server, R"({"op":"submit","job":"r1"})" "\n");
  const util::JsonValue* error = find_reply(session, "error");
  ASSERT_NE(nullptr, error);
  EXPECT_EQ(kCodeShape, error_code(*error));
}

TEST(ServeProtocol, EmbeddedFleetProblemsArriveAsDiagnostics) {
  // A typo'd platform inside the fleet payload surfaces exactly as `dtpm
  // lint` would report it: an L703 diagnostic with its $.fleet... path.
  Server server(quiet_options());
  const Session session = run_session(
      server,
      R"({"op":"submit","job":"f1","fleet":{"device_count":10,)"
      R"("base":{"policy":"reactive"},"platforms":["odroid-xu"]}})" "\n");
  const util::JsonValue* error = find_reply(session, "error");
  ASSERT_NE(nullptr, error);
  const std::string rendered = util::json_write(*error);
  EXPECT_NE(std::string::npos, rendered.find("L703"));
  EXPECT_NE(std::string::npos, rendered.find("$.fleet"));
  // The job never ran.
  EXPECT_EQ(nullptr, find_reply(session, "result", "f1"));
}

TEST(ServeProtocol, DuplicateJobIdIsS004) {
  Server server(quiet_options());
  const std::string submit =
      std::string(R"({"op":"submit","job":"r1","run":)") + kRunConfig + "}\n";
  const Session session = run_session(server, submit + submit);
  const util::JsonValue* error = find_reply(session, "error", "r1");
  ASSERT_NE(nullptr, error);
  EXPECT_EQ(kCodeUnknownJob, error_code(*error));
}

TEST(ServeProtocol, StatusAndCancelOnUnknownJobAreS004) {
  Server server(quiet_options());
  {
    const Session session =
        run_session(server, R"({"op":"status","job":"ghost"})" "\n");
    const util::JsonValue* error = find_reply(session, "error");
    ASSERT_NE(nullptr, error);
    EXPECT_EQ(kCodeUnknownJob, error_code(*error));
  }
  {
    const Session session =
        run_session(server, R"({"op":"cancel","job":"ghost"})" "\n");
    const util::JsonValue* error = find_reply(session, "error");
    ASSERT_NE(nullptr, error);
    EXPECT_EQ(kCodeUnknownJob, error_code(*error));
  }
}

TEST(ServeProtocol, ServerStatusReportsQueueAndTelemetry) {
  Server server(quiet_options());
  const Session session = run_session(server, R"({"op":"status"})" "\n");
  const util::JsonValue* status = find_reply(session, "status");
  ASSERT_NE(nullptr, status);
  EXPECT_EQ(0, status->find("queue_depth")->as_integer());
  EXPECT_GT(status->find("queue_capacity")->as_integer(), 0);
  EXPECT_NE(nullptr, status->find("jobs"));
  EXPECT_NE(nullptr, status->find("telemetry"));
}

TEST(ServeProtocol, FleetJobShipsAggregate) {
  ServeOptions options = quiet_options();
  options.progress_every_waves = 1;
  Server server(options);
  const Session session = run_session(
      server,
      std::string(R"({"op":"submit","job":"f1","fleet":)") + kFleetSpec +
          "}\n");
  const util::JsonValue* result = find_reply(session, "result", "f1");
  ASSERT_NE(nullptr, result);
  EXPECT_EQ("done", result->find("state")->as_string());
  const util::JsonValue* aggregate = result->find("aggregate");
  ASSERT_NE(nullptr, aggregate);
  EXPECT_EQ(30, aggregate->find("devices")->as_integer());
  EXPECT_EQ(0, aggregate->find("failed")->as_integer());
  // Progress lines streamed while the fleet ran (3 waves of 10).
  EXPECT_NE(nullptr, find_reply(session, "progress", "f1"));
}

TEST(ServeProtocol, SecondSessionReusesWarmServer) {
  // The executor pool (and its warm RunPlan caches) outlives serve(): a
  // second session on the same Server works and keeps counting.
  Server server(quiet_options());
  const std::string submit =
      std::string(R"({"op":"submit","job":"r1","run":)") + kRunConfig + "}\n";
  const Session first = run_session(server, submit);
  EXPECT_NE(nullptr, find_reply(first, "result", "r1"));
  const std::string submit2 =
      std::string(R"({"op":"submit","job":"r2","run":)") + kRunConfig + "}\n";
  const Session second = run_session(server, submit2);
  EXPECT_NE(nullptr, find_reply(second, "result", "r2"));
  EXPECT_EQ(2u, server.telemetry().jobs_completed.load());
}

TEST(ServeDeterminism, RestartProducesIdenticalAggregates) {
  // The acceptance-criteria restart guarantee: a fresh server process (here
  // a fresh Server instance -- same code path, no shared state) given the
  // same fleet spec emits a byte-identical aggregate.
  const std::string submit =
      std::string(R"({"op":"submit","job":"f1","fleet":)") + kFleetSpec +
      "}\n" + R"({"op":"shutdown"})" + "\n";
  std::string first, second;
  {
    Server server(quiet_options());
    first = aggregate_json(run_session(server, submit), "f1");
  }
  {
    Server server(quiet_options());
    second = aggregate_json(run_session(server, submit), "f1");
  }
  EXPECT_NE("<no result reply>", first);
  EXPECT_EQ(first, second);
}

TEST(ServeDeterminism, FleetWorkerCountDoesNotChangeAggregates) {
  const std::string submit =
      std::string(R"({"op":"submit","job":"f1","fleet":)") + kFleetSpec +
      "}\n";
  ServeOptions serial = quiet_options();
  serial.fleet_workers = 1;
  ServeOptions wide = quiet_options();
  wide.fleet_workers = 4;
  Server a(serial);
  Server b(wide);
  const std::string first = aggregate_json(run_session(a, submit), "f1");
  const std::string second = aggregate_json(run_session(b, submit), "f1");
  EXPECT_NE("<no result reply>", first);
  EXPECT_EQ(first, second);
}

TEST(ServeProtocol, SmokeOptionCapsSubmittedJobs) {
  ServeOptions options = quiet_options();
  options.smoke = true;
  Server server(options);
  // Without smoke caps this run would simulate 900 s; the test finishing
  // quickly (and completing) is the assertion.
  const Session session = run_session(
      server,
      R"({"op":"submit","job":"r1","run":{"benchmark":"crc32",)"
      R"("policy":"reactive","engine":"propagator"}})" "\n");
  const util::JsonValue* result = find_reply(session, "result", "r1");
  ASSERT_NE(nullptr, result);
  EXPECT_EQ("done", result->find("state")->as_string());
}

// --- reply ordering over a socket --------------------------------------------

/// Minimal blocking NDJSON client over a Unix socket.
class SocketClient {
 public:
  /// Connects to `path`, retrying while the server is still binding.
  explicit SocketClient(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    for (int attempt = 0; attempt < 500; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ~SocketClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  void send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t written = 0;
    while (written < data.size()) {
      const ssize_t n =
          ::write(fd_, data.data() + written, data.size() - written);
      if (n <= 0) return;
      written += std::size_t(n);
    }
  }

  /// The next reply line; empty at EOF.
  std::string read_line() {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buffer_.append(chunk, std::size_t(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(ServeOrdering, AckPrecedesResultForOneAtATimeRunJobs) {
  // One job in flight at a time leaves the executor idle, so it pops each
  // job the moment it is queued; a one-interval run can then finish before
  // the submit path has written its ack. The ack must still come first.
  const char* tiny_run =
      R"({"benchmark":"crc32","policy":"reactive","engine":"propagator",)"
      R"("warmup_s":0.0,"max_sim_time_s":0.1})";
  const std::string path = ::testing::TempDir() + "dtpm_serve_order_" +
                           std::to_string(::getpid()) + ".sock";
  Server server(quiet_options());
  std::thread serving([&server, &path] { server.serve_unix(path); });

  constexpr int kJobs = 400;
  int completed = 0;
  int result_before_ack = 0;
  {
    SocketClient client(path);
    EXPECT_TRUE(client.connected());
    for (int i = 0; client.connected() && i < kJobs; ++i) {
      const std::string id = "o" + std::to_string(i);
      client.send_line(R"({"op":"submit","job":")" + id +
                       R"(","smoke":true,"run":)" + tiny_run + "}");
      std::string first_kind;
      std::string line;
      while (!(line = client.read_line()).empty()) {
        const util::JsonValue reply = util::json_parse(line);
        // A late ack of the previous job belongs to that job, not this one.
        if (reply_job(reply) != id) continue;
        if (first_kind.empty()) first_kind = reply_kind(reply);
        if (reply_kind(reply) == "result") break;
      }
      if (line.empty()) break;  // the server hung up
      ++completed;
      if (first_kind != "ack") ++result_before_ack;
    }
    client.send_line(R"({"op":"shutdown"})");
    EXPECT_NE(std::string::npos, client.read_line().find(R"("reply":"bye")"));
  }
  server.request_stop();  // unblocks serve_unix if the session failed early
  serving.join();
  EXPECT_EQ(kJobs, completed);
  EXPECT_EQ(0, result_before_ack);
}

TEST(BoundedJobQueue, BackpressureAtCapacity) {
  BoundedJobQueue queue(2);
  EXPECT_EQ(2u, queue.capacity());
  EXPECT_TRUE(queue.try_push(std::make_shared<JobRecord>()));
  EXPECT_TRUE(queue.try_push(std::make_shared<JobRecord>()));
  EXPECT_EQ(2u, queue.depth());
  EXPECT_FALSE(queue.try_push(std::make_shared<JobRecord>()));  // S007's path
  queue.pop();
  EXPECT_TRUE(queue.try_push(std::make_shared<JobRecord>()));
}

TEST(BoundedJobQueue, FifoOrder) {
  BoundedJobQueue queue(4);
  auto a = std::make_shared<JobRecord>();
  auto b = std::make_shared<JobRecord>();
  a->id = "a";
  b->id = "b";
  queue.try_push(a);
  queue.try_push(b);
  EXPECT_EQ("a", queue.pop()->id);
  EXPECT_EQ("b", queue.pop()->id);
}

TEST(BoundedJobQueue, StopRejectsAndDrains) {
  BoundedJobQueue queue(4);
  queue.try_push(std::make_shared<JobRecord>());
  queue.try_push(std::make_shared<JobRecord>());
  queue.request_stop();
  EXPECT_TRUE(queue.stopped());
  EXPECT_FALSE(queue.try_push(std::make_shared<JobRecord>()));
  // Stopped pop() hands nothing to executors; drain() reclaims the backlog.
  EXPECT_EQ(nullptr, queue.pop());
  EXPECT_EQ(2u, queue.drain().size());
  EXPECT_EQ(0u, queue.depth());
}

}  // namespace
}  // namespace dtpm::serve
