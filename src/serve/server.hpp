// `dtpm serve` -- a persistent fleet-simulation service. One Server owns a
// warm executor pool and a bounded job queue; the request loop (serve(), fed
// by stdin or a Unix socket) parses NDJSON requests, answers status/cancel
// immediately, and enqueues submitted jobs for the executors, which stream
// progress and result replies back over the same connection.
//
// What stays warm across requests: each executor thread owns a sim::RunPlan
// that accumulates compiled floorplan templates and calibrated models for
// every platform it has seen, and sim::platform_calibration's process-wide
// cache persists regardless -- so the second job on a platform skips the
// expensive invariants entirely.
//
// What stays flat: job payloads are bounded (queue capacity + a capped
// finished-job history), fleets aggregate through serve::FleetAggregate
// (O(sketch) state, no retained traces), and replies stream out as they are
// produced. A 100k-device fleet leaves no more than a wave of results alive
// at any instant.
//
// Stopping: a shutdown request drains -- no new submits, queued and running
// jobs finish, "bye" is the last reply. An external stop (SIGINT/SIGTERM via
// ServeOptions::stop_flag, or request_stop()) curtails instead: queued jobs
// are cancelled, running fleets stop at the next wave boundary and ship
// their partial aggregates.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/job_queue.hpp"
#include "serve/protocol.hpp"
#include "serve/telemetry.hpp"

namespace dtpm::sim {
class RunPlan;
}  // namespace dtpm::sim

namespace dtpm::serve {

struct ServeOptions {
  /// BatchRunner width inside a fleet job (0 = hardware concurrency).
  unsigned fleet_workers = 0;
  /// Executor threads = jobs in flight at once. The default keeps job
  /// execution serial (each fleet already parallelizes internally).
  unsigned executors = 1;
  /// Submission queue capacity; a full queue rejects with S007.
  std::size_t queue_capacity = 16;
  /// Apply smoke caps (sim/serve apply_smoke_caps) to every submitted job.
  bool smoke = false;
  /// External stop flag, typically set by a signal handler. Polled by the
  /// request loop and every wait; when it flips, the server behaves as if
  /// request_stop() had been called.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Finished jobs retained for later status queries before eviction
  /// (bounds registry memory on a long-lived server).
  std::size_t history_capacity = 64;
  /// Emit a progress reply every N fleet waves (0 disables progress lines).
  std::uint64_t progress_every_waves = 1;
};

/// Why serve() returned.
enum class ServeStatus {
  kEof,       ///< input ended; all accepted jobs were drained first
  kShutdown,  ///< a shutdown request drained the server
  kStopped,   ///< external stop curtailed it
};

class Server {
 public:
  explicit Server(ServeOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs one NDJSON session: request lines from `in`, reply lines to
  /// `out`. Returns on EOF (after draining accepted jobs so every reply
  /// reaches the stream), on a shutdown request, or on stop. The executor
  /// pool outlives the call -- a second serve() reuses the warm caches.
  ServeStatus serve(std::istream& in, std::ostream& out);

  /// Listens on a Unix domain socket, serving one connection at a time
  /// (each via serve()) until a shutdown request or stop. Throws
  /// std::runtime_error when the socket cannot be bound.
  ServeStatus serve_unix(const std::string& socket_path);

  /// Curtails: cancels queued jobs, asks running jobs to stop at their next
  /// wave boundary. Callable from any thread (NOT from a signal handler --
  /// handlers should set ServeOptions::stop_flag instead).
  void request_stop();

  const ServerTelemetry& telemetry() const { return telemetry_; }

 private:
  void executor_loop();
  void execute(const JobPtr& job, sim::RunPlan& plan);
  void execute_run(JobRecord& job, sim::RunPlan& plan);
  void execute_fleet(JobRecord& job, sim::RunPlan& plan);
  void finish_job(JobRecord& job, JobState state);

  void handle_line(const std::string& line);
  void handle_submit(Request&& request, std::vector<util::Diagnostic> notes);
  void handle_status(const Request& request);
  void handle_cancel(const Request& request);

  /// One NDJSON reply line to the live session (dropped when none).
  void emit(const util::JsonValue& reply);
  /// emit() for a caller that already holds out_mutex_.
  void write_reply(const util::JsonValue& reply);

  util::JsonValue server_status_json();
  util::JsonValue job_status_json(const JobRecord& job);

  JobPtr find_job(const std::string& id);
  bool stopping();  ///< also latches an external stop_flag into request_stop
  void wait_idle();

  ServeOptions options_;
  ServerTelemetry telemetry_;
  BoundedJobQueue queue_;

  std::mutex jobs_mutex_;
  std::map<std::string, JobPtr> jobs_;
  std::deque<std::string> finished_order_;  ///< eviction order (FIFO)

  /// Jobs accepted but not yet terminal; wait_idle blocks on it.
  std::atomic<std::uint64_t> pending_{0};
  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};

  std::mutex out_mutex_;
  std::ostream* out_ = nullptr;

  std::vector<std::thread> executors_;
};

}  // namespace dtpm::serve
